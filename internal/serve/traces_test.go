package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"regexp"
	"testing"
	"time"

	"tagsim/internal/cloud"
	"tagsim/internal/geo"
	otrace "tagsim/internal/obs/trace"
	"tagsim/internal/store"
	"tagsim/internal/trace"
)

var traceIDPattern = regexp.MustCompile(`^[0-9a-f]{16}$`)

// withCaptureBar replaces the live-p99 trace capture bar of every
// instrumented endpoint with a fixed one: 0 captures every request, an
// hour captures none.
func withCaptureBar(s *Server, bar time.Duration) *Server {
	for _, m := range s.endpoints {
		m.th = otrace.NewThreshold(nil, bar)
	}
	return s
}

// TestXTagTraceHeader pins the capture advertisement contract on the
// /v1/* endpoints: a request whose trace clears the serve plane's
// capture bar answers with an X-Tag-Trace header naming the capture on
// /debug/traces, and a request under the bar answers without one.
func TestXTagTraceHeader(t *testing.T) {
	services := fixtureServices()
	ts := httptest.NewServer(withCaptureBar(NewServer(services), 0))
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/lastknown?tag=airtag-1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	id := resp.Header.Get("X-Tag-Trace")
	if !traceIDPattern.MatchString(id) {
		t.Fatalf("X-Tag-Trace = %q, want a 16-hex-digit capture ID", id)
	}
	var captured *otrace.Captured
	for _, c := range otrace.DefaultRing.Snapshot(0) {
		if otrace.FormatID(c.ID) == id {
			captured = c
		}
	}
	if captured == nil {
		t.Fatalf("advertised capture %s not present on /debug/traces ring", id)
	}
	if root := captured.Root(); root.Op != "lastknown" || root.Plane != otrace.PlaneServe {
		t.Errorf("capture %s roots at %s.%s, want serve.lastknown", id, root.Plane, root.Op)
	}

	// Under an unreachable bar, the same request stays unadvertised.
	quiet := httptest.NewServer(withCaptureBar(NewServer(services), time.Hour))
	defer quiet.Close()
	resp, err = http.Get(quiet.URL + "/v1/lastknown?tag=airtag-1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Tag-Trace"); got != "" {
		t.Errorf("X-Tag-Trace = %q on a sub-threshold request, want absent", got)
	}
}

// TestDebugTracesEndpoint drives the /debug/traces surface: JSON shape,
// newest-first ordering, and the plane/op/min/limit filters.
func TestDebugTracesEndpoint(t *testing.T) {
	ts := httptest.NewServer(withCaptureBar(NewServer(fixtureServices()), 0))
	defer ts.Close()
	for _, path := range []string{
		"/v1/lastknown?tag=airtag-1",
		"/v1/track?tag=airtag-1",
		"/v1/history?tag=airtag-1&limit=5",
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}

	var out TracesResponse
	if code := getJSON(t, ts.URL+"/debug/traces", &out); code != http.StatusOK {
		t.Fatalf("GET /debug/traces: status %d", code)
	}
	if len(out.Traces) < 3 {
		t.Fatalf("got %d traces, want at least the 3 just captured", len(out.Traces))
	}
	for i := 1; i < len(out.Traces); i++ {
		if out.Traces[i-1].ID <= out.Traces[i].ID {
			t.Errorf("traces not newest-first: %s then %s", out.Traces[i-1].ID, out.Traces[i].ID)
		}
	}

	var filtered TracesResponse
	getJSON(t, ts.URL+"/debug/traces?plane=serve&op=track", &filtered)
	if len(filtered.Traces) == 0 {
		t.Fatal("op=track filter returned nothing")
	}
	for _, tr := range filtered.Traces {
		if tr.Op != "track" || tr.Plane != "serve" {
			t.Errorf("filter leaked %s.%s", tr.Plane, tr.Op)
		}
	}

	var none TracesResponse
	getJSON(t, ts.URL+"/debug/traces?min=1h", &none)
	if len(none.Traces) != 0 {
		t.Errorf("min=1h kept %d traces, want 0", len(none.Traces))
	}

	var capped TracesResponse
	getJSON(t, ts.URL+"/debug/traces?limit=2", &capped)
	if len(capped.Traces) != 2 {
		t.Errorf("limit=2 returned %d traces", len(capped.Traces))
	}

	resp, err := http.Get(ts.URL + "/debug/traces?min=bogus")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad min parameter: status %d, want 400", resp.StatusCode)
	}
}

// TestColdHistoryTraceAnatomy is the tentpole's acceptance scenario: a
// cold history read against a tiered store — cache miss, memtable
// short, segments pread and decoded — captures a trace whose span tree
// shows the full serve → cache → store path with correct nesting and
// sane durations.
func TestColdHistoryTraceAnatomy(t *testing.T) {
	svc, err := cloud.NewServicePersistent(trace.VendorApple, 4, store.Tiering{
		Dir:               t.TempDir(),
		MemtableBytes:     16 << 10,
		WALSyncBytes:      4 << 10,
		MinUpdateInterval: time.Second,
		DisableCompaction: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	// A deep history for one tag (reports spaced past the rate cap),
	// flushed so the rows live in immutable segments, not the ring —
	// the next read has no choice but to go to disk.
	at := time.Date(2022, 3, 7, 9, 0, 0, 0, time.UTC)
	for i := 0; i < 200; i++ {
		if !svc.Ingest(report(at, trace.VendorApple, "airtag-cold", geo.Destination(pos, 90, float64(i)))) {
			t.Fatalf("report %d rejected", i)
		}
		at = at.Add(2 * time.Second)
	}
	if err := svc.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}

	ts := httptest.NewServer(withCaptureBar(NewServer(map[trace.Vendor]*cloud.Service{trace.VendorApple: svc}), 0))
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/history?tag=airtag-cold")
	if err != nil {
		t.Fatal(err)
	}
	var hist HistoryResponse
	if err := json.NewDecoder(resp.Body).Decode(&hist); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(hist.Reports) != 200 {
		t.Fatalf("history returned %d reports, want 200", len(hist.Reports))
	}
	id := resp.Header.Get("X-Tag-Trace")
	if id == "" {
		t.Fatal("cold history read not advertised via X-Tag-Trace")
	}
	var c *otrace.Captured
	for _, cc := range otrace.DefaultRing.Snapshot(0) {
		if otrace.FormatID(cc.ID) == id {
			c = cc
		}
	}
	if c == nil {
		t.Fatalf("capture %s not on the ring", id)
	}

	// The anatomy: root serve.history → cache.miss event →
	// cache.fill.history → store.memtable → store.pread + store.decode.
	index := map[string]int{}
	for i, s := range c.Spans {
		if _, dup := index[s.Op]; !dup {
			index[s.Op] = i
		}
	}
	root := c.Root()
	if root.Op != "history" || root.Plane != otrace.PlaneServe || root.Parent != -1 {
		t.Fatalf("root = %s.%s parent %d, want serve.history parent -1", root.Plane, root.Op, root.Parent)
	}
	for _, op := range []string{"cache.miss", "cache.fill.history", "store.memtable", "store.pread", "store.decode"} {
		if _, ok := index[op]; !ok {
			t.Fatalf("captured trace missing %s span:\n%s", op, c.Flame())
		}
	}
	fill, mem := index["cache.fill.history"], index["store.memtable"]
	pread, dec := index["store.pread"], index["store.decode"]
	if p := c.Spans[index["cache.miss"]].Parent; p != 0 {
		t.Errorf("cache.miss parented at %d, want root", p)
	}
	if p := c.Spans[fill].Parent; p != 0 {
		t.Errorf("cache.fill.history parented at %d, want root", p)
	}
	if p := c.Spans[mem].Parent; int(p) != fill {
		t.Errorf("store.memtable parented at %d, want cache.fill.history (%d)", p, fill)
	}
	if p := c.Spans[pread].Parent; int(p) != mem {
		t.Errorf("store.pread parented at %d, want store.memtable (%d)", p, mem)
	}
	if p := c.Spans[dec].Parent; int(p) != mem {
		t.Errorf("store.decode parented at %d, want store.memtable (%d)", p, mem)
	}
	// Durations: every timed span closed, nested within its parent's
	// window, and the root covers them all.
	for i, s := range c.Spans {
		if s.Start < 0 {
			continue // untimed event
		}
		if s.End < s.Start {
			t.Errorf("span %d (%s) has End %d < Start %d", i, s.Op, s.End, s.Start)
		}
		if p := s.Parent; p > 0 && c.Spans[p].Start >= 0 {
			if s.Start < c.Spans[p].Start || s.End > c.Spans[p].End {
				t.Errorf("span %s [%d,%d] escapes parent %s [%d,%d]",
					s.Op, s.Start, s.End, c.Spans[p].Op, c.Spans[p].Start, c.Spans[p].End)
			}
		}
		if s.End > root.End {
			t.Errorf("span %s ends at %d, past the root's %d", s.Op, s.End, root.End)
		}
	}
	if c.Duration() <= 0 {
		t.Errorf("captured duration = %v, want > 0", c.Duration())
	}
	// The memtable span recorded how much the merge needed from disk.
	if a2 := c.Spans[mem].A2; a2 <= 0 {
		t.Errorf("store.memtable disk need (A2) = %d, want > 0 after a full flush", a2)
	}
}
