package load

import (
	"errors"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"tagsim/internal/cloud"
	"tagsim/internal/geo"
	"tagsim/internal/obs"
	"tagsim/internal/serve"
	"tagsim/internal/trace"
)

var (
	t0  = time.Date(2022, 3, 7, 9, 0, 0, 0, time.UTC)
	pos = geo.LatLon{Lat: 24.45, Lon: 54.37}
)

// recordingTarget captures the issued (op, tag) stream per worker-free
// global order plus per-pair counts.
type recordingTarget struct {
	mu    sync.Mutex
	count map[string]int
	fail  bool
}

func newRecordingTarget(fail bool) *recordingTarget {
	return &recordingTarget{count: map[string]int{}, fail: fail}
}

func (t *recordingTarget) Do(op Op, tagID string) (int, error) {
	t.mu.Lock()
	t.count[op.String()+"/"+tagID]++
	t.mu.Unlock()
	if t.fail {
		return 0, errors.New("boom")
	}
	return 2, nil // pretend every op served two report records
}

func tags(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = string(rune('a'+i%26)) + "-tag"
	}
	for i := range out {
		out[i] = out[i] + string(rune('0'+i/26))
	}
	return out
}

// TestDeterministicSequence: two runs with the same config must issue
// the identical multiset of (op, tag) pairs at any worker count —
// the load harness analog of the simulator's worker-invariance.
func TestDeterministicSequence(t *testing.T) {
	cfg := Config{Workers: 8, Requests: 1200, Seed: 42, Tags: tags(20)}
	a := newRecordingTarget(false)
	if _, err := Run(cfg, a); err != nil {
		t.Fatal(err)
	}
	b := newRecordingTarget(false)
	if _, err := Run(cfg, b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.count, b.count) {
		t.Error("same config produced different request streams")
	}
	// A different seed must produce a different stream.
	c := newRecordingTarget(false)
	cfg.Seed = 43
	if _, err := Run(cfg, c); err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.count, c.count) {
		t.Error("different seeds produced identical request streams")
	}
}

func TestZipfSkewAndMix(t *testing.T) {
	cfg := Config{Workers: 4, Requests: 4000, Seed: 7, Tags: tags(50)}
	rec := newRecordingTarget(false)
	res, err := Run(cfg, rec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 4000 || res.Errors != 0 {
		t.Fatalf("result = %+v", res)
	}
	// The default mix is dominated by last-known polls.
	if res.PerOp[OpLastKnown] < res.PerOp[OpHistory]+res.PerOp[OpTrack]+res.PerOp[OpStats] {
		t.Errorf("mix not lastknown-dominated: %v", res.PerOp)
	}
	total := 0
	for _, n := range res.PerOp {
		total += n
	}
	if total != 4000 {
		t.Errorf("per-op counts sum to %d", total)
	}
	// Zipf popularity: the hottest tag draws more lastknown polls than
	// a deep-tail tag.
	hot := rec.count["lastknown/"+cfg.Tags[0]]
	cold := rec.count["lastknown/"+cfg.Tags[49]]
	if hot <= cold*2 {
		t.Errorf("no Zipf skew: hot=%d cold=%d", hot, cold)
	}
	if res.Latency.N != 4000 {
		t.Errorf("latency sample count = %d", res.Latency.N)
	}
	if res.Throughput() <= 0 {
		t.Error("throughput must be positive")
	}
	// The recording target reports two records per op, so the sustained
	// data rate is exactly twice the request rate.
	if res.Reports != 2*res.Requests {
		t.Errorf("reports = %d, want %d", res.Reports, 2*res.Requests)
	}
	if got, want := res.ReportThroughput(), 2*res.Throughput(); got < want*0.99 || got > want*1.01 {
		t.Errorf("report throughput = %.0f, want ~%.0f", got, want)
	}
	out := res.Render()
	if out == "" {
		t.Error("Render must describe the run")
	}
	for _, want := range []string{"req/s", "reports/s"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestErrorsCounted(t *testing.T) {
	cfg := Config{Workers: 2, Requests: 10, Seed: 1, Tags: tags(3)}
	res, err := Run(cfg, newRecordingTarget(true))
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 10 {
		t.Errorf("errors = %d, want 10", res.Errors)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := Run(Config{}, newRecordingTarget(false)); err == nil {
		t.Error("empty tag universe must error")
	}
	if _, err := Run(Config{Tags: tags(2), ZipfS: 0.5}, newRecordingTarget(false)); err == nil {
		t.Error("ZipfS <= 1 must error")
	}
	if _, err := Run(Config{Tags: tags(2), Mix: Mix{LastKnown: 10, History: -20}}, newRecordingTarget(false)); err == nil {
		t.Error("negative mix weights must error, not panic in Intn")
	}
}

func fixtureServices() map[trace.Vendor]*cloud.Service {
	apple := cloud.NewService(trace.VendorApple)
	samsung := cloud.NewService(trace.VendorSamsung)
	for i, tag := range []string{"airtag-1", "smarttag-1", "tag-x"} {
		svc := apple
		if i%2 == 1 {
			svc = samsung
		}
		for k := 0; k < 5; k++ {
			at := t0.Add(time.Duration(k) * 4 * time.Minute)
			svc.Ingest(trace.Report{T: at, HeardAt: at, TagID: tag, Vendor: svc.Vendor(),
				Pos: geo.Destination(pos, float64(k*20), float64(k*30))})
		}
	}
	return map[trace.Vendor]*cloud.Service{trace.VendorApple: apple, trace.VendorSamsung: samsung}
}

// TestServiceTarget drives the stores directly.
func TestServiceTarget(t *testing.T) {
	target := NewServiceTarget(fixtureServices())
	// The fixture accepts all 5 reports per tag (4-minute spacing clears
	// the rate cap), so history of a known tag serves 5 records and
	// lastknown 1. Checked before the all-ops sweep below, which includes
	// the OpReport write and so grows the history.
	if n, _ := target.Do(OpHistory, "airtag-1"); n != 5 {
		t.Errorf("history reports = %d, want 5", n)
	}
	if n, _ := target.Do(OpLastKnown, "airtag-1"); n != 1 {
		t.Errorf("lastknown reports = %d, want 1", n)
	}
	for op := Op(0); op < numOps; op++ {
		if _, err := target.Do(op, "airtag-1"); err != nil {
			t.Errorf("%v: %v", op, err)
		}
	}
	res, err := Run(Config{Workers: 4, Requests: 400, Seed: 3, Tags: []string{"airtag-1", "smarttag-1", "tag-x"}}, target)
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Errorf("direct target errors = %d", res.Errors)
	}
	if res.Reports == 0 {
		t.Error("direct target served no reports")
	}
}

// TestHTTPTargetEndToEnd runs the closed loop against a real HTTP server
// wired to the query API — the full serving stack in-process.
func TestHTTPTargetEndToEnd(t *testing.T) {
	services := fixtureServices()
	ts := httptest.NewServer(serve.NewServer(services))
	defer ts.Close()
	res, err := Run(Config{Workers: 4, Requests: 400, Seed: 3, Tags: []string{"airtag-1", "smarttag-1", "tag-x"}},
		NewHTTPTarget(ts.URL))
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Errorf("HTTP target errors = %d", res.Errors)
	}
	if res.Latency.P50 <= 0 {
		t.Error("latencies must be measured")
	}
	if res.Reports == 0 {
		t.Error("HTTP target counted no served reports")
	}
	// HTTP answers count the same per-request payloads as the oracle,
	// before and after a write through the API invalidates the server's
	// hot-tag cache entry.
	httpT := NewHTTPTarget(ts.URL)
	for round := 0; round < 2; round++ {
		for _, op := range []Op{OpLastKnown, OpHistory, OpTrack} {
			want, _ := combinedCount(services, op, "smarttag-1")
			got, err := httpT.Do(op, "smarttag-1")
			if err != nil {
				t.Fatalf("round %d %v: %v", round, op, err)
			}
			if got != want {
				t.Errorf("round %d %v: HTTP counted %d reports, Combined %d", round, op, got, want)
			}
		}
		if n, err := httpT.Do(OpReport, "smarttag-1"); err != nil || n != 1 {
			t.Fatalf("round %d: fresh write = (%d, %v), want accepted", round, n, err)
		}
	}
	// ...and agree with the direct target that an unknown tag is an
	// error (the HTTP layer 404s it; the direct target mirrors that),
	// keeping error rates comparable between the two modes.
	direct := NewServiceTarget(fixtureServices())
	for _, op := range []Op{OpLastKnown, OpHistory, OpTrack} {
		if _, err := direct.Do(op, "ghost"); err == nil {
			t.Errorf("%v: direct target accepted unknown tag", op)
		}
		if _, err := httpT.Do(op, "ghost"); err == nil {
			t.Errorf("%v: HTTP target accepted unknown tag", op)
		}
	}
}

// TestOpenLoopSchedule: the open loop issues the same deterministic
// (op, tag) stream as the closed loop, measures queue wait for every
// request, and at a generous offered rate achieves roughly what it
// offers. Timing assertions keep wide margins — CI boxes are noisy.
func TestOpenLoopSchedule(t *testing.T) {
	cfg := Config{Workers: 2, Requests: 200, Seed: 9, Tags: tags(10),
		OpenLoop: true, OfferedRate: 20000}
	closed := newRecordingTarget(false)
	if _, err := Run(Config{Workers: 2, Requests: 200, Seed: 9, Tags: tags(10)}, closed); err != nil {
		t.Fatal(err)
	}
	open := newRecordingTarget(false)
	res, err := Run(cfg, open)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(open.count, closed.count) {
		t.Error("open and closed loops issued different request streams for the same config")
	}
	if !res.OpenLoop || res.OfferedRate != 20000 {
		t.Errorf("result loop echo = (%v, %v)", res.OpenLoop, res.OfferedRate)
	}
	if res.QueueWait.N != res.Requests {
		t.Errorf("queue wait samples = %d, want %d", res.QueueWait.N, res.Requests)
	}
	if res.Latency.N != res.Requests {
		t.Errorf("latency samples = %d, want %d", res.Latency.N, res.Requests)
	}
	// 200 requests at 20k/s are offered inside ~10ms; even a slow box
	// finishes well under a second, so the achieved rate stays within
	// an order of magnitude of offered.
	if res.Throughput() < res.OfferedRate/100 {
		t.Errorf("achieved %.0f req/s against %.0f offered", res.Throughput(), res.OfferedRate)
	}
	out := res.Render()
	for _, want := range []string{"open loop", "offered=", "queue ms"} {
		if !strings.Contains(out, want) {
			t.Errorf("open-loop render missing %q:\n%s", want, out)
		}
	}
}

// slowTarget serves every request with a fixed delay — an overloaded
// backend for the coordinated-omission test.
type slowTarget struct{ d time.Duration }

func (s slowTarget) Do(op Op, tagID string) (int, error) {
	time.Sleep(s.d)
	return 0, nil
}

// TestOpenLoopExposesQueueing is the coordinated-omission property: a
// closed loop against a slow target reports only service latency, while
// the open loop at an offered rate beyond the target's capacity
// accumulates visible queue wait that dwarfs the service time.
func TestOpenLoopExposesQueueing(t *testing.T) {
	target := slowTarget{d: 2 * time.Millisecond}
	// One worker serving 2ms requests caps at 500 req/s; offer 4x.
	res, err := Run(Config{Workers: 1, Requests: 100, Seed: 5, Tags: tags(3),
		OpenLoop: true, OfferedRate: 2000}, target)
	if err != nil {
		t.Fatal(err)
	}
	if res.QueueWait.P99 < res.Latency.P50 {
		t.Errorf("overload queue wait p99 (%.3fms) should exceed the 2ms service time (p50 %.3fms)",
			res.QueueWait.P99, res.Latency.P50)
	}
	// The achieved rate saturates near capacity, well under offered.
	if res.Throughput() >= res.OfferedRate {
		t.Errorf("achieved %.0f req/s cannot exceed offered %.0f under overload", res.Throughput(), res.OfferedRate)
	}
}

func TestOpenLoopValidation(t *testing.T) {
	_, err := Run(Config{Tags: tags(2), OpenLoop: true}, newRecordingTarget(false))
	if err == nil {
		t.Error("open loop without an offered rate must error")
	}
}

// TestReadMixWrites: ReadMix dials the write share, OpReport drives
// real ingest on the direct target, and the write stream exercises
// both accept and reject paths under the vendor rate cap.
func TestReadMixWrites(t *testing.T) {
	m := ReadMix(60)
	if m.Report != 40 || m.total() != 100 {
		t.Fatalf("ReadMix(60) = %+v", m)
	}
	if ReadMix(90).Report != 10 {
		t.Fatalf("ReadMix(90) = %+v", ReadMix(90))
	}
	services := fixtureServices()
	target := NewServiceTarget(services)
	accBefore, _ := services[trace.VendorApple].Stats()
	res, err := Run(Config{Workers: 2, Requests: 500, Seed: 11,
		Tags: []string{"airtag-1", "smarttag-1", "tag-x"}, Mix: ReadMix(60)}, target)
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Errorf("mixed run errors = %d", res.Errors)
	}
	if res.PerOp[OpReport] == 0 {
		t.Error("a 40%% write mix issued no writes")
	}
	accAfter, rejAfter := services[trace.VendorApple].Stats()
	if accAfter <= accBefore {
		t.Error("writes did not reach the apple store")
	}
	if rejAfter == 0 {
		t.Error("the rate cap rejected nothing — write stream too sparse to exercise rejects")
	}
}

// combinedCount is the oracle for the targets' per-request payload
// counts: cloud.Combined called directly over the services in sorted
// vendor order, the same oracle the cloud cache tests use. known is
// false for a tag no service has seen.
func combinedCount(services map[trace.Vendor]*cloud.Service, op Op, tagID string) (n int, known bool) {
	var svcs []*cloud.Service
	for _, svc := range services {
		svcs = append(svcs, svc)
		known = known || svc.Known(tagID)
	}
	sort.Slice(svcs, func(i, j int) bool { return svcs[i].Vendor() < svcs[j].Vendor() })
	c := cloud.Combined(svcs)
	switch {
	case !known:
		return 0, false
	case op == OpLastKnown:
		if _, _, ok := c.LastSeen(tagID); ok {
			return 1, true
		}
		return 0, true
	case op == OpHistory:
		return len(c.MergedHistoryTail(tagID, HistoryCap)), true
	case op == OpTrack:
		return len(c.MergedHistory(tagID)), true
	}
	return 0, true
}

// TestCachedServiceTarget: the direct target, which reads through the
// hot-tag cache, answers like Combined over the same stores, including
// after a write invalidates the hot entry.
func TestCachedServiceTarget(t *testing.T) {
	services := fixtureServices()
	cached := NewServiceTarget(services)
	for _, op := range []Op{OpLastKnown, OpHistory, OpTrack} {
		want, _ := combinedCount(services, op, "airtag-1")
		got, err := cached.Do(op, "airtag-1")
		if err != nil || got != want {
			t.Errorf("%v: cached = (%d, %v), Combined = %d", op, got, err, want)
		}
		if _, err := cached.Do(op, "ghost"); err == nil {
			t.Errorf("%v: cached target accepted unknown tag", op)
		}
	}
	// A write through the same target must invalidate the cached track.
	before, _ := cached.Do(OpTrack, "airtag-1")
	if n, _ := cached.Do(OpReport, "airtag-1"); n != 1 {
		t.Fatal("fresh write against the stale fixture should be accepted")
	}
	after, _ := cached.Do(OpTrack, "airtag-1")
	if want, _ := combinedCount(services, OpTrack, "airtag-1"); after != before+1 || after != want {
		t.Errorf("track after invalidating write = %d reports, want %d (Combined %d)", after, before+1, want)
	}
	res, err := Run(Config{Workers: 4, Requests: 400, Seed: 3,
		Tags: []string{"airtag-1", "smarttag-1", "tag-x"}, Mix: ReadMix(90)}, cached)
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Errorf("cached target errors = %d", res.Errors)
	}
}

// TestLatencyHistogram: a Config.Latency histogram observes exactly one
// sample per issued request, and its quantiles are well-formed.
func TestLatencyHistogram(t *testing.T) {
	h := &obs.Histogram{}
	cfg := Config{Workers: 4, Requests: 500, Seed: 11, Tags: tags(10), Latency: h}
	res, err := Run(cfg, newRecordingTarget(false))
	if err != nil {
		t.Fatal(err)
	}
	snap := h.Snapshot()
	if snap.Count != uint64(res.Requests) {
		t.Fatalf("histogram saw %d samples, load issued %d requests", snap.Count, res.Requests)
	}
	p50, p99 := snap.Quantile(50), snap.Quantile(99)
	if p50 < 0 || p99 < p50 {
		t.Fatalf("malformed quantiles: p50=%v p99=%v", p50, p99)
	}
}
