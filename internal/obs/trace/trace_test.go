package trace

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tagsim/internal/obs"
)

// TestSpanNesting pins the span-tree contract: Start pushes the open
// cursor, Finish pops it, Events hang off the innermost open span, and
// offsets are measured from the root's base instant.
func TestSpanNesting(t *testing.T) {
	tr := Get()
	defer Put(tr)
	t0 := time.Now()
	tr.Root(PlaneServe, "history", t0)

	tr.Event(PlaneCache, "cache.miss", 7, 1)
	fill := tr.Start(PlaneCache, "cache.fill.history", 25, 0)
	mem := tr.Start(PlaneStore, "store.memtable", 3, 9)
	tr.Finish(mem)
	pread := tr.Start(PlaneStore, "store.pread", 0, 0)
	tr.SetAttrs(pread, 4096, 2)
	tr.Finish(pread)
	tr.Finish(fill)
	tr.Event(PlaneCache, "cache.hit", 7, 0)

	want := []struct {
		op     string
		parent int16
		timed  bool
	}{
		{"history", -1, true},
		{"cache.miss", 0, false},
		{"cache.fill.history", 0, true},
		{"store.memtable", 2, true},
		{"store.pread", 2, true},
		{"cache.hit", 0, false},
	}
	if int(tr.n) != len(want) {
		t.Fatalf("got %d spans, want %d", tr.n, len(want))
	}
	for i, w := range want {
		s := tr.spans[i]
		if s.Op != w.op || s.Parent != w.parent {
			t.Errorf("span %d = %q parent %d, want %q parent %d", i, s.Op, s.Parent, w.op, w.parent)
		}
		if w.timed != (s.Start >= 0) && i > 0 {
			t.Errorf("span %d (%s): timed=%v, want %v", i, s.Op, s.Start >= 0, w.timed)
		}
	}
	if tr.spans[4].A1 != 4096 || tr.spans[4].A2 != 2 {
		t.Errorf("SetAttrs: got a1=%d a2=%d, want 4096, 2", tr.spans[4].A1, tr.spans[4].A2)
	}
	if s := tr.spans[3]; s.End < s.Start {
		t.Errorf("store.memtable finished before it started: [%d, %d]", s.Start, s.End)
	}
	// After the fill finished, the cursor must be back at the root —
	// that's what parents the trailing cache.hit event at 0.
	if tr.cur != 0 {
		t.Errorf("open-span cursor = %d after all children finished, want 0 (root)", tr.cur)
	}
}

// TestDisabledZeroAlloc mirrors obs's TestSetEnabledGatesUpdates for
// the tracer: with tracing off, the full instrumentation pattern —
// Begin, events, timed spans, FinishRoot, End — must not allocate.
func TestDisabledZeroAlloc(t *testing.T) {
	was := SetTracing(false)
	defer SetTracing(was)
	th := NewThreshold(nil, 0)
	allocs := testing.AllocsPerRun(1000, func() {
		tr := Begin(PlaneTier, "tier.flush")
		tr.Event(PlaneCache, "cache.hit", 1, 0)
		sp := tr.Start(PlaneStore, "store.pread", 0, 0)
		tr.SetAttrs(sp, 2, 3)
		tr.Finish(sp)
		tr.FinishRoot(time.Millisecond, th)
		tr.End(th)
	})
	if allocs != 0 {
		t.Fatalf("disabled tracing allocated %.1f times per op, want 0", allocs)
	}
}

// TestCaptureThreshold exercises the two-layer capture decision: the
// floor, then the bound histogram's live p99.
func TestCaptureThreshold(t *testing.T) {
	hist := &obs.Histogram{}
	th := NewThreshold(hist, -1)

	// Dynamic mode with a cold histogram: the floor is the bar.
	if th.Exceeded(DefaultCaptureFloor - 1) {
		t.Error("sub-floor duration captured with a cold histogram")
	}
	if !th.Exceeded(DefaultCaptureFloor) {
		t.Error("at-floor duration not captured with a cold histogram")
	}

	// Feed the histogram a slow population: the p99 takes over.
	for i := 0; i < 1000; i++ {
		hist.Observe(10 * time.Millisecond)
	}
	th2 := NewThreshold(hist, -1)
	if th2.Exceeded(time.Millisecond) {
		t.Error("1ms captured against a 10ms p99")
	}
	if !th2.Exceeded(50 * time.Millisecond) {
		t.Error("50ms not captured against a 10ms p99")
	}

	// A zero floor with no histogram captures everything; an
	// unreachable floor captures nothing, whatever the histogram says.
	if !NewThreshold(nil, 0).Exceeded(0) {
		t.Error("zero-floor threshold did not capture a zero-length root")
	}
	if NewThreshold(hist, time.Hour).Exceeded(50 * time.Millisecond) {
		t.Error("an hour floor captured a 50ms root")
	}
}

// TestCaptureToRing drives the full capture path: a root finished over
// a zero-floor threshold lands on DefaultRing with its spans
// copied, its ID assigned, and an exemplar linked from the histogram
// bucket its duration landed in.
func TestCaptureToRing(t *testing.T) {
	hist := &obs.Histogram{}
	th := NewThreshold(hist, 0)

	tr := Get()
	defer Put(tr)
	tr.Root(PlaneServe, "lastknown", time.Now())
	tr.Event(PlaneCache, "cache.miss", 42, 0)
	id, captured := tr.FinishRoot(3*time.Millisecond, th)
	if !captured || id == 0 {
		t.Fatalf("FinishRoot = (%d, %v), want captured with nonzero ID", id, captured)
	}
	var got *Captured
	for _, c := range DefaultRing.Snapshot(0) {
		if c.ID == id {
			got = c
			break
		}
	}
	if got == nil {
		t.Fatalf("capture %d not found on DefaultRing", id)
	}
	if len(got.Spans) != 2 || got.Spans[1].Op != "cache.miss" || got.Spans[1].A1 != 42 {
		t.Fatalf("captured spans = %+v, want root + cache.miss[a1=42]", got.Spans)
	}
	if got.Duration() != 3*time.Millisecond {
		t.Errorf("captured duration = %v, want 3ms", got.Duration())
	}
	snap := hist.Snapshot()
	if snap.Exemplars == nil {
		t.Fatal("no exemplars recorded on the threshold histogram")
	}
	found := false
	for _, ex := range snap.Exemplars {
		if ex.ID == id {
			found = true
		}
	}
	if !found {
		t.Errorf("exemplar for capture %d not present in histogram snapshot", id)
	}
}

// TestRingConcurrent hammers a private ring from concurrent writers
// while readers snapshot it, under -race: no torn captures (every
// entry's attribute is a pure function of its ID), snapshots ordered
// newest-first, and memory bounded at the ring's capacity.
func TestRingConcurrent(t *testing.T) {
	r := NewRing(64)
	const writers, perWriter = 8, 500
	var next atomic.Uint64
	var wg sync.WaitGroup
	stop := make(chan struct{})

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				id := next.Add(1)
				r.put(&Captured{
					ID:    id,
					Spans: []Span{{Op: "w", Plane: PlaneServe, Start: 0, End: int64(id), A1: int64(3 * id)}},
				})
			}
		}()
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := r.Snapshot(0)
				if len(snap) > r.Cap() {
					t.Errorf("snapshot holds %d traces, ring capacity %d", len(snap), r.Cap())
					return
				}
				for i, c := range snap {
					if c.Spans[0].A1 != int64(3*c.ID) || c.Spans[0].End != int64(c.ID) {
						t.Errorf("torn capture: ID %d carries A1=%d End=%d", c.ID, c.Spans[0].A1, c.Spans[0].End)
						return
					}
					if i > 0 && snap[i-1].ID <= c.ID {
						t.Errorf("snapshot not newest-first: %d then %d", snap[i-1].ID, c.ID)
						return
					}
				}
			}
		}()
	}
	// Writers finish, then readers are released; one final snapshot
	// must hold exactly the newest Cap captures.
	done := make(chan struct{})
	go func() { defer close(done); wg.Wait() }()
	time.Sleep(10 * time.Millisecond)
	close(stop)
	<-done

	snap := r.Snapshot(0)
	if len(snap) != r.Cap() {
		t.Fatalf("final snapshot holds %d traces, want full ring of %d", len(snap), r.Cap())
	}
	total := uint64(writers * perWriter)
	for _, c := range snap {
		if c.ID <= total-uint64(r.Cap()) {
			t.Errorf("final ring retains stale capture %d (total %d, cap %d)", c.ID, total, r.Cap())
		}
	}
	if r.Captures() != total {
		t.Errorf("Captures() = %d, want %d", r.Captures(), total)
	}
}

// TestOverflowDrops pins the bounded-memory contract: spans past
// MaxSpans are counted, not recorded, and the capture reports them.
func TestOverflowDrops(t *testing.T) {
	tr := Get()
	defer Put(tr)
	tr.Root(PlaneStore, "store.memtable", time.Now())
	for i := 0; i < MaxSpans+10; i++ {
		tr.Event(PlaneStore, "store.decode", int64(i), 0)
	}
	if sp := tr.Start(PlaneStore, "store.pread", 0, 0); sp != -1 {
		t.Errorf("Start on a full trace returned %d, want -1", sp)
	}
	id, captured := tr.FinishRoot(time.Second, NewThreshold(nil, 0))
	if !captured {
		t.Fatal("overflowed trace not captured")
	}
	var got *Captured
	for _, c := range DefaultRing.Snapshot(0) {
		if c.ID == id {
			got = c
		}
	}
	if got == nil {
		t.Fatal("capture not found on ring")
	}
	if len(got.Spans) != MaxSpans {
		t.Errorf("captured %d spans, want the MaxSpans=%d cap", len(got.Spans), MaxSpans)
	}
	// 10 events past capacity plus the rejected Start.
	if got.Dropped != 12 {
		t.Errorf("Dropped = %d, want 12", got.Dropped)
	}
	if !strings.Contains(got.Flame(), "spans dropped") {
		t.Error("flame rendering does not report dropped spans")
	}
}

// TestRenderings sanity-checks the two presentation formats against
// one hand-built capture.
func TestRenderings(t *testing.T) {
	c := &Captured{
		ID:   0x2a,
		Wall: time.Now(),
		Spans: []Span{
			{Op: "history", Plane: PlaneServe, Start: 0, End: int64(2 * time.Millisecond), Parent: -1},
			{Op: "cache.miss", Plane: PlaneCache, Start: -1, End: -1, Parent: 0, A1: 9},
			{Op: "cache.fill.history", Plane: PlaneCache, Start: 1000, End: int64(time.Millisecond), Parent: 0},
			{Op: "store.pread", Plane: PlaneStore, Start: 2000, End: 500000, Parent: 2, A1: 4096},
		},
	}
	j := c.JSON()
	if j.ID != "000000000000002a" || j.Plane != "serve" || j.Op != "history" {
		t.Errorf("JSON header = %q %s.%s", j.ID, j.Plane, j.Op)
	}
	if j.DurationNs != int64(2*time.Millisecond) || len(j.Spans) != 4 {
		t.Errorf("JSON duration=%d spans=%d", j.DurationNs, len(j.Spans))
	}
	if j.Spans[3].Parent != 2 || j.Spans[1].StartNs != -1 {
		t.Errorf("JSON span shape wrong: %+v", j.Spans)
	}
	f := c.Flame()
	for _, want := range []string{
		"trace 000000000000002a 2.00ms serve.history",
		"cache.miss",
		"store.pread",
		"[a1=4096 a2=0]",
	} {
		if !strings.Contains(f, want) {
			t.Errorf("flame rendering missing %q:\n%s", want, f)
		}
	}
	// store.pread (child of the fill) renders one level deeper than
	// its parent.
	lines := strings.Split(f, "\n")
	fillIndent := len(lines[2]) - len(strings.TrimLeft(lines[2], " "))
	preadIndent := len(lines[3]) - len(strings.TrimLeft(lines[3], " "))
	if preadIndent <= fillIndent {
		t.Errorf("store.pread not nested under cache.fill.history:\n%s", f)
	}
}

// TestContext pins the context plumbing the serve handlers rely on.
func TestContext(t *testing.T) {
	tr := Get()
	defer Put(tr)
	ctx := NewContext(t.Context(), tr)
	if got := FromContext(ctx); got != tr {
		t.Errorf("FromContext = %p, want %p", got, tr)
	}
	if got := FromContext(t.Context()); got != nil {
		t.Errorf("FromContext on a bare context = %p, want nil", got)
	}
}
