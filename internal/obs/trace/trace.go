// Package trace is the request-scoped tracing layer of the
// observability plane: spans across serve → cache → store → tier with
// a slow-op capture ring, answering the question /metrics cannot —
// *which* request stalled, and in which layer.
//
// Design constraints, in the house style of internal/obs:
//
//   - Always-on-capable. Disabled (SetTracing(false)), every call site
//     compiles down to one atomic flag load and a branch: Begin returns
//     nil and every Trace method is nil-receiver safe, so the
//     instrumented planes never re-check the flag.
//   - Allocation-disciplined. A Trace is a fixed-capacity span array
//     drawn from a sync.Pool (the serve wrapper) or held per worker
//     (the load harness); recording a span is a handful of stores into
//     that array, and nothing escapes to the heap until a trace is
//     actually captured.
//   - Clock-frugal. time.Now costs ~80 ns on the CI runner against a
//     ~30 ns budget on the ~600 ns cached read, so the root span reuses
//     the timestamps the request path already pays for its latency
//     histogram (Root takes t0; FinishRoot takes the measured elapsed),
//     and fast operations record untimed Events (Start/End = -1).
//     Only intrinsically slow work — cache fills, disk merges, segment
//     preads, fsync batches, flushes, compactions — opens timed spans,
//     each costing one monotonic time.Since per edge.
//
// Completed traces whose root duration exceeds a per-plane threshold
// (by default the live p99 of the histogram the threshold is bound to,
// floored so a cold histogram doesn't capture everything) are copied
// into the lock-free power-of-two DefaultRing and, when the threshold
// carries a histogram, linked from that histogram's bucket as an
// exemplar — so a /metrics tail bucket points at a concrete captured
// trace on /debug/traces.
package trace

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"tagsim/internal/obs"
)

// disabled gates every tracing call. Default off: tracing is always
// on, and SetTracing(false) is the runtime kill switch mirroring
// obs.SetEnabled (BENCH_trace.json records both sides on the cached
// read path).
var disabled atomic.Bool

// SetTracing toggles span collection (default on). Disabled, Begin
// returns nil and every span call is one atomic load and a branch;
// already-captured traces stay readable on the ring. It returns the
// previous setting.
func SetTracing(on bool) (was bool) { return !disabled.Swap(!on) }

// Enabled reports whether tracing is active.
func Enabled() bool { return !disabled.Load() }

// Plane tags a span with the layer that recorded it.
type Plane uint8

const (
	PlaneServe Plane = iota
	PlaneCache
	PlaneStore
	PlaneTier
	PlanePipeline
	numPlanes
)

var planeNames = [numPlanes]string{"serve", "cache", "store", "tier", "pipeline"}

func (p Plane) String() string {
	if int(p) < len(planeNames) {
		return planeNames[p]
	}
	return "unknown"
}

// MaxSpans is a Trace's fixed span capacity. Spans past it are counted
// (Captured.Dropped) rather than recorded, so a pathological request —
// a history read decoding dozens of frames — truncates instead of
// allocating.
const MaxSpans = 48

// Span is one operation within a trace: a plane tag, an op name, two
// int64 attributes (tag hash, rows decoded, queue lag — whatever the
// recording plane finds useful), and start/end offsets in nanoseconds
// from the trace's base instant. Untimed event spans — operations too
// cheap to bill two clock reads to — carry -1 for both offsets.
type Span struct {
	Op     string
	Start  int64 // ns since the trace base; -1 for untimed events
	End    int64 // ns since the trace base; -1 until finished / untimed
	A1, A2 int64
	Parent int16 // index of the enclosing span; -1 at the root
	Plane  Plane
}

// Trace is a reusable fixed-capacity span buffer for one request (or
// one self-rooted background operation). It is single-goroutine: the
// request path threads it by pointer, and only a capture copies it
// out. The zero value is ready for Root.
type Trace struct {
	base    time.Time // root start; carries the wall clock for display
	id      uint64    // assigned lazily (EnsureID); 0 = unassigned
	n       int16
	cur     int16 // innermost open span, parent of the next one
	dropped int32
	spans   [MaxSpans]Span
}

var pool = sync.Pool{New: func() any { return new(Trace) }}

// Get draws a Trace from the pool. Callers pair it with Put; Root
// resets all state, so a pooled trace needs no clearing in between.
func Get() *Trace { return pool.Get().(*Trace) }

// Put returns a trace to the pool. Nil-safe.
func Put(t *Trace) {
	if t != nil {
		pool.Put(t)
	}
}

// Begin opens a self-rooted trace (pool draw + one time.Now), or nil
// when tracing is disabled. The background tier ops — flushes,
// compactions, fsync batches — use it; request planes that already
// hold a timestamp use Get + Root instead.
func Begin(p Plane, op string) *Trace {
	if disabled.Load() {
		return nil
	}
	t := Get()
	t.Root(p, op, time.Now())
	return t
}

// Root resets the trace and opens its root span. t0 is the root's
// start instant — the timestamp the caller already read for its
// latency histogram — so opening a root costs no clock access here.
func (t *Trace) Root(p Plane, op string, t0 time.Time) {
	if t == nil {
		return
	}
	t.base = t0
	t.id = 0
	t.n = 1
	t.cur = 0
	t.dropped = 0
	s := &t.spans[0]
	if s.Op != op { // skip the write barrier when the slot already names it
		s.Op = op
	}
	s.Plane = p
	s.Start, s.End = 0, -1
	s.A1, s.A2 = 0, 0
	s.Parent = -1
}

// Event records an untimed span under the currently open span: a
// handful of stores, no clock access. Nil-safe.
func (t *Trace) Event(p Plane, op string, a1, a2 int64) {
	if t == nil {
		return
	}
	if t.n >= MaxSpans {
		t.dropped++
		return
	}
	s := &t.spans[t.n]
	if s.Op != op { // a slot usually replays the same op request after request
		s.Op = op
	}
	s.Plane = p
	s.Start, s.End = -1, -1
	s.Parent = t.cur
	s.A1, s.A2 = a1, a2
	t.n++
}

// Start opens a timed child span (one monotonic clock read) and makes
// it the parent of subsequent spans. It returns the span's index for
// Finish/SetAttrs; -1 when the trace is nil or full.
func (t *Trace) Start(p Plane, op string, a1, a2 int64) int16 {
	if t == nil {
		return -1
	}
	if t.n >= MaxSpans {
		t.dropped++
		return -1
	}
	i := t.n
	t.spans[i] = Span{Op: op, Plane: p, Start: int64(time.Since(t.base)), End: -1, Parent: t.cur, A1: a1, A2: a2}
	t.n++
	t.cur = i
	return i
}

// Finish closes the span Start returned (one clock read) and pops the
// open-span cursor back to its parent. Finish(-1) is a no-op, so the
// Start/Finish pair needs no full-trace check at the call site.
func (t *Trace) Finish(i int16) {
	if t == nil || i <= 0 || int(i) >= int(t.n) {
		return
	}
	t.spans[i].End = int64(time.Since(t.base))
	if p := t.spans[i].Parent; p >= 0 {
		t.cur = p
	}
}

// SetAttrs overwrites span i's attributes — for values only known at
// the end of the operation (rows decoded, frames read).
func (t *Trace) SetAttrs(i int16, a1, a2 int64) {
	if t == nil || i < 0 || int(i) >= int(t.n) {
		return
	}
	t.spans[i].A1, t.spans[i].A2 = a1, a2
}

// lastID hands out capture IDs; 0 stays "unassigned".
var lastID atomic.Uint64

// EnsureID assigns (once) and returns the trace's ID. The serve plane
// calls it at response-header time so X-Tag-Trace and the later ring
// capture agree; everyone else gets an ID implicitly at capture.
func (t *Trace) EnsureID() uint64 {
	if t == nil {
		return 0
	}
	if t.id == 0 {
		t.id = lastID.Add(1)
	}
	return t.id
}

// FormatID renders a trace ID the way every surface shows it — the
// X-Tag-Trace header, /debug/traces, flame lines, and histogram
// exemplars.
func FormatID(id uint64) string { return fmt.Sprintf("%016x", id) }

// FinishRoot closes the root span with the externally measured elapsed
// time (again: no clock read here — the caller's latency measurement
// is reused) and, when elapsed exceeds the threshold, copies the trace
// into DefaultRing and links it as an exemplar from the threshold's
// histogram. The trace itself stays owned by the caller for reuse.
func (t *Trace) FinishRoot(elapsed time.Duration, th *Threshold) (id uint64, captured bool) {
	if t == nil || t.n == 0 {
		return 0, false
	}
	ns := int64(elapsed)
	if ns < 0 {
		ns = 0
	}
	t.spans[0].End = ns
	if th == nil || !th.exceeded(ns) {
		return t.id, false
	}
	id = t.EnsureID()
	DefaultRing.put(t.capture())
	if th.hist != nil {
		th.hist.SetExemplar(elapsed, id)
	}
	return id, true
}

// End closes a self-rooted trace (one clock read for the elapsed time)
// and returns it to the pool — the one-liner the background tier ops
// defer. Nil-safe.
func (t *Trace) End(th *Threshold) (id uint64, captured bool) {
	if t == nil {
		return 0, false
	}
	id, captured = t.FinishRoot(time.Since(t.base), th)
	Put(t)
	return id, captured
}

// capture copies the trace's current spans to an immutable Captured
// for the ring. This is the only tracer path that allocates.
func (t *Trace) capture() *Captured {
	return &Captured{
		ID:      t.id,
		Wall:    t.base,
		Dropped: int(t.dropped),
		Spans:   append([]Span(nil), t.spans[:t.n]...),
	}
}

// DefaultCaptureFloor is the minimum root duration a dynamic (p99)
// threshold will capture. Without it a cold histogram's p99 is ~0 and
// every sub-microsecond cached read would be copied to the ring; with
// it, steady-state capture is "slower than p99 AND slower than the
// floor" — tail anatomy, not bulk traffic.
const DefaultCaptureFloor = 100 * time.Microsecond

// Threshold decides which finished traces are worth capturing. Bound
// to a histogram, the bar is that histogram's live p99 (floored);
// unbound, it is just the floor. The p99 is cached in one atomic and
// only recomputed when a candidate actually clears the cache — so the
// fast path of a sub-threshold request is one load and a compare, and
// recomputation is self-throttling (at most once per capture-worthy
// request).
type Threshold struct {
	hist   *obs.Histogram
	floor  int64
	cached atomic.Int64
}

// NewThreshold builds a threshold. hist may be nil (fixed floor only):
// NewThreshold(nil, 0) captures every trace. floor < 0 means
// DefaultCaptureFloor; the background tier ops pass 0 to capture against
// their own p99 from the start.
func NewThreshold(hist *obs.Histogram, floor time.Duration) *Threshold {
	f := int64(floor)
	if floor < 0 {
		f = int64(DefaultCaptureFloor)
	}
	return &Threshold{hist: hist, floor: f}
}

// Exceeded reports whether a root of duration d would be captured —
// the serve plane's header-time check: X-Tag-Trace is decided when the
// response headers flush, with the elapsed time measured so far.
func (th *Threshold) Exceeded(d time.Duration) bool {
	if th == nil {
		return false
	}
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	return th.exceeded(ns)
}

func (th *Threshold) exceeded(ns int64) bool {
	if ns < th.floor {
		return false
	}
	if c := th.cached.Load(); ns < c {
		return false
	}
	bar := th.floor
	if th.hist != nil {
		if p99 := int64(th.hist.Quantile(99)); p99 > bar {
			bar = p99
		}
	}
	th.cached.Store(bar)
	return ns >= bar
}

// ctxKey carries the request's trace through handler contexts.
type ctxKey struct{}

// NewContext returns ctx with the trace attached.
func NewContext(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, ctxKey{}, t)
}

// FromContext returns the trace attached to ctx, or nil.
func FromContext(ctx context.Context) *Trace {
	t, _ := ctx.Value(ctxKey{}).(*Trace)
	return t
}
