package trace

import (
	"testing"
	"time"
)

// BenchmarkRequestPathOps times exactly what an always-on traced
// cached read adds over an untraced one: Root (reset + root span
// write), one cache-hit Event, and FinishRoot's threshold check. The
// serving-path macro gate (BenchmarkTraceOverhead at the repo root)
// rides a fixture whose run-to-run noise on a shared box exceeds the
// tracer's cost; this microbenchmark is the stable bound —
// ~19 ns against the ~650 ns cached read it piggybacks on.
func BenchmarkRequestPathOps(b *testing.B) {
	was := SetTracing(true)
	defer SetTracing(was)
	th := NewThreshold(nil, -1)
	tr := Get()
	defer Put(tr)
	t0 := time.Now()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Root(PlaneServe, "lastknown", t0)
		tr.Event(PlaneCache, "cache.hit", int64(i&1023), 0)
		tr.FinishRoot(700, th)
	}
}

// BenchmarkGetPut times the per-worker pool round-trip — paid once per
// load-harness worker or pooled recorder, not per request.
func BenchmarkGetPut(b *testing.B) {
	was := SetTracing(true)
	defer SetTracing(was)
	for i := 0; i < b.N; i++ {
		Put(Get())
	}
}
