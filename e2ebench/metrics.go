package main

import (
	"slices"
	"time"
)

// metricDef is one metric of the benchmark. BENCHMARK.json at the
// repository root lists the same names, units and directions; the smoke
// test keeps the two in step.
type metricDef struct {
	name, unit, better string
	// bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	bound float64
	// workloads are the workloads whose layers a per-layer row measures;
	// on the others it reads 0. README.md maps each row to the
	// end-to-end metric it should move.
	workloads []string
}

func (d metricDef) in(workload string) bool {
	return d.workloads == nil || slices.Contains(d.workloads, workload)
}

// endToEnd are the metrics a user sees, measured with per-layer timing
// off. On repro one operation is one ReproduceAll, on the serve
// workloads one HTTP request. Times are the process's CPU time: on a
// shared host the wall-clock follows the other tenants (see README.md).
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.2},
	{name: "cpu_ms_per_op", unit: "ms", better: "lower", bound: 0.25},
}

var (
	onRepro = []string{"repro"}
	onServe = []string{"serve_cold"}
)

// reproCalls are the public calls ReproduceAll makes, in its order; the
// traced repro run times each one (see reproSequence).
var reproCalls = []string{
	"Figure2", "Figure3", "Figure4", "Battery", "NewCampaign", "Table1",
	"Figure5Sweep10", "Figure5Sweep25", "Figure5Sweep100",
	"Figure5d", "Figure5e", "Figure5f", "Figure6", "Figure7", "Figure8", "Headline",
}

// serveOps are the client operations, indexed by load.Op.
var serveOps = [...]string{"lastknown", "history", "track", "stats", "report"}

// perLayer is the ledger a traced run emits.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var defs []metricDef
	add := func(name, unit, better string, on []string) {
		defs = append(defs, metricDef{name: name, unit: unit, better: better, workloads: on})
	}
	// repro: one row per public call at Workers=1, so the rows add up
	// to the traced run's wall-clock.
	for _, c := range reproCalls {
		add("experiments."+c+"_s", "s", "lower", onRepro)
	}
	add("experiments.wall_s", "s", "lower", onRepro)
	add("repro.wall_s", "s", "lower", onRepro)
	add("experiments.unattributed_s", "s", "lower", onRepro)
	add("pipeline.accumulate_busy_s", "s", "lower", onRepro)
	add("pipeline.batches", "count", "lower", onRepro)
	add("pipeline.records", "count", "lower", onRepro)
	for _, c := range []string{"ticks", "heard", "reported", "delivered", "grid_overflow"} {
		add("encounter."+c, "count", "lower", onRepro)
	}
	add("encounter.report_ratio", "ratio", "lower", onRepro)
	add("go.alloc_mb", "MB", "lower", onRepro)
	// Both kinds of workload.
	add("go.gc_cycles", "count", "lower", nil)
	add("bench.overhead_share", "ratio", "lower", nil)
	// serve_*: the open-loop phase at the pinned rate.
	add("load.attempted", "count", "higher", onServe)
	add("load.p50_ms", "ms", "lower", onServe)
	add("load.p99_ms", "ms", "lower", onServe)
	add("load.late_p50_ms", "ms", "lower", onServe)
	add("load.late_p99_ms", "ms", "lower", onServe)
	add("load.late_share", "ratio", "lower", onServe)
	for _, op := range serveOps {
		add(op+".requests", "count", "higher", onServe)
		add(op+".p50_ms", "ms", "lower", onServe)
		add(op+".p99_ms", "ms", "lower", onServe)
	}
	add("serve.busy_s", "s", "lower", onServe)
	for _, op := range serveOps {
		add("serve."+op+"_mean_ms", "ms", "lower", onServe)
	}
	add("transport.share", "ratio", "lower", onServe)
	add("cloud.cache_hit_ratio", "ratio", "higher", onServe)
	add("cloud.cache_fills", "count", "lower", onServe)
	add("cloud.cache_invalidations", "count", "lower", onServe)
	add("go.alloc_kb_per_req", "KB", "lower", onServe)
	add("store.accepted", "count", "higher", onServe)
	add("store.rejected", "count", "lower", onServe)
	for _, s := range []struct{ name, unit string }{
		{"wal_records", "count"}, {"wal_fsyncs", "count"}, {"wal_fsync_s", "s"},
		{"flushes", "count"}, {"flush_s", "s"}, {"compactions", "count"},
		{"compaction_s", "s"}, {"compacted_mb", "MB"}, {"segments", "count"},
		{"segment_mb", "MB"}, {"read_errors", "count"},
	} {
		add("store."+s.name, s.unit, "lower", onServe)
	}
	add("setup.ingest_s", "s", "lower", onServe)
	add("setup.quiesce_s", "s", "lower", onServe)
	add("setup.segments", "count", "lower", onServe)
	// serve_*: the closed-loop capacity phase.
	add("capacity.attempted", "count", "higher", onServe)
	add("capacity.rps", "1/s", "higher", onServe)
	for _, op := range serveOps {
		add("capacity."+op+".requests", "count", "higher", onServe)
	}
	add("capacity.serve.busy_s", "s", "lower", onServe)
	add("capacity.transport.share", "ratio", "lower", onServe)
	add("capacity.cloud.cache_hit_ratio", "ratio", "higher", onServe)
	add("capacity.go.alloc_kb_per_req", "KB", "lower", onServe)
	add("capacity.store.flushes", "count", "lower", onServe)
	add("capacity.store.compactions", "count", "lower", onServe)
	return defs
}

// cpuPerOp runs work, which returns how many operations it made, and
// returns the process's CPU time in ms per operation. The driver and the
// server share the process, so on a serve workload it covers both ends
// of each request.
func cpuPerOp(work func() int) float64 {
	c := processCPU()
	n := work()
	return ratio(ms(processCPU()-c), float64(n))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
