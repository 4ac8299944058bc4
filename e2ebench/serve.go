package main

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"tagsim/internal/cloud"
	"tagsim/internal/load"
	"tagsim/internal/serve"
	"tagsim/internal/stats"
	"tagsim/internal/store"
	"tagsim/internal/trace"
)

// serveShape pins one serve workload: the universe behind the API, the
// stores it lives in, and the traffic driven at it.
type serveShape struct {
	Tags, MinReports, MaxReports int
	Shards                       int
	// Persistent puts each vendor in a tiered store (WAL, memtable,
	// segments) under .bench_build; otherwise the stores are in memory.
	Persistent    bool
	MemtableBytes int64
	WALSyncBytes  int64
	Mix           load.Mix
	// ZipfS is the tag-popularity exponent; 0 means uniform popularity.
	ZipfS float64
	// Rate is the open-loop arrival rate in requests/s. serve_cold's is
	// about a quarter of its closed-loop capacity on a 2-vCPU host. An
	// open loop makes the same requests however fast the host runs, so a
	// fast host does not write, flush and compact more in a run.
	Rate float64
}

var serveCold = serveShape{
	Tags: 8192, MinReports: 32, MaxReports: 64, Shards: 256,
	Persistent: true, MemtableBytes: 64 << 10, WALSyncBytes: 16 << 10,
	Mix:  load.Mix{LastKnown: 35, History: 25, Track: 15, Report: 25},
	Rate: 1300,
}

// setups is how many times a trace-0 run sets up; setup_s is the
// median. serve_cold serves from the last set-up; repro repeats
// its warm-up reproduction.
const setups = 5

// warmUp is the unmeasured open-loop traffic after set-up that fills
// the cache, opens the connections and settles the GC. serve_cold's
// first seconds after set-up run measurably slower than the rest.
const warmUp = 5 * time.Second

// openShare is the share of --seconds a traced run's open-loop phase
// takes; its closed-loop capacity phase takes the rest. Latency needs
// the longer share: its p99 rests on the slowest 1% of the requests.
const openShare = 0.75

// vendors are the two ecosystems every serve workload runs.
var vendors = []trace.Vendor{trace.VendorApple, trace.VendorSamsung}

// stack is one set-up of a serve workload: stores holding the
// universe, the query server on a loopback listener and the client.
type stack struct {
	u        *universe
	services map[trace.Vendor]*cloud.Service
	dir      string
	srv      *http.Server
	served   chan error
	base     string
	client   *http.Client

	ingest, quiesce time.Duration
	segments        int
}

// benchDir holds every file the benchmark writes, relative to the
// checkout it runs in.
const benchDir = ".bench_build"

func setUp(sh serveShape, seed int64, res *result) (st *stack, err error) {
	st = &stack{u: newUniverse(seed, sh.Tags, sh.MinReports, sh.MaxReports), services: map[trace.Vendor]*cloud.Service{}}
	defer func() {
		if err != nil {
			st.tearDown()
			st = nil
		}
	}()
	if sh.Persistent {
		if err := os.MkdirAll(benchDir, 0o755); err != nil {
			return st, err
		}
		if st.dir, err = os.MkdirTemp(benchDir, "stores-"); err != nil {
			return st, err
		}
	}
	// A persistent workload bulk-loads into stores whose memtable holds
	// the whole universe, flushes it to segments and reopens the stores
	// under the serving configuration: a service restarted over its
	// history, which then sits on disk.
	t := time.Now()
	if err := st.open(sh, 1<<40, 0); err != nil {
		return st, err
	}
	total, accepted := st.u.ingestAll(func(r trace.Report) bool { return st.services[r.Vendor].Ingest(r) })
	res.attempted += total
	res.fail(total-accepted, "set-up: %d of %d synthesized reports rejected", total-accepted, total)
	if sh.Persistent {
		if err := st.reopen(sh); err != nil {
			return st, err
		}
	}
	st.ingest = time.Since(t)
	if sh.Persistent {
		t = time.Now()
		if err := st.quiesceStores(); err != nil {
			return st, err
		}
		st.quiesce = time.Since(t)
		for _, svc := range st.services {
			st.segments += svc.TierStats().Segments
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return st, err
	}
	st.srv = &http.Server{Handler: serve.NewServer(st.services)}
	st.served = make(chan error, 1)
	go func() { st.served <- st.srv.Serve(ln) }()
	st.base = "http://" + ln.Addr().String()
	n := runtime.NumCPU()
	st.client = &http.Client{
		Transport: &http.Transport{
			MaxConnsPerHost: n, MaxIdleConnsPerHost: n, MaxIdleConns: n,
			DisableCompression: true,
		},
		Timeout: 30 * time.Second,
	}
	return st, nil
}

// open creates the vendor services: in memory, or tiered under st.dir
// with the given memtable and WAL sync sizes (0: the store defaults).
func (st *stack) open(sh serveShape, memtable, walSync int64) error {
	for _, v := range vendors {
		if !sh.Persistent {
			st.services[v] = cloud.NewServiceSharded(v, sh.Shards)
			continue
		}
		svc, err := cloud.NewServicePersistent(v, sh.Shards, store.Tiering{
			Dir:           filepath.Join(st.dir, v.String()),
			MemtableBytes: memtable,
			WALSyncBytes:  walSync,
		})
		if err != nil {
			return err
		}
		st.services[v] = svc
	}
	return nil
}

// reopen flushes and closes the tiered services and opens them again
// under the serving memtable size.
func (st *stack) reopen(sh serveShape) error {
	for _, svc := range st.services {
		if err := svc.Flush(); err != nil {
			return fmt.Errorf("flushing %s: %w", svc.Vendor(), err)
		}
		if err := svc.Close(); err != nil {
			return fmt.Errorf("closing %s: %w", svc.Vendor(), err)
		}
	}
	return st.open(sh, sh.MemtableBytes, sh.WALSyncBytes)
}

// quiesceStores waits until compaction has settled: CompactNow runs the
// remaining merges to quiescence, and the segment counts must then hold
// still across two TierStats reads.
func (st *stack) quiesceStores() error {
	segs := func() (n int) {
		for _, svc := range st.services {
			n += svc.TierStats().Segments
		}
		return n
	}
	for prev := -1; ; {
		for _, svc := range st.services {
			if err := svc.CompactNow(); err != nil {
				return fmt.Errorf("compacting %s: %w", svc.Vendor(), err)
			}
		}
		n := segs()
		if n == prev {
			return nil
		}
		prev = n
		time.Sleep(10 * time.Millisecond)
	}
}

func (st *stack) tearDown() {
	if st.srv != nil {
		_ = st.srv.Close()
		<-st.served
	}
	if st.client != nil {
		st.client.CloseIdleConnections()
	}
	for _, svc := range st.services {
		_ = svc.Close()
	}
	if st.dir != "" {
		_ = os.RemoveAll(st.dir)
	}
}

// storeCounts sums the stores' ingest counters across vendors.
func (st *stack) storeCounts() (accepted, rejected uint64) {
	for _, svc := range st.services {
		a, r := svc.Stats()
		accepted += a
		rejected += r
	}
	return accepted, rejected
}

// checkStores verifies what a phase did to the stores: every write the
// client saw answered accepted (or rejected) is counted so by the
// stores, no segment read failed and no tier error is set.
func (st *stack) checkStores(res *result, name string, a0, r0 uint64, p *phase) {
	a1, r1 := st.storeCounts()
	if d := int(a1-a0) - p.accepted; d != 0 {
		res.fail(abs(d), "%s: stores accepted %d writes, the client saw %d accepted", name, a1-a0, p.accepted)
	}
	if d := int(r1-r0) - p.rejected; d != 0 {
		res.fail(abs(d), "%s: stores rejected %d writes, the client saw %d rejected", name, r1-r0, p.rejected)
	}
	for _, svc := range st.services {
		ts := svc.TierStats()
		res.fail(int(ts.ReadErrors), "%s: %s store read errors", name, svc.Vendor())
		if ts.Err != "" {
			res.fail(1, "%s: %s tier error: %s", name, svc.Vendor(), ts.Err)
		}
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// scrape reads the server's /debug/vars.
func (st *stack) scrape() (vars, error) {
	resp, err := st.client.Get(st.base + "/debug/vars")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/debug/vars: status %d", resp.StatusCode)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return parseVars(b)
}

// runPhase drives one phase and checks the stores around it.
func (st *stack) runPhase(res *result, d *driver, name string, open, traced bool, dur time.Duration) *phase {
	a0, r0 := st.storeCounts()
	p := d.run(name, open, traced, dur)
	res.attempted += p.attempted
	res.fail(p.failed, "%s: %d of %d requests failed (%v)", name, p.failed, p.attempted, p.firstErr)
	st.checkStores(res, name, a0, r0, p)
	return p
}

func runServe(sh serveShape, o options) (*result, error) {
	res := newResult()
	if o.trace {
		return serveTraced(sh, o, res)
	}
	var setupS []float64
	var st *stack
	for i := 0; i < setups; i++ {
		if st != nil {
			st.tearDown()
			runtime.GC()
		}
		c := processCPU()
		var err error
		if st, err = setUp(sh, o.seed, res); err != nil {
			return nil, err
		}
		setupS = append(setupS, (processCPU() - c).Seconds())
	}
	defer st.tearDown()
	d := newDriver(sh, st, o.seed)
	d.spin = 0
	st.runPhase(res, d, "warm", true, false, warmUp)
	rss := startRSS()
	res.metrics["cpu_ms_per_op"] = cpuPerOp(func() int {
		return st.runPhase(res, d, "open", true, false, time.Duration(o.seconds)*time.Second).attempted
	})
	res.metrics["peak_rss_mb"] = rss.stopMB()
	res.metrics["setup_s"] = stats.Percentile(setupS, 50)
	return res, nil
}

func phaseDurations(o options) (open, closed time.Duration) {
	total := time.Duration(o.seconds) * time.Second
	open = time.Duration(float64(total) * openShare)
	return open, total - open
}

// flagLateness marks a run whose generator, not the server, set the
// median latency: the median lateness is at least half of load.p50_ms.
func flagLateness(res *result, p *phase) {
	if late, lat := stats.Percentile(p.late, 50), stats.Percentile(p.lat, 50); lat > 0 && late >= lat/2 {
		res.flags = append(res.flags, fmt.Sprintf("lateness_sets_p50: late p50 %.3f ms of p50 %.3f ms", late, lat))
	}
}

// serveTraced sets up once, then runs the open-loop phase untraced for a
// third of its length (the overhead reference) and traced in full, and
// the closed-loop phase traced. Each phase runs in one piece, so the
// /debug/vars deltas around it cover exactly its requests.
func serveTraced(sh serveShape, o options, res *result) (*result, error) {
	st, err := setUp(sh, o.seed, res)
	if err != nil {
		return nil, err
	}
	defer st.tearDown()
	d := newDriver(sh, st, o.seed)
	open, closed := phaseDurations(o)
	m := res.metrics
	m["setup.ingest_s"] = st.ingest.Seconds()
	m["setup.quiesce_s"] = st.quiesce.Seconds()
	m["setup.segments"] = float64(st.segments)
	st.runPhase(res, d, "warm", true, false, warmUp)
	ref := st.runPhase(res, d, "open-untraced", true, false, open/3)

	p, err := st.runTraced(res, d, "open", true, open)
	if err != nil {
		return nil, err
	}
	p.rows(m, "")
	q := stats.Quantiles(p.lat)
	late := stats.Quantiles(p.late)
	m["bench.overhead_share"] = q.P50/stats.Percentile(ref.lat, 50) - 1
	m["load.attempted"] = float64(p.attempted)
	m["load.p50_ms"] = q.P50
	m["load.p99_ms"] = q.P99
	m["load.late_p50_ms"] = late.P50
	m["load.late_p99_ms"] = late.P99
	m["load.late_share"] = ratio(late.P50, q.P50)
	for op, name := range serveOps {
		q := stats.Quantiles(p.opLat[op])
		m[name+".p50_ms"] = q.P50
		m[name+".p99_ms"] = q.P99
		h := histDelta(p.before, p.after, "serve_latency_seconds", `endpoint="`+name+`"`)
		m["serve."+name+"_mean_ms"] = 1000 * ratio(h.SumS, h.Count)
	}
	m["cloud.cache_fills"] = p.delta("cache_fills_total")
	m["cloud.cache_invalidations"] = p.delta("cache_invalidations_total")
	m["go.gc_cycles"] = p.gc.gcCycles
	m["store.accepted"] = p.delta("store_accepted_total")
	m["store.rejected"] = p.delta("store_rejected_total")
	m["store.wal_records"] = p.delta("store_wal_records_total")
	m["store.wal_fsyncs"] = p.delta("store_wal_fsyncs_total")
	m["store.wal_fsync_s"] = histDelta(p.before, p.after, "store_wal_fsync_seconds").SumS
	m["store.flush_s"] = histDelta(p.before, p.after, "store_flush_seconds").SumS
	m["store.compaction_s"] = histDelta(p.before, p.after, "store_compaction_seconds").SumS
	m["store.compacted_mb"] = p.delta("store_compacted_bytes_total") / (1 << 20)
	m["store.segments"] = p.after.sum("store_segments")
	m["store.segment_mb"] = p.after.sum("store_segment_bytes") / (1 << 20)
	m["store.read_errors"] = p.after.sum("store_read_errors_total")
	flagLateness(res, p.phase)

	c, err := st.runTraced(res, d, "closed", false, closed)
	if err != nil {
		return nil, err
	}
	c.rows(m, "capacity.")
	m["capacity.attempted"] = float64(c.attempted)
	m["capacity.rps"] = c.throughput()
	return res, nil
}

// tracedPhase is a phase with the server's /debug/vars and the Go
// runtime's counters read before and after it.
type tracedPhase struct {
	*phase
	before, after vars
	gc            goStats
}

func (st *stack) runTraced(res *result, d *driver, name string, open bool, dur time.Duration) (*tracedPhase, error) {
	before, err := st.scrape()
	if err != nil {
		return nil, err
	}
	g0 := readGoStats()
	p := st.runPhase(res, d, name, open, true, dur)
	t := &tracedPhase{phase: p, before: before, gc: readGoStats().sub(g0)}
	t.after, err = st.scrape()
	return t, err
}

func (t *tracedPhase) delta(name string) float64 { return delta(t.before, t.after, name) }

// rows writes the ledger rows both traced phases report, under prefix.
func (t *tracedPhase) rows(m map[string]float64, prefix string) {
	for op, name := range serveOps {
		m[prefix+name+".requests"] = float64(t.perOp[op])
	}
	busy := histDelta(t.before, t.after, "serve_latency_seconds").SumS
	m[prefix+"serve.busy_s"] = busy
	m[prefix+"transport.share"] = 1 - ratio(busy, t.clientS)
	hits, misses := t.delta("cache_hits_total"), t.delta("cache_misses_total")
	m[prefix+"cloud.cache_hit_ratio"] = ratio(hits, hits+misses)
	m[prefix+"go.alloc_kb_per_req"] = ratio(t.gc.allocBytes/1024, float64(t.attempted))
	m[prefix+"store.flushes"] = t.delta("store_flushes_total")
	m[prefix+"store.compactions"] = t.delta("store_compactions_total")
}
