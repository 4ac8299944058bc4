// Package load is the deterministic load generator for the serving
// subsystem: N workers issue queries against a Target — the store
// surface directly, or the HTTP query API — with a Zipf-skewed tag
// popularity and a weighted operation mix modeled on the paper's
// crawlers (last-known polls dominate, history/track reconstructions
// ride along, and an optional write share drives the report ingest
// path for mixed read/write benchmarks).
//
// The harness runs in two loop disciplines. The default closed loop
// issues back-to-back requests per worker — the right shape for
// measuring peak capacity, but under overload it coordinates with the
// server (a slow response delays the next request), hiding queueing
// delay from the tail quantiles. The open-loop mode (Config.OpenLoop)
// instead fixes a Poisson arrival schedule at Config.OfferedRate and
// never lets a slow response push later arrivals back, so overload p99
// is honest: the result reports achieved-vs-offered rate, and
// queue-wait (schedule slip) separately from service latency.
//
// Determinism follows the simulator's named-stream discipline: worker w
// draws from an RNG seeded by hashing (seed, "load/worker/w"), so the
// exact sequence of (operation, tag) pairs each worker issues is a pure
// function of the config at any worker count. Only the measured
// latencies and throughput vary run to run — they are wall-clock.
package load

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tagsim/internal/cloud"
	"tagsim/internal/geo"
	"tagsim/internal/obs"
	otrace "tagsim/internal/obs/trace"
	"tagsim/internal/stats"
	"tagsim/internal/trace"
)

// Op is one query type of the vendor API.
type Op uint8

const (
	// OpLastKnown polls a tag's last-known location (the crawlers' loop).
	OpLastKnown Op = iota
	// OpHistory fetches a tag's accepted-report history.
	OpHistory
	// OpTrack reconstructs the cross-vendor track for a tag.
	OpTrack
	// OpStats reads the service counters.
	OpStats
	// OpReport ingests a synthesized crowd report (the write path).
	OpReport
	numOps
)

var opNames = [...]string{"lastknown", "history", "track", "stats", "report"}

// String returns the endpoint-style op name.
func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// Mix weighs the operation types in the generated stream. Zero values
// fall back to DefaultMix. Report is the write share: the serving
// benches use it to dial read mixes (a 90% read mix is Report at 10%
// of the total weight).
type Mix struct {
	LastKnown, History, Track, Stats, Report int
}

// DefaultMix mirrors the paper's crawler behavior: per-minute last-known
// polls dominate, with occasional history/track reconstructions and a
// trickle of stats reads. Crawlers never write, so Report is 0.
func DefaultMix() Mix { return Mix{LastKnown: 90, History: 5, Track: 4, Stats: 1} }

// ReadMix scales DefaultMix's read weights to readPct percent of the
// total and gives the remaining weight to writes — the 60/75/90% read
// mixes of the serving benchmarks.
func ReadMix(readPct int) Mix {
	m := DefaultMix()
	m.History = m.History * readPct / 100
	m.Track = m.Track * readPct / 100
	m.Stats = m.Stats * readPct / 100
	// Rounding remainder lands on the dominant op, keeping the total at
	// exactly 100 so readPct is the precise read share.
	m.LastKnown = readPct - m.History - m.Track - m.Stats
	m.Report = 100 - readPct
	return m
}

func (m Mix) total() int { return m.LastKnown + m.History + m.Track + m.Stats + m.Report }

// pick maps a draw in [0, total) to an op.
func (m Mix) pick(r int) Op {
	switch {
	case r < m.LastKnown:
		return OpLastKnown
	case r < m.LastKnown+m.History:
		return OpHistory
	case r < m.LastKnown+m.History+m.Track:
		return OpTrack
	case r < m.LastKnown+m.History+m.Track+m.Stats:
		return OpStats
	default:
		return OpReport
	}
}

// Config parameterizes a load run.
type Config struct {
	// Workers is the closed-loop client count (default 8).
	Workers int
	// Requests is the total request budget, split evenly across workers
	// (default 2000).
	Requests int
	// Seed roots the per-worker streams.
	Seed int64
	// Tags is the tag universe queried; popularity is Zipf over its
	// order (Tags[0] hottest). Required.
	Tags []string
	// ZipfS is the Zipf exponent (must be > 1; default 1.2 — a hot-tag
	// skew in line with self-organized tagging popularity distributions).
	ZipfS float64
	// Mix weighs the operations (zero value: DefaultMix).
	Mix Mix
	// OpenLoop switches from the closed loop to open-loop Poisson
	// arrivals: each worker follows a fixed exponential-interarrival
	// schedule at OfferedRate/Workers, and a slow response never delays
	// later arrivals — the loop discipline that keeps overload tail
	// latency honest (no coordinated omission).
	OpenLoop bool
	// OfferedRate is the aggregate arrival rate in requests/second
	// across all workers. Required (> 0) when OpenLoop is set.
	OfferedRate float64
	// Latency, when set, additionally records every request latency into
	// this histogram — the hook that puts harness traffic on the same
	// /metrics pane as live serve traffic (and the fixture the
	// histogram-vs-stats.Quantiles agreement test drives end to end).
	Latency *obs.Histogram
}

func (c *Config) defaults() error {
	if c.Workers <= 0 {
		c.Workers = 8
	}
	if c.Requests <= 0 {
		c.Requests = 2000
	}
	if c.ZipfS == 0 {
		c.ZipfS = 1.2
	}
	if c.ZipfS <= 1 {
		return fmt.Errorf("load: ZipfS must be > 1, got %v", c.ZipfS)
	}
	if c.Mix.total() == 0 {
		c.Mix = DefaultMix()
	}
	if c.Mix.LastKnown < 0 || c.Mix.History < 0 || c.Mix.Track < 0 || c.Mix.Stats < 0 || c.Mix.Report < 0 || c.Mix.total() <= 0 {
		return fmt.Errorf("load: mix weights must be non-negative with a positive sum, got %+v", c.Mix)
	}
	if c.OpenLoop && c.OfferedRate <= 0 {
		return fmt.Errorf("load: open loop requires OfferedRate > 0, got %v", c.OfferedRate)
	}
	if len(c.Tags) == 0 {
		return fmt.Errorf("load: no tags to query")
	}
	return nil
}

// HistoryCap is the newest-N window the harness's history queries ask
// for — the depth of the companion app's history pane. It rides the
// query API's limit pushdown: a capped query copies only the newest N
// reports out of the store rings. Track queries stay uncapped (the
// cross-vendor track reconstruction is the full merge by definition).
const HistoryCap = 25

// Target executes one operation against a serving backend and returns
// how many report records the operation touched (history/track lengths,
// one for a found last-known fix) — the numerator of the harness's
// sustained reports/s throughput.
type Target interface {
	Do(op Op, tagID string) (reports int, err error)
}

// tracedTarget is the optional request-tracing extension of Target:
// the harness roots one span per request (reusing the timestamps it
// already takes for the latency histogram) and hands the trace down so
// the target's cache/store layers can attach their spans. Detected by
// type assertion once per run, so plain Targets pay nothing.
type tracedTarget interface {
	DoTraced(op Op, tagID string, tr *otrace.Trace) (reports int, err error)
}

// Result is one load run's report.
type Result struct {
	Requests int
	Workers  int
	Errors   int
	Elapsed  time.Duration
	// Reports counts the report records served across all requests.
	Reports int
	// PerOp counts issued requests by operation — deterministic for a
	// given config.
	PerOp [numOps]int
	// Latency summarizes per-request service latency in milliseconds —
	// the time the target spent on the request, excluding (in open-loop
	// mode) any wait behind the arrival schedule.
	Latency stats.QuantileSummary
	// OpenLoop and OfferedRate echo the run's loop discipline.
	OpenLoop    bool
	OfferedRate float64
	// QueueWait summarizes, in open-loop mode, how far behind its
	// scheduled arrival each request started (milliseconds): the
	// queueing delay a closed loop silently absorbs into the arrival
	// process. Zero-valued for closed-loop runs.
	QueueWait stats.QuantileSummary
}

// Throughput returns requests per wall-clock second.
func (r *Result) Throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Requests) / r.Elapsed.Seconds()
}

// ReportThroughput returns report records served per wall-clock second
// — the sustained data-plane rate behind the request rate.
func (r *Result) ReportThroughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Reports) / r.Elapsed.Seconds()
}

// Render formats the report like the repo's figure renderings.
func (r *Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Load report: %d requests, %d workers, %d errors over %v\n",
		r.Requests, r.Workers, r.Errors, r.Elapsed.Round(time.Millisecond))
	fmt.Fprintf(&b, "  throughput  %.0f req/s, %.0f reports/s (%d reports served)\n",
		r.Throughput(), r.ReportThroughput(), r.Reports)
	fmt.Fprintf(&b, "  latency ms  p50=%.3f  p95=%.3f  p99=%.3f\n",
		r.Latency.P50, r.Latency.P95, r.Latency.P99)
	if r.OpenLoop {
		fmt.Fprintf(&b, "  open loop   offered=%.0f req/s achieved=%.0f req/s (%.1f%%)\n",
			r.OfferedRate, r.Throughput(), 100*r.Throughput()/r.OfferedRate)
		fmt.Fprintf(&b, "  queue ms    p50=%.3f  p95=%.3f  p99=%.3f\n",
			r.QueueWait.P50, r.QueueWait.P95, r.QueueWait.P99)
	}
	fmt.Fprintf(&b, "  ops        ")
	for op := Op(0); op < numOps; op++ {
		fmt.Fprintf(&b, " %s=%d", op, r.PerOp[op])
	}
	b.WriteString("\n")
	return b.String()
}

// workerRNG derives worker w's stream the way sim.Engine.RNG derives
// entity streams: FNV-1a over (seed, name).
func workerRNG(seed int64, w int) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/load/worker/%d", seed, w)
	return rand.New(rand.NewSource(int64(h.Sum64())))
}

// arrivalRNG is worker w's open-loop interarrival stream — separate
// from the op/tag stream so the issued (op, tag) sequence is the same
// function of the config in both loop disciplines.
func arrivalRNG(seed int64, w int) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/load/arrival/%d", seed, w)
	return rand.New(rand.NewSource(int64(h.Sum64())))
}

// Run drives the target with cfg.Requests requests across cfg.Workers
// workers — back-to-back in the default closed loop, on a Poisson
// arrival schedule in open-loop mode — and reports throughput plus
// latency quantiles. The (op, tag) sequence is deterministic per
// config, and identical between the two loop disciplines; an error from
// the target counts and the worker moves on.
func Run(cfg Config, target Target) (*Result, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	type workerOut struct {
		latencies []float64
		waits     []float64
		perOp     [numOps]int
		errors    int
		reports   int
	}
	outs := make([]workerOut, cfg.Workers)
	// Pregenerate each worker's plan — the (op, tag) sequence and, in
	// open-loop mode, the Poisson arrival schedule — before the clock
	// starts. The draws happen in exactly the order the issuing loop
	// would make them, so the sequences are the same pure function of
	// the config; materializing them up front just keeps generator cost
	// (zipf and mix draws) out of the measured request path. The plan
	// holds tag indices, not strings, so it adds no pointer-scan load
	// while the run's garbage collector is under benchmark.
	type workerPlan struct {
		ops   []Op
		tags  []uint32
		sched []time.Duration // cumulative arrival offsets (open loop)
	}
	plans := make([]workerPlan, cfg.Workers)
	// Per-worker arrival rate: worker streams are independent Poisson
	// processes, and the superposition offers cfg.OfferedRate.
	perWorker := cfg.OfferedRate / float64(cfg.Workers)
	for w := 0; w < cfg.Workers; w++ {
		n := cfg.Requests / cfg.Workers
		if w < cfg.Requests%cfg.Workers {
			n++
		}
		rng := workerRNG(cfg.Seed, w)
		zipf := rand.NewZipf(rng, cfg.ZipfS, 1, uint64(len(cfg.Tags)-1))
		p := &plans[w]
		p.ops = make([]Op, n)
		p.tags = make([]uint32, n)
		for i := 0; i < n; i++ {
			p.ops[i] = cfg.Mix.pick(rng.Intn(cfg.Mix.total()))
			p.tags[i] = uint32(zipf.Uint64())
		}
		if cfg.OpenLoop {
			// Exponential interarrivals from the dedicated arrival
			// stream: the schedule is fixed up front by the RNG, never
			// pushed back by slow responses.
			arr := arrivalRNG(cfg.Seed, w)
			p.sched = make([]time.Duration, n)
			var sched time.Duration
			for i := 0; i < n; i++ {
				sched += time.Duration(arr.ExpFloat64() / perWorker * float64(time.Second))
				p.sched[i] = sched
			}
		}
	}
	// Request tracing rides the same decision the serve plane makes:
	// when the target supports it and tracing is on, every request gets
	// a root span whose timestamps are the latency measurement's own
	// (no extra clock reads), captured against the run histogram's live
	// p99. Each worker reuses one pooled trace across its whole plan.
	traced, _ := target.(tracedTarget)
	var th *otrace.Threshold
	if traced != nil && otrace.Enabled() {
		th = otrace.NewThreshold(cfg.Latency, -1)
	}
	var wg sync.WaitGroup
	begin := time.Now()
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p := &plans[w]
			out := &outs[w]
			out.latencies = make([]float64, 0, len(p.ops))
			if cfg.OpenLoop {
				out.waits = make([]float64, 0, len(p.ops))
			}
			var wtr *otrace.Trace
			if th != nil {
				wtr = otrace.Get()
				defer otrace.Put(wtr)
			}
			for i, op := range p.ops {
				tag := cfg.Tags[p.tags[i]]
				if cfg.OpenLoop {
					due := begin.Add(p.sched[i])
					if d := time.Until(due); d > 0 {
						time.Sleep(d)
					}
					wait := time.Since(due) // schedule slip = queueing delay
					if wait < 0 {
						wait = 0
					}
					out.waits = append(out.waits, float64(wait)/float64(time.Millisecond))
				}
				t := time.Now()
				var reports int
				var err error
				if wtr != nil {
					wtr.Root(otrace.PlaneServe, op.String(), t)
					reports, err = traced.DoTraced(op, tag, wtr)
				} else {
					reports, err = target.Do(op, tag)
				}
				lat := time.Since(t)
				if cfg.Latency != nil {
					cfg.Latency.Observe(lat)
				}
				if wtr != nil {
					wtr.FinishRoot(lat, th)
				}
				out.latencies = append(out.latencies, float64(lat)/float64(time.Millisecond))
				out.perOp[op]++
				out.reports += reports
				if err != nil {
					out.errors++
				}
			}
		}(w)
	}
	wg.Wait()
	res := &Result{
		Requests: cfg.Requests, Workers: cfg.Workers, Elapsed: time.Since(begin),
		OpenLoop: cfg.OpenLoop, OfferedRate: cfg.OfferedRate,
	}
	var all, waits []float64
	for _, out := range outs {
		all = append(all, out.latencies...)
		waits = append(waits, out.waits...)
		res.Errors += out.errors
		res.Reports += out.reports
		for op, n := range out.perOp {
			res.PerOp[op] += n
		}
	}
	res.Latency = stats.Quantiles(all)
	if cfg.OpenLoop {
		res.QueueWait = stats.Quantiles(waits)
	}
	return res, nil
}

// reportSynth generates the write stream for OpReport: a shared,
// goroutine-safe sequence of synthetic crowd reports whose timestamps
// step forward from a base instant, cycling vendors round-robin. With
// the services' per-tag rate cap (cloud.DefaultMinUpdateInterval) most
// writes to a hot tag are rejected — exactly the plateau regime of the
// paper's Figure 4 — so a mixed read/write run exercises both the
// accept and reject ingest paths.
type reportSynth struct {
	base    time.Time
	step    time.Duration
	vendors []trace.Vendor
	n       atomic.Uint64
}

func newReportSynth(vendors []trace.Vendor) *reportSynth {
	if len(vendors) == 0 {
		vendors = []trace.Vendor{trace.VendorApple, trace.VendorSamsung}
	}
	return &reportSynth{base: time.Now(), step: 50 * time.Millisecond, vendors: vendors}
}

func (s *reportSynth) next(tagID string) trace.Report {
	n := s.n.Add(1) - 1
	t := s.base.Add(time.Duration(n) * s.step)
	return trace.Report{
		T: t, HeardAt: t, TagID: tagID,
		Vendor:     s.vendors[int(n%uint64(len(s.vendors)))],
		ReporterID: "load/writer",
		Pos:        geo.LatLon{Lat: 40 + float64(n%1000)/1e4, Lon: -74 - float64(n%1000)/1e4},
		RSSI:       -60,
	}
}

// ServiceTarget drives the store surface directly (no HTTP): the
// shared-memory baseline the HTTP layer is compared against. Reads go
// through the query plane's hot-tag cache, like serve.NewServer deploys,
// so it isolates what the HTTP layer adds.
type ServiceTarget struct {
	services map[trace.Vendor]*cloud.Service
	svcs     []*cloud.Service // sorted by vendor
	cache    *cloud.HotCache
	writes   *reportSynth
}

// NewServiceTarget builds a direct target over per-vendor services, with
// the hot-tag cache in front of last-known/track/history.
func NewServiceTarget(services map[trace.Vendor]*cloud.Service) *ServiceTarget {
	t := &ServiceTarget{services: services, cache: cloud.NewHotCache(services, 0)}
	var vendors []trace.Vendor
	for v, svc := range services {
		t.svcs = append(t.svcs, svc)
		vendors = append(vendors, v)
	}
	sort.Slice(t.svcs, func(i, j int) bool { return t.svcs[i].Vendor() < t.svcs[j].Vendor() })
	sort.Slice(vendors, func(i, j int) bool { return vendors[i] < vendors[j] })
	t.writes = newReportSynth(vendors)
	return t
}

// Do implements Target against the in-process stores.
func (t *ServiceTarget) Do(op Op, tagID string) (int, error) {
	return t.DoTraced(op, tagID, nil)
}

// DoTraced implements tracedTarget: the same dispatch as Do with the
// request trace threaded into the cache and store layers (nil tr
// traces nothing). Unknown tags are errors, mirroring the HTTP layer's
// 404, so error rates stay comparable between the two targets.
func (t *ServiceTarget) DoTraced(op Op, tagID string, tr *otrace.Trace) (int, error) {
	switch op {
	case OpStats:
		for _, svc := range t.svcs {
			svc.Stats()
		}
		return 0, nil
	case OpReport:
		rep := t.writes.next(tagID)
		sp := tr.Start(otrace.PlaneStore, "store.ingest", 0, 0)
		accepted := t.services[rep.Vendor].Ingest(rep)
		if accepted {
			tr.SetAttrs(sp, 1, 0)
		}
		tr.Finish(sp)
		if accepted {
			return 1, nil
		}
		return 0, nil // rate-capped, not an error
	case OpLastKnown:
		_, _, found, known := t.cache.LastSeenTraced(tagID, tr)
		if !known {
			return 0, fmt.Errorf("load: unknown tag %q", tagID)
		}
		if found {
			return 1, nil
		}
		return 0, nil
	case OpHistory:
		hist, known := t.cache.HistoryTailTraced(tagID, HistoryCap, tr)
		if !known {
			return 0, fmt.Errorf("load: unknown tag %q", tagID)
		}
		return len(hist), nil
	case OpTrack:
		track, known := t.cache.TrackTraced(tagID, tr)
		if !known {
			return 0, fmt.Errorf("load: unknown tag %q", tagID)
		}
		return len(track), nil
	default:
		return 0, fmt.Errorf("load: unknown op %v", op)
	}
}

// HTTPTarget drives the serve package's query API over real HTTP.
type HTTPTarget struct {
	// Base is the server root, e.g. an httptest.Server URL.
	Base string
	// Client defaults to a connection-pooling client sized for the
	// worker count.
	Client *http.Client

	writes *reportSynth
}

// NewHTTPTarget builds an HTTP target for the query API at base.
func NewHTTPTarget(base string) *HTTPTarget {
	// Clone the default transport when it is the stock one (keeping its
	// proxy/dialer defaults); an embedding program may have replaced it
	// with an arbitrary RoundTripper, in which case start fresh.
	tr, ok := http.DefaultTransport.(*http.Transport)
	if ok {
		tr = tr.Clone()
	} else {
		tr = &http.Transport{}
	}
	tr.MaxIdleConnsPerHost = 64
	return &HTTPTarget{
		Base:   strings.TrimRight(base, "/"),
		Client: &http.Client{Transport: tr},
		writes: newReportSynth(nil),
	}
}

// Do implements Target over the HTTP query API. Queries use the
// Combined view, like the paper's unified-ecosystem analysis. Report-
// bearing responses are decoded just enough to count the records, so
// reports/s reflects payloads a real client would have parsed.
func (t *HTTPTarget) Do(op Op, tagID string) (int, error) {
	var path string
	switch op {
	case OpLastKnown:
		path = "/v1/lastknown?tag=" + url.QueryEscape(tagID)
	case OpHistory:
		path = "/v1/history?limit=" + strconv.Itoa(HistoryCap) + "&tag=" + url.QueryEscape(tagID)
	case OpTrack:
		path = "/v1/track?tag=" + url.QueryEscape(tagID)
	case OpStats:
		path = "/v1/stats"
	case OpReport:
		return t.post(tagID)
	default:
		return 0, fmt.Errorf("load: unknown op %v", op)
	}
	resp, err := t.Client.Get(t.Base + path)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body)
		return 0, fmt.Errorf("load: %s: status %d", path, resp.StatusCode)
	}
	reports, err := countReports(op, resp.Body)
	if err != nil {
		return reports, fmt.Errorf("load: %s: %w", path, err)
	}
	return reports, nil
}

// post sends one synthesized report to POST /v1/report; an accepted
// write counts one report record, a rate-capped rejection zero.
func (t *HTTPTarget) post(tagID string) (int, error) {
	body, err := json.Marshal(t.writes.next(tagID))
	if err != nil {
		return 0, fmt.Errorf("load: encode report: %w", err)
	}
	resp, err := t.Client.Post(t.Base+"/v1/report", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body)
		return 0, fmt.Errorf("load: /v1/report: status %d", resp.StatusCode)
	}
	var v struct {
		Accepted bool `json:"accepted"`
	}
	err = json.NewDecoder(resp.Body).Decode(&v)
	_, _ = io.Copy(io.Discard, resp.Body)
	if err != nil {
		return 0, fmt.Errorf("load: /v1/report: %w", err)
	}
	if v.Accepted {
		return 1, nil
	}
	return 0, nil
}

// countReports counts the report records in a 200 response body.
// Objects decode into empty structs, so counting never materializes the
// payload fields. The body is always drained so the connection can be
// reused.
func countReports(op Op, body io.Reader) (int, error) {
	drain := func() { _, _ = io.Copy(io.Discard, body) }
	dec := json.NewDecoder(body)
	var n int
	var err error
	switch op {
	case OpLastKnown:
		var v struct {
			Found bool `json:"found"`
		}
		if err = dec.Decode(&v); err == nil && v.Found {
			n = 1
		}
	case OpHistory:
		var v struct {
			Reports []struct{} `json:"reports"`
		}
		if err = dec.Decode(&v); err == nil {
			n = len(v.Reports)
		}
	case OpTrack:
		var v struct {
			Track []struct{} `json:"track"`
		}
		if err = dec.Decode(&v); err == nil {
			n = len(v.Track)
		}
	}
	drain()
	return n, err
}
