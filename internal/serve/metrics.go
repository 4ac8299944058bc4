// The query API's slice of the observability plane: per-endpoint
// request counters and service-latency histograms, collect-on-scrape
// bridges over the store/cache counters the serving path already keeps,
// and the two exposition endpoints (/metrics Prometheus text,
// /debug/vars JSON) that render this server's registry together with
// the process-wide obs.Default one — one pane of glass per process.
package serve

import (
	"net/http"
	"strconv"
	"sync"
	"time"

	"tagsim/internal/cloud"
	"tagsim/internal/obs"
	otrace "tagsim/internal/obs/trace"
)

// endpointMetrics is one endpoint's instrumentation, resolved once at
// registration so the request path never touches the registry.
type endpointMetrics struct {
	latency *obs.Histogram
	codes   [6]*obs.Counter // indexed by status/100 ("2xx" is codes[2])
	// th is the endpoint's trace capture bar: its own live p99 (from
	// latency, the histogram the wrapper feeds), floored at the default
	// so a cold histogram doesn't capture bulk traffic.
	th *otrace.Threshold
}

// statusRecorder captures the handler's status code and, when the
// request carries a trace, decides the X-Tag-Trace header at the
// moment the response headers flush. Pooled; only the methods the
// handlers use are forwarded.
type statusRecorder struct {
	http.ResponseWriter
	status int
	tr     *otrace.Trace
	th     *otrace.Threshold
	t0     time.Time
}

// WriteHeader is the last instant a header can be added, so the
// captured-trace advertisement is decided here with the elapsed time
// measured so far. A request whose slowness comes after the headers
// flush (streaming a huge history body) is still captured to the ring
// at FinishRoot time — it just isn't advertised on this response.
func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	if r.tr != nil && r.th.Exceeded(time.Since(r.t0)) {
		r.ResponseWriter.Header().Set("X-Tag-Trace", otrace.FormatID(r.tr.EnsureID()))
	}
	r.ResponseWriter.WriteHeader(code)
}

var recorderPool = sync.Pool{New: func() any { return new(statusRecorder) }}

// handle registers an instrumented endpoint: a serve_latency_seconds
// histogram and serve_requests_total counters by status class, both
// labeled by endpoint, plus a per-request root span propagated to the
// handler through the request context. With metrics and tracing both
// disabled the wrapper is two atomic flag loads — no clock reads, no
// recorder. When either is on, one time.Now feeds both: the root span
// borrows the latency measurement's timestamps, so tracing adds no
// clock reads of its own on this path.
func (s *Server) handle(pattern, endpoint string, h http.HandlerFunc) {
	m := &endpointMetrics{
		latency: s.reg.Histogram("serve_latency_seconds", obs.L("endpoint", endpoint)),
	}
	for c := 2; c <= 5; c++ {
		m.codes[c] = s.reg.Counter("serve_requests_total",
			obs.L("endpoint", endpoint), obs.L("code", strconv.Itoa(c)+"xx"))
	}
	m.th = otrace.NewThreshold(m.latency, -1)
	s.endpoints = append(s.endpoints, m)
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		mt, tt := obs.Enabled(), otrace.Enabled()
		if !mt && !tt {
			h(w, r)
			return
		}
		rec := recorderPool.Get().(*statusRecorder)
		rec.ResponseWriter, rec.status = w, http.StatusOK
		t0 := time.Now()
		if tt {
			rec.tr, rec.th, rec.t0 = otrace.Get(), m.th, t0
			rec.tr.Root(otrace.PlaneServe, endpoint, t0)
			r = r.WithContext(otrace.NewContext(r.Context(), rec.tr))
		}
		h(rec, r)
		elapsed := time.Since(t0)
		// Capture is decided before this request's own sample feeds the
		// histogram: a new-max request must clear the p99 of the workload
		// so far, not a bar its own bucket just dragged up.
		if rec.tr != nil {
			rec.tr.FinishRoot(elapsed, rec.th)
			otrace.Put(rec.tr)
			rec.tr, rec.th = nil, nil
		}
		if mt {
			m.latency.Observe(elapsed)
			if c := rec.status / 100; c >= 2 && c <= 5 {
				m.codes[c].Inc()
			}
		}
		rec.ResponseWriter = nil
		recorderPool.Put(rec)
	})
}

// registerCollectors bridges the counters the serving path already
// keeps — per-vendor and per-shard store counters, hot-cache
// effectiveness — into the server's registry as collect-on-scrape
// series. Nothing here adds work to the hot path; every value is read
// only when /metrics or /debug/vars renders.
func (s *Server) registerCollectors() {
	r := s.reg
	r.Help("store_accepted_total", "reports accepted by the vendor store")
	r.Help("store_rejected_total", "reports rejected by the rate cap or monotonicity")
	r.Help("serve_latency_seconds", "service latency by endpoint")
	r.Help("serve_requests_total", "requests by endpoint and status class")
	r.Help("cache_hits_total", "hot-tag cache probes answered by a valid entry")
	r.Help("store_wal_bytes", "active WAL size (resets on rotation)")
	r.Help("store_wal_fsyncs_total", "WAL fsync batches")
	r.Help("store_flushes_total", "memtable flushes to immutable segments")
	r.Help("store_compactions_total", "segment-run merges")
	r.Help("store_segments", "live immutable segments")
	r.Help("store_segment_bytes", "bytes across live segments")
	r.Help("store_segments_quarantined_total", "segments failing checksum validation, renamed aside")
	for _, svc := range s.svcs {
		svc := svc
		vendor := obs.L("vendor", svc.Vendor().String())
		r.CounterFunc("store_accepted_total", func() uint64 { a, _ := svc.Stats(); return a }, vendor)
		r.CounterFunc("store_rejected_total", func() uint64 { _, j := svc.Stats(); return j }, vendor)
		r.GaugeFunc("store_tags", func() float64 { return float64(svc.NumTags()) }, vendor)
		for i := 0; i < svc.NumShards(); i++ {
			i := i
			shard := obs.L("shard", strconv.Itoa(i))
			r.CounterFunc("store_shard_accepted_total",
				func() uint64 { return svc.ShardStats(i).Accepted }, vendor, shard)
			r.CounterFunc("store_shard_rejected_total",
				func() uint64 { return svc.ShardStats(i).Rejected }, vendor, shard)
			r.CounterFunc("store_shard_epoch",
				func() uint64 { return svc.ShardStats(i).Epoch }, vendor, shard)
			r.GaugeFunc("store_shard_tags",
				func() float64 { return float64(svc.ShardStats(i).Tags) }, vendor, shard)
		}
		if svc.Tiered() {
			// The storage tier underneath this vendor: every series is a
			// collect-on-scrape read of the tier's atomics — the ingest
			// and flush paths never see the registry.
			r.GaugeFunc("store_wal_bytes", func() float64 { return float64(svc.TierStats().WALBytes) }, vendor)
			r.CounterFunc("store_wal_records_total", func() uint64 { return svc.TierStats().WALRecords }, vendor)
			r.CounterFunc("store_wal_fsyncs_total", func() uint64 { return svc.TierStats().WALFsyncs }, vendor)
			r.CounterFunc("store_flushes_total", func() uint64 { return svc.TierStats().Flushes }, vendor)
			r.CounterFunc("store_compactions_total", func() uint64 { return svc.TierStats().Compactions }, vendor)
			r.CounterFunc("store_compacted_bytes_total", func() uint64 { return svc.TierStats().CompactedBytes }, vendor)
			r.CounterFunc("store_segments_quarantined_total", func() uint64 { return svc.TierStats().Quarantined }, vendor)
			r.CounterFunc("store_read_errors_total", func() uint64 { return svc.TierStats().ReadErrors }, vendor)
			r.GaugeFunc("store_segments", func() float64 { return float64(svc.TierStats().Segments) }, vendor)
			r.GaugeFunc("store_segment_bytes", func() float64 { return float64(svc.TierStats().SegmentBytes) }, vendor)
			r.GaugeFunc("store_memtable_bytes", func() float64 { return float64(svc.TierStats().MemtableBytes) }, vendor)
		}
	}
	r.CounterFunc("cache_hits_total", func() uint64 { return s.cache.Stats().Hits })
	r.CounterFunc("cache_misses_total", func() uint64 { return s.cache.Stats().Misses })
	r.CounterFunc("cache_fills_total", func() uint64 { return s.cache.Stats().Fills })
	r.CounterFunc("cache_invalidations_total", func() uint64 { return s.cache.Stats().Invalidations })
}

// Metrics returns the server's registry, so the embedding command can
// add its own collectors (cmd/tagserve registers the live pipeline's
// consumer lag there) and render them on the same pane.
func (s *Server) Metrics() *obs.Registry { return s.reg }

// CacheStats exposes the hot-tag cache counters (also on /v1/stats).
func (s *Server) CacheStats() cloud.CacheStats { return s.cache.Stats() }

// handleMetrics renders the server registry plus the process-wide
// default one in the Prometheus text exposition format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	obs.WritePrometheus(w, s.reg, obs.Default)
}

// handleVars renders the same snapshot as one flat JSON object, in the
// spirit of expvar's /debug/vars.
func (s *Server) handleVars(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	obs.WriteJSON(w, s.reg, obs.Default)
}
