// Package pipeline is the streaming campaign pipeline: the live data
// path connecting the radio plane to the serving store, the analysis
// plane, and disk while the simulation is still running.
//
// Each simulation world (a country's stay) owns a WorldEmitter. The
// world's single-goroutine engine publishes records into it as they
// happen — cloud-accepted reports, uploaded ground-truth fixes, crawl
// records — and the emitter flushes them as seq-stamped batches into a
// bounded channel. A merge stage drains the worlds' channels strictly
// in world-index order and fans every batch out to the registered
// consumers, each running on its own goroutine behind its own bounded
// channel: the store ingester feeds the sharded serving store, the
// campaign accumulator grows the analysis state, and the columnar sink
// streams the report log to disk.
//
// Determinism: a world's batch sequence is a pure function of its seed
// (the engine is single-goroutine and the flush threshold is a record
// count, never a wall clock), and the merge releases worlds in index
// order, so the merged stream every consumer sees is byte-identical at
// any worker count — the pipeline extends the runner package's
// worker-invariance contract to streaming consumers.
//
// Backpressure and deadlock-freedom: a world that outruns its
// consumers blocks on its bounded channel, pausing that world's
// simulation — memory stays bounded by channel capacities. The merge
// waits on worlds in index order, and runner.Map claims jobs in index
// order, so the world being drained is always among the started ones:
// every blocked world is strictly ahead of the drain cursor, and the
// drained world never waits on another world. No cycle, no deadlock.
package pipeline

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"tagsim/internal/obs"
	otrace "tagsim/internal/obs/trace"
	"tagsim/internal/trace"
)

// Process-wide pipeline series in the obs.Default registry: merged
// batches and records by kind, aggregated across every pipeline in the
// process. A -metrics-every snapshot differencing pipeline_reports_total
// is the live reports/s gauge for a headless campaign.
var (
	obsBatches = obs.GetCounter("pipeline_batches_total")
	obsReports = obs.GetCounter("pipeline_reports_total")
	obsFixes   = obs.GetCounter("pipeline_fixes_total")
	obsCrawls  = obs.GetCounter("pipeline_crawls_total")
)

// Registration announces a tag paired to a vendor cloud, so consumers
// (the store ingester in particular) know the tag universe even before
// its first report — a tag with zero accepted reports still exists in
// the serving store.
type Registration struct {
	Vendor trace.Vendor
	TagID  string
}

// Batch is one ordered emission unit from one world: everything the
// world published since the previous flush, in emission order. Batches
// are immutable once emitted and may be shared by every consumer.
type Batch struct {
	// World is the emitting world's index (campaign country order).
	World int
	// Seq is the world's batch sequence number, contiguous from 0.
	Seq uint64
	// Final marks the world's last batch; exactly one per world.
	Final bool

	Registrations []Registration
	// Reports are cloud-accepted reports in acceptance order.
	Reports []trace.Report
	// Fixes are uploaded ground-truth fixes in fix-time order.
	Fixes []trace.GroundTruth
	// Crawls are crawl records in poll order (vendors interleaved; each
	// record carries its vendor).
	Crawls []trace.CrawlRecord
}

// Len returns the number of records in the batch (registrations aside).
func (b *Batch) Len() int { return len(b.Reports) + len(b.Fixes) + len(b.Crawls) }

// Consumer receives the merged, ordered batch stream. Consume runs on
// the consumer's own goroutine (batches arrive strictly in (world, seq)
// order); Close runs after the last batch, even when an earlier Consume
// failed, so it can release resources either way.
type Consumer interface {
	Consume(b Batch) error
	Close() error
}

// Config sizes the pipeline's buffers. The zero value uses defaults.
type Config struct {
	// FlushEvery is the per-world record count that triggers a batch
	// flush (default 512). It tunes batch granularity and backpressure
	// only — consumers that persist bytes (ReportSink) re-frame the
	// stream at their own threshold, so dump bytes never depend on it.
	FlushEvery int
	// WorldBuffer is each world channel's batch capacity (default 4).
	WorldBuffer int
	// ConsumerBuffer is each consumer channel's batch capacity
	// (default 8).
	ConsumerBuffer int
}

func (c *Config) defaults() {
	if c.FlushEvery <= 0 {
		c.FlushEvery = 512
	}
	if c.WorldBuffer <= 0 {
		c.WorldBuffer = 4
	}
	if c.ConsumerBuffer <= 0 {
		c.ConsumerBuffer = 8
	}
}

// Pipeline coordinates the world emitters, the ordered merge, and the
// consumer fan-out. Create one with New, hand World(i) to each world,
// and Wait after every world has closed its emitter.
type Pipeline struct {
	cfg      Config
	emitters []*WorldEmitter
	runners  []*consumerRunner
	done     chan struct{}
	waitOnce sync.Once
	waitErr  error
}

// consumerRunner drives one consumer on its own goroutine. sent /
// consumed / records are the observability plane's lag accounting:
// sent is bumped by the merge as it dispatches, consumed and records by
// the runner as it finishes each batch, so sent-consumed is the
// consumer's batch lag (queued plus in-flight) at any instant.
type consumerRunner struct {
	c        Consumer
	name     string
	op       string // "pipeline.consume.<name>", precomputed off the hot loop
	ch       chan Batch
	done     chan struct{}
	err      error
	sent     atomic.Uint64
	consumed atomic.Uint64
	records  atomic.Uint64
	hist     *obs.Histogram
	th       *otrace.Threshold
}

// run is the consumer's batch loop. Each batch is one self-rooted
// trace on the pipeline plane (the runner goroutine has no request to
// attach to) carrying the batch's record count and the consumer's
// batch lag behind the merge as attributes — so a captured slow batch
// shows whether the consumer was already drowning when it started.
func (r *consumerRunner) run() {
	defer close(r.done)
	for b := range r.ch {
		if r.err != nil {
			r.consumed.Add(1)
			continue // drain so the merge never blocks on a failed consumer
		}
		var t0 time.Time
		if obs.Enabled() {
			t0 = time.Now()
		}
		tr := otrace.Begin(otrace.PlanePipeline, r.op)
		tr.SetAttrs(0, int64(b.Len()), int64(r.sent.Load()-r.consumed.Load()))
		r.err = r.c.Consume(b)
		r.consumed.Add(1)
		r.records.Add(uint64(b.Len()))
		// Capture before this batch's own sample feeds the histogram —
		// a new-max batch must clear the p99 of the batches before it.
		tr.End(r.th)
		obs.Since(r.hist, t0)
	}
	if cerr := r.c.Close(); r.err == nil {
		r.err = cerr
	}
}

// New builds a pipeline for the given number of worlds and starts the
// merge and consumer goroutines. Every world emitter must eventually be
// closed (worlds with nothing to say still Close), or Wait blocks.
func New(worlds int, cfg Config, consumers ...Consumer) *Pipeline {
	cfg.defaults()
	p := &Pipeline{cfg: cfg, done: make(chan struct{})}
	for i := 0; i < worlds; i++ {
		p.emitters = append(p.emitters, &WorldEmitter{
			world:      i,
			flushEvery: cfg.FlushEvery,
			ch:         make(chan Batch, cfg.WorldBuffer),
		})
	}
	for i, c := range consumers {
		name := fmt.Sprintf("consumer%d", i)
		if n, ok := c.(interface{ Name() string }); ok {
			name = n.Name()
		}
		r := &consumerRunner{c: c, name: name, op: "pipeline.consume." + name,
			ch: make(chan Batch, cfg.ConsumerBuffer), done: make(chan struct{})}
		r.hist = obs.Default.Histogram("pipeline_consume_seconds", obs.L("consumer", name))
		r.th = otrace.NewThreshold(otrace.PlanePipeline, r.hist, 0)
		p.runners = append(p.runners, r)
		go r.run()
	}
	go p.merge()
	return p
}

// merge drains the world channels strictly in index order, validates
// the (world, seq, final) framing, and fans each batch out to every
// consumer channel.
func (p *Pipeline) merge() {
	defer close(p.done)
	defer func() {
		for _, r := range p.runners {
			close(r.ch)
		}
	}()
	for w, em := range p.emitters {
		var nextSeq uint64
		sawFinal := false
		for b := range em.ch {
			if b.World != w || b.Seq != nextSeq || sawFinal {
				// A broken emitter contract is a programming error, not
				// a runtime condition to limp through.
				panic(fmt.Sprintf("pipeline: world %d emitted batch (world=%d seq=%d final=%v), want seq %d",
					w, b.World, b.Seq, b.Final, nextSeq))
			}
			nextSeq++
			sawFinal = b.Final
			obsBatches.Inc()
			obsReports.Add(uint64(len(b.Reports)))
			obsFixes.Add(uint64(len(b.Fixes)))
			obsCrawls.Add(uint64(len(b.Crawls)))
			for _, r := range p.runners {
				r.sent.Add(1)
				r.ch <- b
			}
		}
		if !sawFinal {
			panic(fmt.Sprintf("pipeline: world %d closed without a final batch", w))
		}
	}
}

// World returns world i's emitter. Each emitter belongs to exactly one
// world goroutine and is not safe for concurrent use.
func (p *Pipeline) World(i int) *WorldEmitter { return p.emitters[i] }

// Worlds returns the number of worlds the pipeline was sized for.
func (p *Pipeline) Worlds() int { return len(p.emitters) }

// ConsumerStats is one consumer's point-in-time progress through the
// merged stream: how many batches and records it has finished, how many
// sit in its channel right now, and its total batch lag behind the
// merge (queued plus in-flight).
type ConsumerStats struct {
	Name       string
	Batches    uint64
	Records    uint64
	QueueDepth int
	Lag        uint64
}

// ConsumerStats snapshots every consumer's progress, in registration
// order. Safe to call while the pipeline runs — each field loads
// atomically (fields are not mutually consistent mid-batch). Consumers
// that implement Name() string report it; others get "consumerN".
func (p *Pipeline) ConsumerStats() []ConsumerStats {
	out := make([]ConsumerStats, len(p.runners))
	for i, r := range p.runners {
		sent, consumed := r.sent.Load(), r.consumed.Load()
		lag := uint64(0)
		if sent > consumed { // racing loads: dispatch may land between them
			lag = sent - consumed
		}
		out[i] = ConsumerStats{
			Name:       r.name,
			Batches:    consumed,
			Records:    r.records.Load(),
			QueueDepth: len(r.ch),
			Lag:        lag,
		}
	}
	return out
}

// Wait blocks until every world's stream has been merged and every
// consumer has consumed it and closed, then returns the first consumer
// error (consumers are checked in registration order). It is safe to
// call more than once.
func (p *Pipeline) Wait() error {
	p.waitOnce.Do(func() {
		<-p.done
		var errs []error
		for _, r := range p.runners {
			<-r.done
			if r.err != nil {
				errs = append(errs, r.err)
			}
		}
		p.waitErr = errors.Join(errs...)
	})
	return p.waitErr
}

// WorldEmitter is one world's publishing end of the pipeline. All
// methods must be called from the world's own (single) goroutine; the
// bounded channel provides the cross-goroutine handoff.
type WorldEmitter struct {
	world      int
	flushEvery int
	ch         chan Batch
	seq        uint64
	cur        Batch
	closed     bool
}

// RegisterTag announces a (vendor, tag) pairing to the consumers.
func (e *WorldEmitter) RegisterTag(v trace.Vendor, tagID string) {
	e.cur.Registrations = append(e.cur.Registrations, Registration{Vendor: v, TagID: tagID})
}

// Report publishes one cloud-accepted report.
func (e *WorldEmitter) Report(r trace.Report) {
	e.cur.Reports = append(e.cur.Reports, r)
	e.maybeFlush()
}

// Fixes publishes a batch of uploaded ground-truth fixes. The slice is
// copied; callers may reuse it.
func (e *WorldEmitter) Fixes(fs []trace.GroundTruth) {
	e.cur.Fixes = append(e.cur.Fixes, fs...)
	e.maybeFlush()
}

// Crawl publishes one crawl record.
func (e *WorldEmitter) Crawl(rec trace.CrawlRecord) {
	e.cur.Crawls = append(e.cur.Crawls, rec)
	e.maybeFlush()
}

func (e *WorldEmitter) maybeFlush() {
	if e.cur.Len() >= e.flushEvery {
		e.flush(false)
	}
}

// flush seals the current batch and sends it (blocking on a full
// channel — the pipeline's backpressure).
func (e *WorldEmitter) flush(final bool) {
	b := e.cur
	b.World, b.Seq, b.Final = e.world, e.seq, final
	e.seq++
	e.cur = Batch{}
	e.ch <- b
}

// Close flushes whatever remains as the world's final batch (possibly
// empty — consumers still need the end-of-world marker) and closes the
// channel. Must be called exactly once, after the world finished.
func (e *WorldEmitter) Close() {
	if e.closed {
		panic("pipeline: WorldEmitter closed twice")
	}
	e.closed = true
	e.flush(true)
	close(e.ch)
}
