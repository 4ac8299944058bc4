// Package encounter is the radio plane of the simulation: on a fixed scan
// cadence it determines which reporting devices are within range of each
// tag, whether they decode a beacon (radio model x scan duty cycle),
// whether their vendor strategy reports it, and schedules the report's
// delivery to the vendor cloud after the upload delay.
//
// Beacon emission is modeled statistically (expected beacons per scan
// window) rather than as one event per beacon — at 0.5-2 s advertising
// intervals over 120 simulated days, per-beacon events would dominate the
// event queue without changing any measured quantity.
//
// Each (tag, tick) owns an independent named RNG stream, and a tick scans
// tags in slice order, scheduling each report's delivery as it is drawn;
// the engine breaks same-time event ties by insertion order, so the
// simulation output is a pure function of the seed.
package encounter

import (
	"math"
	"sync/atomic"
	"time"

	"tagsim/internal/ble"
	"tagsim/internal/cloud"
	"tagsim/internal/device"
	"tagsim/internal/geo"
	"tagsim/internal/obs"
	"tagsim/internal/sim"
	"tagsim/internal/tag"
	"tagsim/internal/trace"
)

// Config parameterizes the radio plane.
type Config struct {
	// ScanInterval is the encounter evaluation cadence (default 30 s).
	ScanInterval time.Duration
	// MaxRangeM bounds the candidate search radius (default 120 m,
	// slightly beyond the best tag's decodable range).
	MaxRangeM float64
	// CrossEcosystem makes every reporting device report both vendors'
	// tags — the paper's hypothetical unified ecosystem, used by the
	// ablation benches. The paper's own "combined" analysis instead
	// merges the two co-located tags' histories after the fact.
	CrossEcosystem bool
	// Receiver is the scanning radio model (defaults to a typical phone).
	Receiver ble.Receiver
}

func (c *Config) defaults() {
	if c.ScanInterval <= 0 {
		c.ScanInterval = 30 * time.Second
	}
	if c.MaxRangeM <= 0 {
		c.MaxRangeM = 120
	}
	if c.Receiver == (ble.Receiver{}) {
		c.Receiver = ble.DefaultReceiver
	}
}

// Plane wires tags, a device fleet, and vendor clouds together.
type Plane struct {
	cfg      Config
	engine   *sim.Engine
	fleet    *device.Fleet
	tags     []*tag.Tag
	services map[trace.Vendor]*cloud.Service
	devs     []*device.Device // fleet.Devices(), cached for index lookups

	// Counters are atomics so a live serve loop (or a -metrics-every
	// logger) can read Stats concurrently with a running scan loop.
	ticks      atomic.Uint64
	heard      atomic.Uint64
	reported   atomic.Uint64
	delivered  atomic.Uint64
	reportsLog []trace.Report
	// RetainLog opts in to retaining every delivered report in
	// reportsLog (diagnostics; the clouds keep their own accepted
	// history). Off by default: a continental-scale world delivers
	// millions of reports, and streamed runs already sink them to the
	// pipeline — re-accumulating them here would defeat the bounded-
	// memory point of streaming.
	RetainLog bool

	// Scan hot-path state, all plane-owned so a tick allocates nothing:
	// tickKey is the RFC3339Nano scan instant formatted once per tick;
	// tagSeed caches each tag's "encounter/<id>/" stream-seed prefix, so
	// the per-(tag, tick) seed is tickKey hashed onto the cached prefix —
	// the exact seed the historical RNG(name) derivation produced;
	// beaconRem carries the fractional expected-beacon mass between
	// ticks per tag; elig holds each tag's per-device next-eligible
	// reporting instants (plane-owned and keyed by device index, so the
	// fleet's devices carry no per-tag cooldown state); buf is the
	// candidate index buffer and stream the reseedable RNG.
	tickKey   []byte
	tagSeed   []sim.StreamSeed
	beaconRem []float64
	elig      []map[int32]int64
	buf       []int32
	stream    *sim.Stream
}

// New builds a radio plane. Services are keyed by tag vendor; a tag whose
// vendor has no service still generates encounters but its reports go
// nowhere (used by ablations).
func New(cfg Config, e *sim.Engine, fleet *device.Fleet, tags []*tag.Tag, services map[trace.Vendor]*cloud.Service) *Plane {
	cfg.defaults()
	tagSeed := make([]sim.StreamSeed, len(tags))
	for i, tg := range tags {
		tagSeed[i] = e.StreamSeed().String("encounter/").String(tg.ID).String("/")
	}
	// Overflow accumulates across worlds: each plane contributes the tags
	// its fleet's grid index could not cell-bound.
	obsOverflow.Add(uint64(fleet.GridStats().Overflow))
	p := &Plane{
		cfg:       cfg,
		engine:    e,
		fleet:     fleet,
		tags:      tags,
		services:  services,
		devs:      fleet.Devices(),
		tickKey:   make([]byte, 0, len(time.RFC3339Nano)),
		tagSeed:   tagSeed,
		beaconRem: make([]float64, len(tags)),
		elig:      make([]map[int32]int64, len(tags)),
		buf:       make([]int32, 0, 256),
		stream:    sim.NewStream(),
	}
	for i := range p.elig {
		p.elig[i] = make(map[int32]int64)
	}
	return p
}

// Attach starts the scan loop at start; the returned function stops it.
func (p *Plane) Attach(start time.Time) (stop func()) {
	return p.engine.EveryFixed(start, p.cfg.ScanInterval, p.ScanOnce)
}

// Process-wide radio-plane series in the obs.Default registry,
// aggregated across every live Plane (a campaign builds one per world).
var (
	obsTicks     = obs.GetCounter("encounter_ticks_total")
	obsHeard     = obs.GetCounter("encounter_heard_total")
	obsReported  = obs.GetCounter("encounter_reported_total")
	obsDelivered = obs.GetCounter("encounter_delivered_total")
	obsOverflow  = obs.GetCounter("encounter_grid_overflow_total")
)

// ScanOnce evaluates one encounter window at the given virtual time.
func (p *Plane) ScanOnce(now time.Time) {
	p.ticks.Add(1)
	obsTicks.Inc()
	// One formatting of the scan instant serves every tag this tick; it
	// is the per-tick suffix of each tag's RNG stream name.
	p.tickKey = now.UTC().AppendFormat(p.tickKey[:0], time.RFC3339Nano)
	for i, tg := range p.tags {
		p.scanTag(i, tg, now)
	}
}

// scanTag evaluates one tag's scan window, scheduling each report's
// delivery as it is drawn.
func (p *Plane) scanTag(ti int, tg *tag.Tag, now time.Time) {
	tagPos := tg.Pos(now)
	beacons := tg.ExpectedBeacons(p.cfg.ScanInterval)
	// Count whole beacons and carry the fractional mass to the next tick,
	// so e.g. 22.5 expected beacons per window accounts 45 over two ticks
	// instead of truncating to 44.
	whole, frac := math.Modf(beacons + p.beaconRem[ti])
	p.beaconRem[ti] = frac
	tg.CountBeacons(uint64(whole))

	p.buf = p.fleet.NearIndices(tagPos, now, p.cfg.MaxRangeM, p.buf[:0])
	if len(p.buf) == 0 {
		return
	}
	rng := p.stream.Reseed(p.tagSeed[ti].Bytes(p.tickKey).Seed())
	elig := p.elig[ti]
	for _, di := range p.buf {
		dev := p.devs[di]
		if !dev.Reports(tg.Profile.Vendor, p.cfg.CrossEcosystem) {
			continue
		}
		devPos := dev.Pos(now)
		d := geo.Distance(devPos, tagPos)
		if d > p.cfg.MaxRangeM {
			continue
		}
		decodeProb := tg.Profile.Channel.DecodeProb(d, p.cfg.Receiver)
		hearProb := dev.Strategy.HearProb(beacons, decodeProb)
		if rng.Float64() >= hearProb {
			continue
		}
		p.heard.Add(1)
		obsHeard.Inc()
		cur := elig[di]
		next, delay, ok := dev.ReportDecision(now, cur, rng)
		if next != cur {
			elig[di] = next
		}
		if !ok {
			continue
		}
		p.reported.Add(1)
		obsReported.Inc()
		// The reported location is the device's GPS fix at hear time —
		// the approximation the paper identifies as the dominant error
		// source (up to the full Bluetooth range).
		fix := dev.GPSFix(now, rng)
		rssi := tg.Profile.Channel.SampleRSSI(d, 0, rng)
		rep := trace.Report{
			T:          now.Add(delay),
			HeardAt:    now,
			TagID:      tg.ID,
			Vendor:     tg.Profile.Vendor,
			ReporterID: dev.ID,
			Pos:        fix,
			RSSI:       rssi,
		}
		svc := p.services[tg.Profile.Vendor]
		if svc == nil {
			continue
		}
		p.schedule(rep, svc)
	}
}

// schedule registers the report's cloud delivery with the engine.
func (p *Plane) schedule(rep trace.Report, svc *cloud.Service) {
	p.engine.Schedule(rep.T, func() {
		if svc.Ingest(rep) {
			p.delivered.Add(1)
			obsDelivered.Inc()
			if p.RetainLog {
				p.reportsLog = append(p.reportsLog, rep)
			}
		}
	})
}

// scanStreamName is the per-(tag, scan instant) RNG stream name, so scan
// outcomes do not depend on how many other entities drew from a shared
// stream earlier. The hot path never builds this string — it extends the
// cached per-tag seed prefix with the tick key instead — but the name is
// the frozen contract both derivations must match (see TestScanStream).
func scanStreamName(tagID string, now time.Time) string {
	return "encounter/" + tagID + "/" + now.UTC().Format(time.RFC3339Nano)
}

// Stats returns plane counters: beacons heard, reports attempted (passed
// the vendor strategy), and reports accepted by the clouds. Safe to call
// concurrently with a running scan loop — each load is atomic (the three
// are not mutually consistent mid-tick).
func (p *Plane) Stats() (heard, reported, delivered uint64) {
	return p.heard.Load(), p.reported.Load(), p.delivered.Load()
}

// Ticks returns the number of scan windows evaluated so far. Safe for
// concurrent use.
func (p *Plane) Ticks() uint64 { return p.ticks.Load() }

// Log returns the delivered-report log when RetainLog is set.
func (p *Plane) Log() []trace.Report { return p.reportsLog }

// ExpectedHearProb exposes the plane's hear-probability computation for
// calibration tests: the probability a single device at distance d hears
// the tag within one scan interval. Distances beyond the plane's search
// radius return zero, exactly as the simulation behaves.
func (p *Plane) ExpectedHearProb(tg *tag.Tag, d float64) float64 {
	if d > p.cfg.MaxRangeM {
		return 0
	}
	return p.hearProbUngated(tg, d)
}

func (p *Plane) hearProbUngated(tg *tag.Tag, d float64) float64 {
	decodeProb := tg.Profile.Channel.DecodeProb(d, p.cfg.Receiver)
	beacons := tg.ExpectedBeacons(p.cfg.ScanInterval)
	// Use a representative strategy duty cycle (both vendors scan 1 s in
	// 10 s).
	s := device.AppleStrategy()
	return s.HearProb(beacons, decodeProb)
}

// MaxUsefulRange returns the distance beyond which the hear probability
// per scan drops below eps for the tag, clamped to the plane's search
// radius (encounters past MaxRangeM never happen regardless of the
// radio). Useful for sizing MaxRangeM.
func (p *Plane) MaxUsefulRange(tg *tag.Tag, eps float64) float64 {
	lo, hi := 1.0, 1000.0
	if p.hearProbUngated(tg, hi) > eps {
		return math.Min(hi, p.cfg.MaxRangeM)
	}
	for i := 0; i < 50; i++ {
		mid := (lo + hi) / 2
		if p.hearProbUngated(tg, mid) > eps {
			lo = mid
		} else {
			hi = mid
		}
	}
	return math.Min((lo+hi)/2, p.cfg.MaxRangeM)
}
