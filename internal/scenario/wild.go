package scenario

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"tagsim/internal/analysis"
	"tagsim/internal/cloud"
	"tagsim/internal/crawler"
	"tagsim/internal/device"
	"tagsim/internal/encounter"
	"tagsim/internal/geo"
	"tagsim/internal/mobility"
	"tagsim/internal/pipeline"
	"tagsim/internal/population"
	"tagsim/internal/runner"
	"tagsim/internal/sim"
	"tagsim/internal/tag"
	"tagsim/internal/trace"
	"tagsim/internal/vantage"
)

// Samsung requires an explicit opt-in for location reporting, which the
// paper credits for the sparse Samsung fleet (Table 1's report columns).
// Opt-in is modeled as demographically correlated: phones out on the
// street and riding transit belong disproportionately to active
// SmartThings users (high opt-in), while the long tail of stay-at-home
// handsets is rarely opted in. The split reconciles the paper's two
// observations — Apple dominates raw report counts (driven by home
// neighborhoods, where iPhones are ubiquitous and Samsung reporters
// rare), yet SmartTag accuracy in the field matches AirTag's because the
// Samsung devices that are out there report aggressively.
const (
	samsungActiveOptIn   = 0.8 // ambient pedestrians, co-travelers
	samsungResidentOptIn = 0.1 // residents and home neighbors
)

// WildConfig parameterizes the in-the-wild campaign (Table 1, Figures
// 5-8): volunteers carry a vantage point with both tags through the
// configured countries.
type WildConfig struct {
	Seed      int64
	Countries []CountrySpec
	// Scale shrinks the campaign for quick runs: days and distance quotas
	// are multiplied by it (1 = the paper's full 120 days).
	Scale float64
	// DevicesPerCity sizes each city's reporting fleet (default 600).
	DevicesPerCity int
	// FleetScale multiplies every reporting-crowd size — city residents,
	// ambient pedestrians, venue staff, home neighbors, and co-traveler
	// draws — without touching the participant itinerary or geography
	// (default 1). It is the fleet-growth knob the encounter plane's
	// spatial index exists for: 10-100x fleets while the scan stays on
	// the grid-indexed hot path.
	FleetScale float64
	// CityRadiusKm bounds each synthetic city (default 2).
	CityRadiusKm float64
	// Workers bounds how many country worlds run concurrently: 0 means
	// one per CPU, 1 reproduces the historical sequential behavior.
	// Every country is a self-contained world with its own engine and
	// seed-derived RNG streams, so the output is identical for any
	// value (see internal/runner).
	Workers int
	// Stream, when set, attaches every country world to a streaming
	// campaign pipeline sized with PlanWild's job count: accepted cloud
	// reports, uploaded ground-truth fixes, and crawl records publish
	// through world Index's emitter as the engine runs, and each world
	// closes its emitter when its stay ends. Unless StreamRetain is
	// set, the worlds then retain nothing — CountryResult.Dataset is
	// empty and Homes nil; the pipeline's consumers own the data (see
	// experiments.NewCampaign for the reassembly). The caller must
	// Wait on the pipeline after RunWild returns.
	Stream *pipeline.Pipeline
	// StreamRetain keeps the historical in-world record retention while
	// also streaming — for callers (cmd/tagsim's report log) that need
	// both the live stream and the batch datasets.
	StreamRetain bool
}

func (c *WildConfig) defaults() {
	if len(c.Countries) == 0 {
		c.Countries = Table1Countries()
	}
	if c.Scale <= 0 {
		c.Scale = 1
	}
	if c.DevicesPerCity <= 0 {
		c.DevicesPerCity = 600
	}
	if c.FleetScale <= 0 {
		c.FleetScale = 1
	}
	if c.CityRadiusKm <= 0 {
		c.CityRadiusKm = 2
	}
}

// scaleCount applies FleetScale to a crowd size, never dropping a crowd
// to zero. At the default scale of 1 it is the identity, so the RNG draw
// sequence — and therefore the whole campaign output — is untouched.
func (c *WildConfig) scaleCount(n int) int {
	if c.FleetScale == 1 {
		return n
	}
	scaled := int(float64(n)*c.FleetScale + 0.5)
	if scaled < 1 {
		scaled = 1
	}
	return scaled
}

// CountryResult is one country's campaign output.
type CountryResult struct {
	Spec CountrySpec
	// Days actually simulated after scaling.
	Days int
	// Start/End bound the stay.
	Start, End time.Time
	// Dataset holds the vantage ground truth and both crawler logs.
	Dataset *analysis.Dataset
	// AppleNow/SamsungNow are Table 1's "# Report" columns: crawl polls
	// that showed the tag as seen "Now".
	AppleNow, SamsungNow int
	// KmByClass decomposes the vantage distance per speed class.
	KmByClass map[mobility.SpeedClass]float64
	// Population is the primary city's density raster (Figures 6-7).
	Population *population.Map
	// Homes are the participant's detected overnight locations.
	Homes []geo.LatLon
	// Clouds are the country's vendor services with their full accepted
	// state — what cmd/tagserve restores into its serving stores. The
	// retention is cheap relative to Dataset: ingestion is rate-capped
	// at ~19 accepted reports/hour/tag, versus thousands of daily
	// ground-truth fixes and crawl records.
	Clouds map[trace.Vendor]*cloud.Service
}

// WildResult is the whole campaign.
type WildResult struct {
	Countries []CountryResult
}

// MergedDataset concatenates all countries' data into one dataset (the
// stays are disjoint in time by construction).
func (w *WildResult) MergedDataset() *analysis.Dataset {
	var gt []trace.GroundTruth
	crawls := map[trace.Vendor][]trace.CrawlRecord{}
	for _, c := range w.Countries {
		gt = append(gt, c.Dataset.GroundTruth...)
		for v, recs := range c.Dataset.Crawls {
			crawls[v] = append(crawls[v], recs...)
		}
	}
	return analysis.NewDataset(gt, crawls)
}

// Span returns the campaign time range.
func (w *WildResult) Span() (from, to time.Time) {
	if len(w.Countries) == 0 {
		return time.Time{}, time.Time{}
	}
	return w.Countries[0].Start, w.Countries[len(w.Countries)-1].End
}

// CountryJob is one self-contained, schedulable unit of the campaign: a
// single country's world, with everything needed to build and run it.
// Jobs carry no shared mutable state — each builds its own sim.Engine
// seeded from (Seed, Index) — so the pool may execute them in any
// interleaving and the results are identical to a sequential run.
type CountryJob struct {
	Cfg   WildConfig
	Spec  CountrySpec
	Index int
	// Start opens this country's time window; windows are consecutive
	// and disjoint across the campaign.
	Start time.Time
	// Days is the stay length after scaling.
	Days int
}

// PlanWild lays out the campaign schedule without running anything.
// Each country's window follows the previous one's end, which depends
// only on the scaled stay lengths — so every job's start is known up
// front and jobs need no predecessor's output.
func PlanWild(cfg WildConfig) []CountryJob {
	cfg.defaults()
	jobs := make([]CountryJob, 0, len(cfg.Countries))
	start := CampaignStart
	for ci, spec := range cfg.Countries {
		days := int(float64(spec.Days)*cfg.Scale + 0.5)
		if days < 1 {
			days = 1
		}
		jobs = append(jobs, CountryJob{Cfg: cfg, Spec: spec, Index: ci, Start: start, Days: days})
		start = start.Add(time.Duration(days) * 24 * time.Hour)
	}
	return jobs
}

// Run executes the job: build the world, then run it to completion.
func (j CountryJob) Run() CountryResult { return j.build().run() }

// RunWild simulates the full campaign. Countries are independent worlds
// occupying consecutive time windows, so they run concurrently on
// cfg.Workers workers and are reassembled in spec order.
func RunWild(cfg WildConfig) *WildResult {
	jobs := PlanWild(cfg) // PlanWild applies the config defaults

	return &WildResult{Countries: runner.Map(cfg.Workers, len(jobs), func(i int) CountryResult {
		return jobs[i].Run()
	})}
}

// replicateSeedStride separates replicate seed spaces. It dwarfs every
// intra-campaign seed offset (countries use index*1000, tags index*10),
// so replicate streams can never collide.
const replicateSeedStride = 1 << 20

// ReplicateSeed derives the base seed of replicate r; replicate 0 keeps
// the base seed, so the first replicate reproduces RunWild exactly.
func ReplicateSeed(base int64, r int) int64 { return base + int64(r)*replicateSeedStride }

// RunWildReplicates fans the same campaign config across n seeds and
// returns one WildResult per replicate, in replicate order. All
// (replicate, country) worlds are flattened into a single pool
// submission, so a machine with more cores than countries still
// saturates. Peak memory holds all n results at once; size large
// sweeps accordingly (or run them in batches).
func RunWildReplicates(cfg WildConfig, n int) []*WildResult {
	if n <= 0 {
		return nil
	}
	cfg.defaults()
	jobs := make([]CountryJob, 0, n*len(cfg.Countries))
	for r := 0; r < n; r++ {
		rcfg := cfg
		rcfg.Seed = ReplicateSeed(cfg.Seed, r)
		jobs = append(jobs, PlanWild(rcfg)...)
	}
	results := runner.Map(cfg.Workers, len(jobs), func(i int) CountryResult {
		return jobs[i].Run()
	})
	per := len(cfg.Countries)
	out := make([]*WildResult, n)
	for r := 0; r < n; r++ {
		out[r] = &WildResult{Countries: results[r*per : (r+1)*per : (r+1)*per]}
	}
	return out
}

// countryWorld is a fully built, ready-to-run country: the build phase
// (geography, fleet, itinerary, tags, instruments) is separated from the
// run phase so each stays on the job's own engine and either can be
// profiled on its own.
type countryWorld struct {
	job            CountryJob
	e              *sim.Engine
	end            time.Time
	itin           *mobility.Itinerary
	pop            *population.Map // primary city raster (Figures 6-7)
	vp             *vantage.VantagePoint
	appleCrawler   *crawler.Crawler
	samsungCrawler *crawler.Crawler
	clouds         map[trace.Vendor]*cloud.Service
	fleet          *device.Fleet
	tags           []*tag.Tag
	plane          *encounter.Plane
	em             *pipeline.WorldEmitter // nil outside streaming runs
}

// build constructs the country's world on a fresh engine.
func (j CountryJob) build() *countryWorld {
	cfg, spec, index, start, days := j.Cfg, j.Spec, j.Index, j.Start, j.Days
	e := sim.NewEngine(start, cfg.Seed+int64(index)*1000)
	rng := e.RNG("country/" + spec.Code)
	end := start.Add(time.Duration(days) * 24 * time.Hour)

	// Synthetic geography: city centers on a ring around the country
	// anchor, each with a population raster and shared venues.
	centers := make([]geo.LatLon, spec.Cities)
	for i := range centers {
		bearing := float64(i) * 360 / float64(spec.Cities)
		dist := 0.0
		if spec.Cities > 1 {
			dist = 9000 + rng.Float64()*5000
		}
		centers[i] = geo.Destination(spec.Center, bearing, dist)
	}
	pops := make([]*population.Map, spec.Cities)
	venues := make([][]geo.LatLon, spec.Cities)
	for i, c := range centers {
		pops[i] = population.SyntheticCity(population.CityConfig{
			Center: c, RadiusKm: cfg.CityRadiusKm, Population: spec.CityPopulation,
		}, rng)
		// Five venues per city, density-weighted: where both residents
		// and the participant go.
		vs := make([]geo.LatLon, 5)
		for k := range vs {
			vs[k] = pops[i].SampleHome(rng)
		}
		venues[i] = vs
	}

	// Participant homes: one per city, density-weighted.
	homes := make([]geo.LatLon, spec.Cities)
	for i := range homes {
		homes[i] = pops[i].SampleHome(rng)
	}

	// Vantage itinerary matching the country's distance quotas.
	quota := dayQuota{
		walkKm:    spec.WalkKm * cfg.Scale / float64(days),
		jogKm:     spec.JogKm * cfg.Scale / float64(days),
		transitKm: spec.TransitKm * cfg.Scale / float64(days),
	}
	itin, coTravel := buildCountryItinerary(rng, start, days, homes, centers, venues, quota)

	// Reporting fleet: per city, homes density-weighted (30% biased to
	// within 500 m of a venue — activity centers concentrate phones),
	// daily routines around the shared venues, plus ambient street
	// wanderers circulating around each venue.
	var devices []*device.Device
	pickVendor := func() trace.Vendor {
		r := rng.Float64()
		switch {
		case r < spec.AppleShare:
			return trace.VendorApple
		case r < spec.AppleShare+spec.SamsungShare:
			return trace.VendorSamsung
		default:
			return trace.VendorOther
		}
	}
	for i := range centers {
		for k := 0; k < cfg.scaleCount(cfg.DevicesPerCity); k++ {
			vendor := pickVendor()
			var home geo.LatLon
			if rng.Float64() < 0.35 {
				v := venues[i][rng.Intn(len(venues[i]))]
				home = geo.Destination(v, rng.Float64()*360, 40+rng.Float64()*460)
			} else {
				home = pops[i].SampleHome(rng)
			}
			routine := mobility.DailyRoutine(rng, mobility.RoutineConfig{
				Home:   home,
				Work:   maybeWork(rng, pops[i]),
				Venues: venues[i],
			}, start, days)
			d := device.New(fmt.Sprintf("%s-c%d-dev%04d", spec.Code, i, k), vendor, home, routine)
			if vendor == trace.VendorSamsung {
				d.OptedIn = rng.Float64() < samsungResidentOptIn // opt-in required
			}
			devices = append(devices, d)
		}
		// Ambient pedestrians around each venue: the street crowd that a
		// resident-only model under-represents. They wander the venue's
		// surroundings during waking hours and sleep far away — the
		// street empties at night, which is what depresses the paper's
		// night-period accuracy (Figure 5e).
		for vi, v := range venues[i] {
			for k := 0; k < cfg.scaleCount(12); k++ {
				w := dayWanderer(rng, v, 250, start, days)
				d := device.New(fmt.Sprintf("%s-c%d-amb%d-%d", spec.Code, i, vi, k), pickVendor(), v, w)
				if d.Vendor == trace.VendorSamsung {
					d.OptedIn = rng.Float64() < samsungActiveOptIn
				}
				devices = append(devices, d)
			}
			// Venue dwellers: staff and seated patrons whose phones sit
			// meters from anyone at the venue during opening hours — the
			// cafe tables of the paper's campaign.
			for k := 0; k < cfg.scaleCount(3); k++ {
				p := geo.Destination(v, rng.Float64()*360, 5+rng.Float64()*20)
				d := device.New(fmt.Sprintf("%s-c%d-stf%d-%d", spec.Code, i, vi, k), pickVendor(), p, venueDweller(rng, p, start, days))
				if d.Vendor == trace.VendorSamsung {
					d.OptedIn = rng.Float64() < samsungActiveOptIn
				}
				devices = append(devices, d)
			}
		}
	}
	// Home neighbors: the phones living within Bluetooth reach of each
	// participant home. They produce the at-home report stream that
	// dominates Table 1's raw counts (65% of the paper's data was near
	// home) but is excluded from the accuracy analysis by the home
	// filter.
	for hi, h := range homes {
		for k := 0; k < cfg.scaleCount(12); k++ {
			np := geo.Destination(h, rng.Float64()*360, 30+rng.Float64()*220)
			d := device.New(fmt.Sprintf("%s-nbr%d-%d", spec.Code, hi, k), pickVendor(), np, mobility.Stationary(np))
			if d.Vendor == trace.VendorSamsung {
				d.OptedIn = rng.Float64() < samsungResidentOptIn
			}
			devices = append(devices, d)
		}
	}
	// Co-travelers: fellow passengers sharing each of the participant's
	// transit rides — the paper's trains and buses are full of phones
	// that ride within Bluetooth range for the whole leg.
	for si, spec2 := range coTravel {
		n := poisson(rng, 6*cfg.FleetScale)
		for k := 0; k < n; k++ {
			it := mobility.NewItinerary(spec2.start, spec2.segments...)
			d := device.New(fmt.Sprintf("%s-ride%d-pax%d", spec.Code, si, k), pickVendor(), it.Pos(spec2.start), it)
			d.ActiveFrom = spec2.start.Add(-time.Minute)
			d.ActiveTo = it.End().Add(time.Minute)
			if d.Vendor == trace.VendorSamsung {
				d.OptedIn = rng.Float64() < samsungActiveOptIn
			}
			devices = append(devices, d)
		}
	}
	fleet := device.NewFleet(spec.Center, devices)

	// Tags ride the vantage point.
	airTag := tag.New("airtag-1", tag.AirTagProfile(), itin, uint64(cfg.Seed)+uint64(index)*10+1, start)
	smartTag := tag.New("smarttag-1", tag.SmartTagProfile(), itin, uint64(cfg.Seed)+uint64(index)*10+2, start)
	apple := cloud.NewService(trace.VendorApple)
	samsung := cloud.NewService(trace.VendorSamsung)
	apple.Register(airTag.ID)
	samsung.Register(smartTag.ID)
	clouds := map[trace.Vendor]*cloud.Service{
		trace.VendorApple:   apple,
		trace.VendorSamsung: samsung,
	}
	tags := []*tag.Tag{airTag, smartTag}
	plane := encounter.New(encounter.Config{}, e, fleet, tags, clouds)
	plane.Attach(start)

	// Vantage point and crawlers.
	vp := vantage.New(vantage.DefaultConfig("vp-"+spec.Code), itin, e.RNG("vantage/"+spec.Code))
	vp.Attach(e, start)
	appleCrawler := crawler.New(crawler.DefaultConfig(trace.VendorApple), apple, []string{airTag.ID}, e.RNG("crawl/apple/"+spec.Code))
	samsungCrawler := crawler.New(crawler.DefaultConfig(trace.VendorSamsung), samsung, []string{smartTag.ID}, e.RNG("crawl/samsung/"+spec.Code))
	appleCrawler.Attach(e, start)
	samsungCrawler.Attach(e, start)

	// Streaming: tap every record stream into the world's pipeline
	// emitter. The taps run on the engine's goroutine, so emission
	// order is the engine's deterministic event order; the bounded
	// channel hands the stream to the pipeline's consumers. None of
	// this perturbs any RNG draw, so the simulated records are
	// byte-identical to a batch run with the same seed.
	var em *pipeline.WorldEmitter
	if cfg.Stream != nil {
		em = cfg.Stream.World(index)
		em.RegisterTag(trace.VendorApple, airTag.ID)
		em.RegisterTag(trace.VendorSamsung, smartTag.ID)
		apple.Tap = em.Report
		samsung.Tap = em.Report
		appleCrawler.Tap = em.Crawl
		samsungCrawler.Tap = em.Crawl
		vp.Tap = em.Fixes
		if !cfg.StreamRetain {
			appleCrawler.Discard = true
			samsungCrawler.Discard = true
			vp.Discard = true
		}
	}

	return &countryWorld{
		job:            j,
		e:              e,
		end:            end,
		itin:           itin,
		pop:            pops[0],
		vp:             vp,
		appleCrawler:   appleCrawler,
		samsungCrawler: samsungCrawler,
		clouds:         clouds,
		fleet:          fleet,
		tags:           tags,
		plane:          plane,
		em:             em,
	}
}

// run drives the world's engine to the end of the stay and collects the
// country's campaign output. In a streaming run the emitter is closed
// here — after the final vantage flush — sealing the world's batch
// sequence; the retained Dataset/Homes are then empty unless
// StreamRetain kept them.
func (w *countryWorld) run() CountryResult {
	w.e.RunUntil(w.end)
	w.vp.Flush(w.end) // deliver whatever is still buffered
	if w.em != nil {
		w.em.Close()
	}

	gt := w.vp.Records()
	ds := analysis.NewDataset(gt, map[trace.Vendor][]trace.CrawlRecord{
		trace.VendorApple:   w.appleCrawler.Records(),
		trace.VendorSamsung: w.samsungCrawler.Records(),
	})
	kmByClass := make(map[mobility.SpeedClass]float64)
	for cls, m := range w.itin.DistanceByClass() {
		kmByClass[cls] += m / 1000
	}
	return CountryResult{
		Spec:       w.job.Spec,
		Days:       w.job.Days,
		Start:      w.job.Start,
		End:        w.end,
		Dataset:    ds,
		AppleNow:   w.appleCrawler.NowCount(),
		SamsungNow: w.samsungCrawler.NowCount(),
		KmByClass:  kmByClass,
		Population: w.pop,
		Homes:      analysis.DetectHomes(gt, 300),
		Clouds:     w.clouds,
	}
}

// dayWanderer builds an ambient pedestrian: random walks within radiusM
// of anchor between ~08:00 and ~22:30 each day, overnight at a home well
// away from the venue.
func dayWanderer(rng *rand.Rand, anchor geo.LatLon, radiusM float64, start time.Time, days int) *mobility.Itinerary {
	home := geo.Destination(anchor, rng.Float64()*360, 700+rng.Float64()*800)
	var segments []mobility.Segment
	clock := time.Duration(0)
	cur := home
	stayUntil := func(until time.Duration) {
		if until > clock {
			segments = append(segments, mobility.Stay{At: cur, For: until - clock})
			clock = until
		}
	}
	for d := 0; d < days; d++ {
		dayStart := time.Duration(d) * 24 * time.Hour
		wake := dayStart + 8*time.Hour + time.Duration(rng.Int63n(int64(90*time.Minute)))
		stayUntil(wake)
		end := dayStart + 22*time.Hour + time.Duration(rng.Int63n(int64(time.Hour)))
		for clock < end {
			dest := geo.Destination(anchor, rng.Float64()*360, rng.Float64()*radiusM)
			mv := mobility.Move{Along: geo.Path{cur, dest}, SpeedKmh: 2 + rng.Float64()*3}
			if mv.Duration() > 0 {
				segments = append(segments, mv)
				clock += mv.Duration()
				cur = dest
			}
			pause := time.Minute + time.Duration(rng.Int63n(int64(8*time.Minute)))
			segments = append(segments, mobility.Stay{At: cur, For: pause})
			clock += pause
		}
		mv := mobility.Move{Along: geo.Path{cur, home}, SpeedKmh: 4}
		if mv.Duration() > 0 {
			segments = append(segments, mv)
			clock += mv.Duration()
			cur = home
		}
		stayUntil(dayStart + 24*time.Hour)
	}
	return mobility.NewItinerary(start, segments...)
}

// venueDweller builds a staff/patron phone: at its venue spot during
// opening hours (~09:00-22:00), home overnight.
func venueDweller(rng *rand.Rand, spot geo.LatLon, start time.Time, days int) *mobility.Itinerary {
	home := geo.Destination(spot, rng.Float64()*360, 600+rng.Float64()*900)
	var segments []mobility.Segment
	clock := time.Duration(0)
	cur := home
	stayUntil := func(until time.Duration) {
		if until > clock {
			segments = append(segments, mobility.Stay{At: cur, For: until - clock})
			clock = until
		}
	}
	for d := 0; d < days; d++ {
		dayStart := time.Duration(d) * 24 * time.Hour
		open := dayStart + 9*time.Hour + time.Duration(rng.Int63n(int64(time.Hour)))
		stayUntil(open)
		mv := mobility.Move{Along: geo.Path{cur, spot}, SpeedKmh: 18}
		segments = append(segments, mv)
		clock += mv.Duration()
		cur = spot
		close := dayStart + 21*time.Hour + time.Duration(rng.Int63n(int64(90*time.Minute)))
		stayUntil(close)
		back := mobility.Move{Along: geo.Path{cur, home}, SpeedKmh: 18}
		segments = append(segments, back)
		clock += back.Duration()
		cur = home
		stayUntil(dayStart + 24*time.Hour)
	}
	return mobility.NewItinerary(start, segments...)
}

func maybeWork(rng *rand.Rand, pop *population.Map) geo.LatLon {
	if rng.Float64() < 0.6 {
		return pop.SampleHome(rng)
	}
	return geo.LatLon{}
}

// dayQuota is the per-day distance budget by mobility class.
type dayQuota struct {
	walkKm, jogKm, transitKm float64
}

// coTravelerSpec describes one transit ride (sub-legs plus station stops)
// that fellow-passenger devices replay alongside the participant.
type coTravelerSpec struct {
	start    time.Time
	segments []mobility.Segment
}

// buildCountryItinerary plans the participant's days: overnight at the
// city home, a morning jog, a transit trip to a venue (possibly in another
// city) with walking there, and a transit return — consuming the Table 1
// distance quotas. Evening outings on some days extend coverage into the
// paper's evening/night periods. Every transit ride is returned as a
// co-traveler spec so the fleet can seat passengers on it.
func buildCountryItinerary(rng *rand.Rand, start time.Time, days int, homes, centers []geo.LatLon, venues [][]geo.LatLon, q dayQuota) (*mobility.Itinerary, []coTravelerSpec) {
	nCities := len(homes)
	var segments []mobility.Segment
	var specs []coTravelerSpec
	clock := time.Duration(0) // offset from start
	cur := homes[0]

	stayUntil := func(until time.Duration) {
		if until > clock {
			segments = append(segments, mobility.Stay{At: cur, For: until - clock})
			clock = until
		}
	}
	move := func(dest geo.LatLon, speedKmh float64) {
		if dest == cur || speedKmh <= 0 {
			return
		}
		mv := mobility.Move{Along: geo.Path{cur, dest}, SpeedKmh: speedKmh}
		segments = append(segments, mv)
		clock += mv.Duration()
		cur = dest
	}
	// ride is a transit leg with station stops every couple of km; the
	// stops matter because a report of a moving tag is mislocated by the
	// crawler's timestamp quantization, while a report at a stop is not.
	ride := func(path geo.Path, speedKmh float64) {
		segs := transitSegments(rng, path, speedKmh)
		if len(segs) == 0 {
			return
		}
		specs = append(specs, coTravelerSpec{start: start.Add(clock), segments: segs})
		for _, s := range segs {
			segments = append(segments, s)
			clock += s.Duration()
		}
		cur = segs[len(segs)-1].End()
	}
	// wander walks a zig-zag of the given total length around an anchor.
	wander := func(anchor geo.LatLon, totalM float64, speedKmh float64) {
		remaining := totalM
		for remaining > 10 {
			leg := 80 + rng.Float64()*220
			if leg > remaining {
				leg = remaining
			}
			dest := geo.Destination(anchor, rng.Float64()*360, 30+rng.Float64()*400)
			mv := mobility.Move{Along: geo.Path{cur, dest}, SpeedKmh: speedKmh}
			if l := mv.Along.Length(); l > 1 {
				scaled := geo.Lerp(cur, dest, leg/l)
				mv = mobility.Move{Along: geo.Path{cur, scaled}, SpeedKmh: speedKmh}
			}
			segments = append(segments, mv)
			clock += mv.Duration()
			cur = mv.End()
			remaining -= mv.Along.Length()
		}
	}

	for d := 0; d < days; d++ {
		dayStart := time.Duration(d) * 24 * time.Hour
		cityIdx := d * nCities / days // rotate through cities
		home := homes[cityIdx]
		if cur != home {
			// Overnight relocation to the next city's home (counts as
			// transit).
			ride(geo.Path{cur, home}, 50+rng.Float64()*30)
		}
		// Morning jog: out-and-back loop near home.
		jogStart := dayStart + 7*time.Hour + time.Duration(rng.Int63n(int64(time.Hour)))
		stayUntil(jogStart)
		if q.jogKm > 0.01 {
			half := geo.Destination(home, rng.Float64()*360, q.jogKm*1000/2)
			speed := 8 + rng.Float64()*3 // jogging: 8-11 km/h
			move(half, speed)
			move(home, speed)
		}
		// Midday trip: transit to a venue in some city (a highway detour
		// absorbs the day's transit quota — long rides cross empty
		// country, but the destination is always a real activity
		// center), walk around it, then ride straight home.
		tripStart := dayStart + 10*time.Hour + time.Duration(rng.Int63n(int64(2*time.Hour)))
		stayUntil(tripStart)
		if q.transitKm > 0.01 {
			destCity := cityIdx
			if nCities > 1 && rng.Float64() < 0.6 {
				destCity = (cityIdx + 1 + rng.Intn(nCities-1)) % nCities
			}
			vs := venues[destCity]
			venue := vs[rng.Intn(len(vs))]
			dayTransitM := q.transitKm * 1000
			backM := geo.Distance(venue, home)
			outTarget := dayTransitM - backM
			speed := 32 + rng.Float64()*16 // transit: 32-48 km/h
			ride(detourPath(home, venue, outTarget, rng), speed)
			// Walk the day's quota around the venue, then settle at the
			// venue itself — where the crowd is — for the long stay.
			if q.walkKm > 0.01 {
				wander(venue, q.walkKm*1000, 3.5+rng.Float64()*2)
			}
			move(venue, 4+rng.Float64()*1.5)
			stayUntil(clock + 45*time.Minute + time.Duration(rng.Int63n(int64(75*time.Minute))))
			ride(geo.Path{cur, home}, speed)
		} else if q.walkKm > 0.01 {
			wander(home, q.walkKm*1000, 3.5+rng.Float64()*2)
			move(home, 4)
		}
		// Evening outing on ~70% of days, reaching the evening/night
		// periods. A nearby venue is preferred (dinner out); otherwise a
		// spot within walking distance, its leg drawn from the walk
		// quota so Table 1's walk column stays faithful.
		if rng.Float64() < 0.7 {
			out := dayStart + 19*time.Hour + time.Duration(rng.Int63n(int64(3*time.Hour)))
			stayUntil(out)
			dest := geo.Destination(home, rng.Float64()*360, clampF(q.walkKm*1000*0.15, 80, 600))
			if v, ok := nearestVenue(venues[cityIdx], home, 1200); ok && rng.Float64() < 0.6 {
				dest = v
			}
			move(dest, 4+rng.Float64()*1.5)
			stayUntil(clock + 40*time.Minute + time.Duration(rng.Int63n(int64(80*time.Minute))))
			move(home, 4+rng.Float64()*1.5)
		}
		stayUntil(dayStart + 24*time.Hour)
	}
	return mobility.NewItinerary(start, segments...), specs
}

// transitSegments subdivides a ride into ~2 km sub-legs separated by
// 45-90 s station stops.
func transitSegments(rng *rand.Rand, path geo.Path, speedKmh float64) []mobility.Segment {
	total := path.Length()
	if total < 1 || speedKmh <= 0 {
		return nil
	}
	var out []mobility.Segment
	pos := 0.0
	prev := path.At(0)
	for pos < total {
		leg := 1500 + rng.Float64()*1500
		next := pos + leg
		if next > total-500 {
			next = total
		}
		stopAt := path.At(next)
		out = append(out, mobility.Move{Along: geo.Path{prev, stopAt}, SpeedKmh: speedKmh})
		if next < total {
			out = append(out, mobility.Stay{At: stopAt, For: 45*time.Second + time.Duration(rng.Int63n(int64(45*time.Second)))})
		}
		prev = stopAt
		pos = next
	}
	return out
}

// detourPath builds a transit route from home to venue whose ground length
// is targetM: direct when the quota is small, otherwise a triangle via a
// perpendicular detour point (the highway loop long-distance commutes take
// in the paper's campaign, where days covered over 100 transit km).
func detourPath(home, venue geo.LatLon, targetM float64, rng *rand.Rand) geo.Path {
	direct := geo.Distance(home, venue)
	if targetM <= direct+200 || direct < 1 {
		return geo.Path{home, venue}
	}
	// Each half of the triangle is sqrt((direct/2)^2 + h^2); solve for
	// the perpendicular offset h that makes the total equal targetM.
	half := targetM / 2
	h := math.Sqrt(math.Max(half*half-direct*direct/4, 0))
	mid := geo.Midpoint(home, venue)
	side := 90.0
	if rng.Intn(2) == 0 {
		side = -90
	}
	perp := geo.Bearing(home, venue) + side
	detour := geo.Destination(mid, perp, h)
	return geo.Path{home, detour, venue}
}

// nearestVenue returns the closest venue within maxM of p.
func nearestVenue(vs []geo.LatLon, p geo.LatLon, maxM float64) (geo.LatLon, bool) {
	best := geo.LatLon{}
	bestD := maxM
	found := false
	for _, v := range vs {
		if d := geo.Distance(v, p); d <= bestD {
			best, bestD, found = v, d, true
		}
	}
	return best, found
}

func clampF(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
