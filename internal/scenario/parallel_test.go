package scenario

import (
	"reflect"
	"testing"
	"time"

	"tagsim/internal/device"
	"tagsim/internal/geo"
	"tagsim/internal/trace"
)

// equalCountry compares one country's campaign output by observable
// state. The serving store's lock-free read path publishes per-tag
// views through atomic pointers, so reflect.DeepEqual over the live
// Clouds services can never match between two runs (the pointer
// addresses always differ); the clouds are instead compared through
// their deterministic store snapshots, which capture exactly the
// observable state — counters plus sorted per-tag last-seen and
// history. Every other field is compared deeply as before.
func equalCountry(a, b CountryResult) bool {
	ca, cb := a.Clouds, b.Clouds
	a.Clouds, b.Clouds = nil, nil
	if !reflect.DeepEqual(a, b) || len(ca) != len(cb) {
		return false
	}
	for v, sa := range ca {
		sb, ok := cb[v]
		if !ok || !reflect.DeepEqual(sa.Snapshot(), sb.Snapshot()) {
			return false
		}
	}
	return true
}

// equalWild is equalCountry over whole campaigns.
func equalWild(a, b *WildResult) bool {
	if len(a.Countries) != len(b.Countries) {
		return false
	}
	for i := range a.Countries {
		if !equalCountry(a.Countries[i], b.Countries[i]) {
			return false
		}
	}
	return true
}

// tinyCampaign is a three-country campaign small enough to simulate in
// seconds but wide enough that a parallel runner actually overlaps
// worlds.
func tinyCampaign(seed int64, workers int) WildConfig {
	return WildConfig{
		Seed:    seed,
		Workers: workers,
		Countries: []CountrySpec{
			{Code: "AA", Cities: 1, Days: 1, WalkKm: 3, JogKm: 2, TransitKm: 25,
				Center: geo.LatLon{Lat: 24.4539, Lon: 54.3773}, CityPopulation: 120000,
				AppleShare: 0.7, SamsungShare: 0.2},
			{Code: "BB", Cities: 2, Days: 1, WalkKm: 4, JogKm: 2, TransitKm: 40,
				Center: geo.LatLon{Lat: 45.4642, Lon: 9.1900}, CityPopulation: 100000,
				AppleShare: 0.5, SamsungShare: 0.3},
			{Code: "CC", Cities: 1, Days: 2, WalkKm: 5, JogKm: 3, TransitKm: 30,
				Center: geo.LatLon{Lat: 52.5200, Lon: 13.4050}, CityPopulation: 110000,
				AppleShare: 0.6, SamsungShare: 0.15},
		},
		DevicesPerCity: 120,
	}
}

func TestPlanWildWindows(t *testing.T) {
	cfg := WildConfig{Seed: 1, Scale: 0.1}
	jobs := PlanWild(cfg)
	if len(jobs) != 6 {
		t.Fatalf("%d jobs, want 6 (Table 1 countries)", len(jobs))
	}
	prevEnd := CampaignStart
	for i, j := range jobs {
		if j.Index != i {
			t.Errorf("job %d carries index %d", i, j.Index)
		}
		if !j.Start.Equal(prevEnd) {
			t.Errorf("job %d starts %v, want the previous end %v", i, j.Start, prevEnd)
		}
		if j.Days < 1 {
			t.Errorf("job %d has %d days; scaling must clamp to >= 1", i, j.Days)
		}
		prevEnd = j.Start.Add(time.Duration(j.Days) * 24 * time.Hour)
	}
}

// TestWildParallelDeterminism is the refactor's headline property: a
// parallel campaign is deep-equal to the sequential one, country by
// country, dataset by dataset.
func TestWildParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("wild campaign is slow")
	}
	sequential := RunWild(tinyCampaign(31, 1))
	for _, workers := range []int{8, 0} {
		parallel := RunWild(tinyCampaign(31, workers))
		if len(parallel.Countries) != len(sequential.Countries) {
			t.Fatalf("workers=%d: %d countries, want %d", workers, len(parallel.Countries), len(sequential.Countries))
		}
		for i := range sequential.Countries {
			a, b := sequential.Countries[i], parallel.Countries[i]
			if !equalCountry(a, b) {
				t.Errorf("workers=%d: country %s diverged from the sequential run (fixes %d vs %d, apple now %d vs %d)",
					workers, a.Spec.Code, len(a.Dataset.GroundTruth), len(b.Dataset.GroundTruth), a.AppleNow, b.AppleNow)
			}
		}
	}
}

// TestWildGridEquivalence is the spatial index's headline property on
// the worlds the campaign builds: every candidate query a wild world's
// scan loop issues — one per (tick, tag), at the encounter plane's own
// scan interval and search radius — gets from the grid-indexed
// NearIndices exactly the devices, in exactly the order, of the NearBrute
// linear scan. A query depends only on static world data (device homes,
// roam bounds and active windows, the tag's itinerary, the tick time),
// so the worlds are built but never run. The shape is the end-to-end
// benchmark's repro campaign (Scale 0.05, 120 devices per city), whose
// fleets span enough grid cells that the queries take the grid path
// rather than its linear fallback. Runs under -race in CI.
func TestWildGridEquivalence(t *testing.T) {
	t.Parallel()
	queries := 0
	for _, seed := range []int64{1, 2} {
		for _, job := range PlanWild(WildConfig{Seed: seed, Scale: 0.05, DevicesPerCity: 120}) {
			w := job.build()
			cfg := w.plane.Config()
			devs := w.fleet.Devices()
			var got []int32
			var want []*device.Device
			for now := job.Start; !now.After(w.end); now = now.Add(cfg.ScanInterval) {
				for _, tg := range w.tags {
					pos := tg.Pos(now)
					got = w.fleet.NearIndices(pos, now, cfg.MaxRangeM, got[:0])
					want = w.fleet.NearBrute(pos, now, cfg.MaxRangeM, want[:0])
					queries++
					same := len(got) == len(want)
					for i := 0; same && i < len(got); i++ {
						same = devs[got[i]] == want[i]
					}
					if !same {
						t.Fatalf("seed=%d country %s tag %s at %v: grid returned %d candidates, brute %d (set or order diverged; grid %+v)",
							seed, job.Spec.Code, tg.ID, now, len(got), len(want), w.fleet.GridStats())
					}
				}
			}
		}
	}
	t.Logf("%d candidate queries matched", queries)
}

// TestWildFleetScale: the fleet-growth knob multiplies the reporting
// crowds (more devices, more reports) while FleetScale=1 — the default —
// is the exact identity.
func TestWildFleetScale(t *testing.T) {
	if testing.Short() {
		t.Skip("wild campaign is slow")
	}
	cfg := tinyCampaign(13, 0)
	cfg.Countries = cfg.Countries[:1]
	base := RunWild(cfg)
	cfg.FleetScale = 1
	if explicit := RunWild(cfg); !equalWild(base, explicit) {
		t.Error("FleetScale=1 must be byte-identical to the unset default")
	}
	cfg.FleetScale = 3
	big := RunWild(cfg)
	baseReports := len(base.Countries[0].Dataset.CrawlsFor(trace.VendorApple))
	bigReports := len(big.Countries[0].Dataset.CrawlsFor(trace.VendorApple))
	if bigReports < baseReports {
		t.Errorf("3x fleet produced fewer apple crawl records (%d) than 1x (%d)", bigReports, baseReports)
	}
}

func TestWildReplicates(t *testing.T) {
	if testing.Short() {
		t.Skip("wild campaign is slow")
	}
	cfg := tinyCampaign(17, 0)
	reps := RunWildReplicates(cfg, 3)
	if len(reps) != 3 {
		t.Fatalf("%d replicates, want 3", len(reps))
	}
	// Replicate 0 keeps the base seed: identical to a plain RunWild.
	if base := RunWild(cfg); !equalWild(base, reps[0]) {
		t.Error("replicate 0 diverged from RunWild with the base seed")
	}
	// Later replicates are genuinely different worlds...
	if reflect.DeepEqual(reps[0].Countries[0].Dataset.GroundTruth, reps[1].Countries[0].Dataset.GroundTruth) {
		t.Error("replicates 0 and 1 produced identical ground truth; seeds did not diverge")
	}
	// ...on the same schedule.
	for r, rep := range reps {
		for i := range rep.Countries {
			if !rep.Countries[i].Start.Equal(reps[0].Countries[i].Start) {
				t.Errorf("replicate %d country %d starts %v, want the shared schedule",
					r, i, rep.Countries[i].Start)
			}
		}
	}
	if RunWildReplicates(cfg, 0) != nil {
		t.Error("0 replicates should yield nil")
	}
}

func TestReplicateSeed(t *testing.T) {
	if ReplicateSeed(7, 0) != 7 {
		t.Error("replicate 0 must keep the base seed")
	}
	seen := map[int64]bool{}
	// Strides must clear every intra-campaign offset (countries use
	// index*1000, tags index*10).
	for r := 0; r < 100; r++ {
		s := ReplicateSeed(7, r)
		if seen[s] {
			t.Fatalf("seed collision at replicate %d", r)
		}
		seen[s] = true
		if r > 0 {
			if d := s - ReplicateSeed(7, r-1); d < 100000 {
				t.Fatalf("replicate stride %d too small to clear country seed offsets", d)
			}
		}
	}
}
