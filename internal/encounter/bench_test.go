package encounter

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"tagsim/internal/cloud"
	"tagsim/internal/device"
	"tagsim/internal/geo"
	"tagsim/internal/mobility"
	"tagsim/internal/sim"
	"tagsim/internal/tag"
	"tagsim/internal/trace"
)

// benchFleet builds a city-shaped fleet of n devices at constant density
// (the disk grows with n, as fleets grow by covering more ground): 84%
// stationary homes, 15% short local wanderers, and 1% metro commuters
// whose outsized roam lands them on the index's overflow list — active
// only during a staggered one-hour ride window, like the campaign's
// co-travelers.
func benchFleet(n int) []*device.Device {
	rng := rand.New(rand.NewSource(int64(n)))
	radius := 2000 * math.Sqrt(float64(n)/600)
	devices := make([]*device.Device, n)
	for i := range devices {
		home := geo.Destination(origin, rng.Float64()*360, radius*math.Sqrt(rng.Float64()))
		var m mobility.Model
		var commuter bool
		switch {
		case i%100 == 0: // 1%: metro commuter, overflow material
			commuter = true
			far := geo.Destination(home, rng.Float64()*360, 5000+rng.Float64()*10000)
			m = mobility.NewItinerary(t0,
				mobility.Move{Along: geo.Path{home, far}, SpeedKmh: 45},
				mobility.Stay{At: far, For: 6 * time.Hour})
		case i%100 < 16: // 15%: local wanderer
			spot := geo.Destination(home, rng.Float64()*360, 100+rng.Float64()*300)
			m = mobility.NewItinerary(t0,
				mobility.Move{Along: geo.Path{home, spot}, SpeedKmh: 4},
				mobility.Stay{At: spot, For: 8 * time.Hour})
		default: // 84%: at home
			m = mobility.Stationary(home)
		}
		vendor := trace.VendorApple
		if i%3 == 0 {
			vendor = trace.VendorSamsung
		}
		d := device.New(fmt.Sprintf("bench-%06d", i), vendor, home, m)
		d.OptedIn = true
		if commuter {
			d.ActiveFrom = t0.Add(time.Duration(rng.Intn(23)) * time.Hour)
			d.ActiveTo = d.ActiveFrom.Add(time.Hour)
		}
		devices[i] = d
	}
	return devices
}

// benchTags scatters nTags stationary tags across the fleet's disk, each
// with a vendor cloud so the full report pipeline runs.
func benchTags(nTags int, diskM float64) ([]*tag.Tag, map[trace.Vendor]*cloud.Service) {
	rng := rand.New(rand.NewSource(int64(nTags) + 1))
	apple := cloud.NewService(trace.VendorApple)
	samsung := cloud.NewService(trace.VendorSamsung)
	tags := make([]*tag.Tag, nTags)
	for i := range tags {
		pos := geo.Destination(origin, rng.Float64()*360, diskM*math.Sqrt(rng.Float64()))
		if i%2 == 0 {
			tags[i] = tag.New(fmt.Sprintf("air-%03d", i), tag.AirTagProfile(), mobility.Stationary(pos), uint64(i), t0)
			apple.Register(tags[i].ID)
		} else {
			tags[i] = tag.New(fmt.Sprintf("smart-%03d", i), tag.SmartTagProfile(), mobility.Stationary(pos), uint64(i), t0)
			samsung.Register(tags[i].ID)
		}
	}
	return tags, map[trace.Vendor]*cloud.Service{trace.VendorApple: apple, trace.VendorSamsung: samsung}
}

// legacyScanOnce reproduces the seed implementation's hot path verbatim:
// the brute-force linear candidate scan, a freshly formatted stream name,
// and a freshly allocated rand.Rand per (tag, tick) — the pre-refactor
// baseline that BENCH_scan.json's "before" numbers record. The
// per-candidate radio/strategy/report pipeline is byte-for-byte the
// shipping one, so the delta isolates the refactor.
func legacyScanOnce(p *Plane, buf []*device.Device, now time.Time) []*device.Device {
	for _, tg := range p.tags {
		tagPos := tg.Pos(now)
		beacons := tg.ExpectedBeacons(p.cfg.ScanInterval)
		tg.CountBeacons(uint64(beacons))
		buf = p.fleet.NearBrute(tagPos, now, p.cfg.MaxRangeM, buf[:0])
		if len(buf) == 0 {
			continue
		}
		rng := p.engine.RNG(scanStreamName(tg.ID, now))
		for _, dev := range buf {
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
			delay, ok := dev.ShouldReport(tg.ID, now, rng)
			if !ok {
				continue
			}
			p.reported.Add(1)
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
			p.engine.Schedule(rep.T, func() {
				if svc.Ingest(rep) {
					p.delivered.Add(1)
				}
			})
		}
	}
	return buf
}

// BenchmarkScanOnce sweeps the encounter hot path over fleet sizes and
// tag counts, two ways: index=grid is the shipping spatially-indexed
// allocation-lean path, and index=legacy is the seed implementation —
// the NearBrute linear scan plus per-tick formatting and RNG allocation —
// the "before" column of BENCH_scan.json (its index=brute rows are
// history). One op is a full scan tick: every tag's candidate search
// plus radio, strategy, and report evaluation.
func BenchmarkScanOnce(b *testing.B) {
	for _, nDev := range []int{600, 6000, 60000} {
		devices := benchFleet(nDev)
		radius := 2000 * math.Sqrt(float64(nDev)/600)
		for _, nTags := range []int{2, 16} {
			for _, mode := range []string{"grid", "legacy"} {
				name := fmt.Sprintf("fleet=%d/tags=%d/index=%s", nDev, nTags, mode)
				b.Run(name, func(b *testing.B) {
					fleet := device.NewFleet(origin, devices)
					// The device slice is shared across sub-benchmarks and
					// ShouldReport mutates per-tag cooldown state; reset it so
					// every mode (and every b.N retry) measures the same
					// workload from the same state.
					fleet.ResetCooldowns()
					tags, services := benchTags(nTags, radius)
					e := sim.NewEngine(t0, 1)
					p := New(Config{}, e, fleet, tags, services)
					p.ScanOnce(t0) // warm buffers
					legacyBuf := make([]*device.Device, 0, 256)
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						at := t0.Add(time.Duration(i+1) * 30 * time.Second)
						if mode == "legacy" {
							legacyBuf = legacyScanOnce(p, legacyBuf, at)
						} else {
							p.ScanOnce(at)
						}
					}
				})
			}
		}
	}
}

func BenchmarkScanOnceDenseCrowdIndexed(b *testing.B) {
	// The historical dense-crowd shape (everyone within radio range), kept
	// for comparability with BenchmarkScanOnceDenseCrowd in encounter_test.
	w := buildWorld(300, 100, 25, Config{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.plane.ScanOnce(t0.Add(time.Duration(i) * 30 * time.Second))
	}
}
