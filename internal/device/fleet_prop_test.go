package device

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"tagsim/internal/geo"
	"tagsim/internal/mobility"
	"tagsim/internal/trace"
)

// randomFleet builds a fleet with every roam-bound shape the simulator
// produces: stationary homes (small bound), itineraries from short
// wanders to long-haul rides (the roaming tail that lands in overflow),
// unknown mobility models (infinite bound), and devices with bounded
// active windows.
func randomFleet(rng *rand.Rand, n int, spreadM float64) *Fleet {
	devices := make([]*Device, n)
	for i := range devices {
		home := geo.Destination(origin, rng.Float64()*360, rng.Float64()*spreadM)
		var m mobility.Model
		switch rng.Intn(10) {
		case 0: // unknown model: infinite roam bound
			m = weirdModel{}
		case 1, 2: // long-haul itinerary: outsized roam, overflow candidate
			far := geo.Destination(home, rng.Float64()*360, 5000+rng.Float64()*40000)
			m = mobility.NewItinerary(t0,
				mobility.Move{Along: geo.Path{home, far}, SpeedKmh: 40 + rng.Float64()*40},
				mobility.Stay{At: far, For: 4 * time.Hour},
			)
		case 3, 4, 5: // local wander
			var segs []mobility.Segment
			cur := home
			for k := 0; k < 3; k++ {
				next := geo.Destination(home, rng.Float64()*360, rng.Float64()*400)
				segs = append(segs,
					mobility.Move{Along: geo.Path{cur, next}, SpeedKmh: 3 + rng.Float64()*3},
					mobility.Stay{At: next, For: time.Duration(1+rng.Intn(60)) * time.Minute})
				cur = next
			}
			m = mobility.NewItinerary(t0, segs...)
		default:
			m = mobility.Stationary(home)
		}
		d := New(fmt.Sprintf("dev-%04d", i), trace.VendorApple, home, m)
		if rng.Intn(5) == 0 { // bounded active window
			d.ActiveFrom = t0.Add(time.Duration(rng.Intn(120)) * time.Minute)
			d.ActiveTo = d.ActiveFrom.Add(time.Duration(1+rng.Intn(180)) * time.Minute)
		}
		devices[i] = d
	}
	return NewFleet(origin, devices)
}

// TestNearGridMatchesBrute is the index's correctness property: for
// randomized fleets, query points, radii, and times, the grid-indexed
// NearIndices returns exactly the brute-force scan's candidates in
// exactly its order — including inactive devices and infinite roam
// bounds. Order matters: the encounter plane draws from one RNG stream
// per scan, so a reordered candidate set would silently change
// simulation output.
func TestNearGridMatchesBrute(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(4242))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(400)
		spread := []float64{300, 3000, 30000}[rng.Intn(3)]
		f := randomFleet(rng, n, spread)
		if st := f.GridStats(); trial == 0 && st.Cells == 0 {
			t.Fatal("grid was not built for the first randomized fleet")
		}
		for q := 0; q < 25; q++ {
			pos := geo.Destination(origin, rng.Float64()*360, rng.Float64()*spread*1.5)
			radius := []float64{1, 50, 120, 1000, 20000}[rng.Intn(5)]
			at := t0.Add(time.Duration(rng.Intn(6*60)) * time.Minute)
			got := f.NearIndices(pos, at, radius, nil)
			want := f.NearBrute(pos, at, radius, nil)
			if len(got) != len(want) {
				t.Fatalf("trial %d query %d (n=%d spread=%.0f r=%.0f): grid %d candidates, brute %d",
					trial, q, n, spread, radius, len(got), len(want))
			}
			for i := range want {
				if d := f.Devices()[got[i]]; d != want[i] {
					t.Fatalf("trial %d query %d: candidate %d is %s, brute has %s (order or set diverged)",
						trial, q, i, d.ID, want[i].ID)
				}
			}
		}
	}
}

// TestNearGridOverflowOnly: a fleet whose every member has an unbounded
// or outsized roam must still answer correctly (grid may be empty).
func TestNearGridOverflowOnly(t *testing.T) {
	devices := []*Device{}
	for i := 0; i < 8; i++ {
		d := New(fmt.Sprintf("inf-%d", i), trace.VendorApple, origin, weirdModel{})
		devices = append(devices, d)
	}
	f := NewFleet(origin, devices)
	far := geo.Destination(origin, 45, 1e6)
	if got := f.NearIndices(far, t0, 10, nil); len(got) != 8 {
		t.Errorf("unbounded devices must always be candidates, got %d/8", len(got))
	}
}

// TestNearAllocationFree: after the first query warms the buffers,
// NearIndices must not allocate — it runs thousands of times per
// simulated day.
func TestNearAllocationFree(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	f := randomFleet(rng, 500, 5000)
	buf := make([]int32, 0, 600)
	pos := geo.Destination(origin, 10, 800)
	buf = f.NearIndices(pos, t0, 120, buf[:0]) // warm scratch + dst
	allocs := testing.AllocsPerRun(50, func() {
		buf = f.NearIndices(pos, t0, 120, buf[:0])
	})
	if allocs != 0 {
		t.Errorf("NearIndices allocates %.1f times per query, want 0", allocs)
	}
}

// TestNearIndicesMatchesNear pins the fleet-level index query to the
// brute-force reference scan on uneven radii, including the
// overflow-only path.
func TestNearIndicesMatchesNear(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	f := randomFleet(rng, 300, 4000)
	devs := f.Devices()
	for _, radius := range []float64{37, 250, 1999} {
		for i := 0; i < 32; i++ {
			q := geo.Destination(origin, rng.Float64()*360, rng.Float64()*6000)
			byDev := f.NearBrute(q, t0, radius, nil)
			idx := f.NearIndices(q, t0, radius, nil)
			if len(byDev) != len(idx) {
				t.Fatalf("radius %v query %d: NearBrute %d, NearIndices %d", radius, i, len(byDev), len(idx))
			}
			for j := range idx {
				if devs[idx[j]] != byDev[j] {
					t.Fatalf("radius %v query %d result %d: index %d is %s, NearBrute gave %s",
						radius, i, j, idx[j], devs[idx[j]].ID, byDev[j].ID)
				}
			}
		}
	}
}
