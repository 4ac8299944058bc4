package cloud

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tagsim/internal/geo"
	"tagsim/internal/trace"
)

var cacheBase = time.Date(2022, 3, 7, 9, 0, 0, 0, time.UTC)

func cacheServices() (map[trace.Vendor]*Service, *Service, *Service) {
	apple := NewService(trace.VendorApple)
	samsung := NewService(trace.VendorSamsung)
	return map[trace.Vendor]*Service{
		trace.VendorApple: apple, trace.VendorSamsung: samsung,
	}, apple, samsung
}

// uncached is the oracle for HotCache: the same combined-view queries
// answered by Combined directly against the stores on every call.
type uncached Combined

func newUncached(services map[trace.Vendor]*Service) uncached {
	var svcs []*Service
	for _, svc := range services {
		svcs = append(svcs, svc)
	}
	sortServices(svcs)
	return uncached(svcs)
}

func (u uncached) Known(tagID string) bool {
	for _, svc := range u {
		if svc.Known(tagID) {
			return true
		}
	}
	return false
}

func (u uncached) LastSeen(tagID string) (pos geo.LatLon, at time.Time, found, known bool) {
	if !u.Known(tagID) {
		return pos, at, false, false
	}
	pos, at, found = Combined(u).LastSeen(tagID)
	return pos, at, found, true
}

func (u uncached) Track(tagID string) ([]trace.Report, bool) {
	if !u.Known(tagID) {
		return nil, false
	}
	return Combined(u).MergedHistory(tagID), true
}

func (u uncached) HistoryTail(tagID string, limit int) ([]trace.Report, bool) {
	if !u.Known(tagID) {
		return nil, false
	}
	return Combined(u).MergedHistoryTail(tagID, limit), true
}

// TestHotCacheNeverStale is the invalidation property: after ANY state
// change to a tag's shard — accepted ingest, restore, registration —
// the very next cached read reflects it, because the entry's epoch no
// longer matches. A single-slot cache maximizes collisions, so the
// property also holds through constant eviction; a roomy one keeps every
// tag's entry resident across the writes, so a stale entry would be
// served if the epoch check ever let it through.
func TestHotCacheNeverStale(t *testing.T) {
	t.Parallel()
	for _, slots := range []int{1, 64} {
		services, apple, samsung := cacheServices()
		direct := newUncached(services)
		cache := NewHotCache(services, slots)
		tags := []string{"hot-a", "hot-b", "hot-c"}
		for step := 0; step < 60; step++ {
			id := tags[step%len(tags)]
			at := cacheBase.Add(time.Duration(step) * 4 * time.Minute)
			svc := apple
			if step%2 == 1 {
				svc = samsung
			}
			switch step % 5 {
			case 3: // restore path
				svc.Restore([]trace.Report{{T: at, TagID: id, Vendor: svc.Vendor(),
					Pos: geo.LatLon{Lat: float64(step)}}})
			case 4: // rejected ingest: no state change, cache may keep serving
				svc.Ingest(trace.Report{T: cacheBase, TagID: id, Vendor: svc.Vendor()})
			default:
				svc.Ingest(trace.Report{T: at, HeardAt: at, TagID: id, Vendor: svc.Vendor(),
					Pos: geo.LatLon{Lon: float64(step)}})
			}
			// Every read after every write: cached answers must equal the
			// direct uncached computation exactly.
			for _, q := range tags {
				wPos, wAt, wFound, wKnown := direct.LastSeen(q)
				wTrack, _ := direct.Track(q)
				gPos, gAt, gFound, gKnown := cache.LastSeen(q)
				if gPos != wPos || !gAt.Equal(wAt) || gFound != wFound || gKnown != wKnown {
					t.Fatalf("slots=%d step %d: cached lastknown(%s) = (%v,%v,%v,%v), want (%v,%v,%v,%v)",
						slots, step, q, gPos, gAt, gFound, gKnown, wPos, wAt, wFound, wKnown)
				}
				gTrack, _ := cache.Track(q)
				if !reflect.DeepEqual(gTrack, wTrack) {
					t.Fatalf("slots=%d step %d: cached track(%s) has %d reports, want %d", slots, step, q, len(gTrack), len(wTrack))
				}
				if cache.Known(q) != wKnown {
					t.Fatalf("slots=%d step %d: cached known(%s) != %v", slots, step, q, wKnown)
				}
				for _, limit := range []int{0, 2, -1} {
					wHist, _ := direct.HistoryTail(q, limit)
					gHist, gHistKnown := cache.HistoryTail(q, limit)
					if gHistKnown != wKnown || !reflect.DeepEqual(gHist, wHist) {
						t.Fatalf("slots=%d step %d: cached history(%s, %d) has %d reports (known=%v), want %d (known=%v)",
							slots, step, q, limit, len(gHist), gHistKnown, len(wHist), wKnown)
					}
				}
			}
		}
		// Unknown tags stay unknown through the cache.
		if _, _, _, known := cache.LastSeen("ghost"); known {
			t.Error("cache invented a tag")
		}
		if _, known := cache.Track("ghost"); known {
			t.Error("cache invented a track")
		}
		if hist, known := cache.HistoryTail("ghost", 5); known || hist != nil {
			t.Error("cache invented a history")
		}
		// Registration alone flips known without a fix — and invalidates.
		apple.Register("paired-quiet")
		if _, _, found, known := cache.LastSeen("paired-quiet"); !known || found {
			t.Error("registered-but-quiet tag must be known with no fix")
		}
	}
}

// TestHotCacheHitServesWithoutStores: a repeated query on an unchanged
// tag is served from the slot — observable through the lazy track fill
// sharing the last-known entry.
func TestHotCacheHitServesWithoutStores(t *testing.T) {
	t.Parallel()
	services, apple, _ := cacheServices()
	at := cacheBase
	apple.Ingest(trace.Report{T: at, TagID: "solo", Vendor: trace.VendorApple,
		Pos: geo.LatLon{Lat: 1, Lon: 2}})

	cache := NewHotCache(services, 8)
	_, seenAt, found, known := cache.LastSeen("solo")
	if !known || !found || !seenAt.Equal(at) {
		t.Fatalf("lastknown fill = (%v, %v, %v)", seenAt, found, known)
	}
	track, known := cache.Track("solo") // lazy fill onto the same entry
	if !known || len(track) != 1 {
		t.Fatalf("track fill = %d reports, known=%v", len(track), known)
	}
	// Same answers again, now from the filled slot.
	if _, _, f2, k2 := cache.LastSeen("solo"); !f2 || !k2 {
		t.Error("cached last-known hit lost the fix")
	}
	if tr2, _ := cache.Track("solo"); len(tr2) != 1 {
		t.Error("cached track hit lost the report")
	}
}

// TestHotCacheRaced races cached readers against live ingest on a
// single-slot cache (maximum eviction pressure): a reader must never
// observe a tag's last-seen time move backward — the cached answer is
// never staler than the epoch it was published under. Run under -race.
func TestHotCacheRaced(t *testing.T) {
	t.Parallel()
	services, apple, samsung := cacheServices()
	cache := NewHotCache(services, 1)
	direct := newUncached(services)
	tags := []string{"raced-a", "raced-b"}

	var stop atomic.Bool
	var wg sync.WaitGroup
	for w, svc := range []*Service{apple, samsung} {
		wg.Add(1)
		go func(w int, svc *Service) {
			defer wg.Done()
			for step := 0; step < 300; step++ {
				at := cacheBase.Add(time.Duration(step*240+w) * time.Second)
				svc.Ingest(trace.Report{T: at, TagID: tags[step%len(tags)],
					Vendor: svc.Vendor(), Pos: geo.LatLon{Lat: float64(step)}})
			}
		}(w, svc)
	}
	errs := make(chan string, 4)
	var rg sync.WaitGroup
	for r := 0; r < 3; r++ {
		rg.Add(1)
		go func(r int) {
			defer rg.Done()
			lastAt := map[string]time.Time{}
			for !stop.Load() {
				id := tags[r%len(tags)]
				if _, at, found, _ := cache.LastSeen(id); found {
					if at.Before(lastAt[id]) {
						errs <- fmt.Sprintf("cached last-seen of %s went backward: %v -> %v", id, lastAt[id], at)
						return
					}
					lastAt[id] = at
				}
				cache.Track(id)
				cache.HistoryTail(id, 3)
				cache.Known(id)
			}
		}(r)
	}
	wg.Wait()
	stop.Store(true)
	rg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	// Quiesced: cached equals direct for every tag.
	for _, id := range tags {
		_, wantAt, _, _ := direct.LastSeen(id)
		wantTrack, _ := direct.Track(id)
		wantHist, _ := direct.HistoryTail(id, 3)
		_, gotAt, _, _ := cache.LastSeen(id)
		gotTrack, _ := cache.Track(id)
		gotHist, _ := cache.HistoryTail(id, 3)
		if !gotAt.Equal(wantAt) || !reflect.DeepEqual(gotTrack, wantTrack) || !reflect.DeepEqual(gotHist, wantHist) {
			t.Errorf("%s: cached read diverged from direct after the race", id)
		}
	}
}

// TestMergedHistoryTail pins the pushdown merge against the full
// merge-then-slice computation.
func TestMergedHistoryTail(t *testing.T) {
	_, apple, samsung := cacheServices()
	combined := Combined{apple, samsung}
	id := "tail-tag"
	for k := 0; k < 7; k++ {
		at := cacheBase.Add(time.Duration(k) * 4 * time.Minute)
		svc := apple
		if k%3 == 1 {
			svc = samsung
		}
		svc.Ingest(trace.Report{T: at, HeardAt: at, TagID: id, Vendor: svc.Vendor(),
			Pos: geo.LatLon{Lat: float64(k)}})
	}
	full := combined.MergedHistory(id)
	if len(full) != 7 {
		t.Fatalf("merged history = %d reports, want 7", len(full))
	}
	for _, limit := range []int{-1, 0, 1, 3, 7, 100} {
		got := combined.MergedHistoryTail(id, limit)
		want := full
		if limit >= 0 && limit < len(full) {
			want = full[len(full)-limit:]
		}
		if len(got) != len(want) {
			t.Fatalf("limit=%d: %d reports, want %d", limit, len(got), len(want))
		}
		for i := range got {
			if !got[i].T.Equal(want[i].T) {
				t.Fatalf("limit=%d: report %d at %v, want %v", limit, i, got[i].T, want[i].T)
			}
		}
	}
	if got := combined.MergedHistoryTail(id, 0); got == nil {
		t.Error("limit 0 with history must be empty non-nil")
	}
	if got := combined.MergedHistoryTail("ghost", 0); got != nil {
		t.Error("limit 0 without history must be nil")
	}
	if got := combined.MergedHistoryTail("ghost", 3); got != nil {
		t.Error("unknown tag tail must be nil")
	}
}
