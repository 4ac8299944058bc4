package cloud

import (
	"testing"
	"time"

	"tagsim/internal/geo"
	"tagsim/internal/obs"
	"tagsim/internal/trace"
)

// TestCacheStatsClassification pins the hit/miss/fill/invalidation
// accounting: a cold probe is a miss+fill, a repeat is a hit, a write
// to the tag's shard turns the next probe into an invalidation-miss,
// and disabled metrics count nothing.
func TestCacheStatsClassification(t *testing.T) {
	services, apple, _ := cacheServices()
	cache := NewHotCache(services, 4)

	at := cacheBase
	apple.Ingest(trace.Report{T: at, HeardAt: at, TagID: "tag-x", Vendor: trace.VendorApple,
		Pos: geo.LatLon{Lat: 1}})

	// Cold probe: miss + fill.
	cache.LastSeen("tag-x")
	if s := cache.Stats(); s != (CacheStats{Hits: 0, Misses: 1, Fills: 1}) {
		t.Fatalf("after cold probe: %+v", s)
	}
	// Warm probe: hit, nothing else.
	cache.LastSeen("tag-x")
	if s := cache.Stats(); s != (CacheStats{Hits: 1, Misses: 1, Fills: 1}) {
		t.Fatalf("after warm probe: %+v", s)
	}
	// Lazy track upgrade of a valid entry: a hit AND a fill.
	cache.Track("tag-x")
	if s := cache.Stats(); s != (CacheStats{Hits: 2, Misses: 1, Fills: 2}) {
		t.Fatalf("after track upgrade: %+v", s)
	}
	// A write to the tag's shard bumps the epoch: the next probe finds
	// the same tag under a stale epoch — an invalidation-classified miss.
	at = at.Add(5 * time.Minute)
	apple.Ingest(trace.Report{T: at, HeardAt: at, TagID: "tag-x", Vendor: trace.VendorApple,
		Pos: geo.LatLon{Lat: 2}})
	cache.LastSeen("tag-x")
	if s := cache.Stats(); s != (CacheStats{Hits: 2, Misses: 2, Fills: 3, Invalidations: 1}) {
		t.Fatalf("after epoch invalidation: %+v", s)
	}
	// Known on a valid entry is a hit; on a cold tag it probes (miss)
	// but never fills.
	cache.Known("tag-x")
	cache.Known("tag-cold")
	if s := cache.Stats(); s != (CacheStats{Hits: 3, Misses: 3, Fills: 3, Invalidations: 1}) {
		t.Fatalf("after Known probes: %+v", s)
	}

	// obs.SetEnabled(false) freezes the counters while the cache itself
	// keeps serving correct answers.
	defer obs.SetEnabled(obs.SetEnabled(false))
	if _, _, found, known := cache.LastSeen("tag-x"); !found || !known {
		t.Fatal("cache stopped answering with metrics disabled")
	}
	if s := cache.Stats(); s != (CacheStats{Hits: 3, Misses: 3, Fills: 3, Invalidations: 1}) {
		t.Fatalf("metrics-disabled probe moved counters: %+v", s)
	}
}
