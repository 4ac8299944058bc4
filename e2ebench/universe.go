package main

import (
	"fmt"
	"time"

	"tagsim/internal/geo"
	"tagsim/internal/trace"
)

// universe is a seed-synthesized population of tags and their crowd
// reports, fed to the stores through the ingest path before serving.
// Tags are indexed in popularity order (index 0 is the hottest under a
// Zipf mix).
type universe struct {
	seed   uint64
	tags   []string
	vendor []trace.Vendor
	counts []int       // reports synthesized per tag
	first  []time.Time // first synthesized report per tag
	last   []time.Time // newest synthesized report per tag
	// end is after every synthesized report; the workload's own writes
	// are stamped from here on.
	end time.Time
}

// universeStart is the instant the synthesized history begins.
var universeStart = time.Date(2023, 3, 1, 0, 0, 0, 0, time.UTC)

// Report gaps exceed the vendors' 192-s rate cap, so every synthesized
// report is accepted.
const (
	minGap  = 200 * time.Second
	gapSpan = 400 // seconds of jitter on top of minGap
)

// mix64 is SplitMix64's finalizer: a cheap, well-mixed hash that keeps
// the synthesis stateless per (seed, tag, report).
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func (u *universe) hash(tag, k int) uint64 {
	return mix64(u.seed ^ mix64(uint64(tag)<<20^uint64(k)))
}

func newUniverse(seed int64, tags, minReports, maxReports int) *universe {
	u := &universe{
		seed:   mix64(uint64(seed)),
		tags:   make([]string, tags),
		vendor: make([]trace.Vendor, tags),
		counts: make([]int, tags),
		first:  make([]time.Time, tags),
		last:   make([]time.Time, tags),
	}
	var end time.Time
	for i := range u.tags {
		h := u.hash(i, 1<<19)
		u.tags[i] = fmt.Sprintf("tag-%016x", h)
		u.vendor[i] = []trace.Vendor{trace.VendorApple, trace.VendorSamsung}[h>>63]
		u.counts[i] = minReports + int(h%uint64(maxReports-minReports+1))
		u.first[i] = universeStart.Add(time.Duration(h>>40%86400) * time.Second)
		t := u.first[i]
		for k := 1; k < u.counts[i]; k++ {
			t = t.Add(u.gap(i, k))
		}
		u.last[i] = t
		if t.After(end) {
			end = t
		}
	}
	u.end = end.Add(time.Hour)
	return u
}

func (u *universe) gap(tag, k int) time.Duration {
	return minGap + time.Duration(u.hash(tag, k)%gapSpan)*time.Second
}

// report synthesizes a crowd report for tag at time t; the reporter and
// position are drawn from h.
func (u *universe) report(tag int, t time.Time, h uint64) trace.Report {
	return trace.Report{
		T: t, HeardAt: t,
		TagID:      u.tags[tag],
		Vendor:     u.vendor[tag],
		ReporterID: fmt.Sprintf("dev-%05d", h>>48%50000),
		Pos:        geo.LatLon{Lat: 24.4 + float64(h>>8&0xffff)/1e6, Lon: 54.4 + float64(h>>24&0xffff)/1e6},
		RSSI:       -40 - float64(h>>40%60),
	}
}

// ingestAll feeds every synthesized report through ingest, interleaved
// across tags in report order the way a crowd's uploads arrive, and
// returns how many were accepted.
func (u *universe) ingestAll(ingest func(trace.Report) bool) (total, accepted int) {
	next := append([]time.Time(nil), u.first...)
	maxCount := 0
	for _, c := range u.counts {
		maxCount = max(maxCount, c)
	}
	for k := 0; k < maxCount; k++ {
		for i := range u.tags {
			if k >= u.counts[i] {
				continue
			}
			if k > 0 {
				next[i] = next[i].Add(u.gap(i, k))
			}
			total++
			if ingest(u.report(i, next[i], u.hash(i, k))) {
				accepted++
			}
		}
	}
	return total, accepted
}
