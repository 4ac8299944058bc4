package analysis

import (
	"sort"
	"time"

	"tagsim/internal/geo"
	"tagsim/internal/hexgrid"
	"tagsim/internal/trace"
)

// span is one maximal closed interval [lo, hi] (unix nanos) of ground-
// truth coverage: every instant t with lo <= t <= hi has TruthIndex.At
// ok. The covered set is exactly the union of [T_i-MaxGap, T_i+MaxGap]
// over all fixes — between two fixes less than 2*MaxGap apart every
// instant is within MaxGap of the nearer fix, and for closer pairs the
// interpolation path covers the whole gap — so merging those per-fix
// intervals once reproduces At's ok bit for any query.
type span struct {
	lo, hi int64
}

// Index is a one-time columnar index over (ground truth, distinct crawl
// records) that every accuracy metric then merges against. It exploits
// two invariants of the paper's hit/miss methodology:
//
//   - a distinct report's truth position — and therefore its
//     truth-to-report distance — depends on neither the bucket length
//     nor the radius, so both are resolved exactly once;
//   - buckets advance monotonically in every metric, so coverage and
//     hit tests are cursor merges over time-sorted columns rather than
//     per-bucket binary searches.
//
// One Index serves every (bucket, radius, window, classifier)
// combination of Figures 5-8 and Table 1's derived metrics; building it
// costs one dedup plus one truth resolution per distinct report.
// An Index is immutable after construction and safe for concurrent use.
// It snapshots the TruthIndex — fixes and the MaxGap in effect at
// NewIndex time — so mutate MaxGap before building, not after (a later
// change would silently desync the index from the live TruthIndex).
type Index struct {
	truth *TruthIndex
	// Columnar distinct-report store, sorted by report time:
	times    []int64   // ReportedAt, unix nanos
	resolved []bool    // ground truth known at the report time
	distM    []float64 // truth-to-report distance (valid when resolved)
	// Coverage columns:
	fixTimes []int64 // time-sorted ground-truth fix instants
	cover    []span  // merged intervals where TruthIndex.At is ok
}

// NewIndex dedups and indexes a crawl log against ground truth. The
// input slices are not modified.
func NewIndex(truth *TruthIndex, reports []trace.CrawlRecord) *Index {
	distinct := trace.DistinctReports(reports)
	trace.SortByReportTime(distinct)
	ix := &Index{
		truth:    truth,
		times:    make([]int64, len(distinct)),
		resolved: make([]bool, len(distinct)),
		distM:    make([]float64, len(distinct)),
	}
	for i, r := range distinct {
		ix.times[i] = r.ReportedAt.UnixNano()
		if pos, ok := truth.At(r.ReportedAt); ok {
			ix.resolved[i] = true
			ix.distM[i] = geo.Distance(pos, r.Pos)
		}
	}
	// The coverage columns need only fix instants, never positions. A
	// disk-backed truth index streams its time column once into the
	// resident fixTimes (8 B per fix versus ~128 B for the struct it
	// replaces), so the built Index stays lock-free for concurrent
	// figure sweeps even over spilled truth; a resident index converts
	// its fixes in place.
	if truth.disk != nil {
		ix.fixTimes = truth.disk.fixTimes()
	} else {
		ix.fixTimes = make([]int64, len(truth.fixes))
		for i, f := range truth.fixes {
			ix.fixTimes[i] = f.T.UnixNano()
		}
	}
	maxGap := int64(truth.MaxGap)
	for _, t := range ix.fixTimes {
		lo, hi := t-maxGap, t+maxGap
		if n := len(ix.cover); n > 0 && lo <= ix.cover[n-1].hi {
			if hi > ix.cover[n-1].hi {
				ix.cover[n-1].hi = hi
			}
			continue
		}
		ix.cover = append(ix.cover, span{lo, hi})
	}
	return ix
}

// Reports returns the number of distinct indexed reports.
func (ix *Index) Reports() int { return len(ix.times) }

// Truth returns the ground-truth index the reports were resolved against.
func (ix *Index) Truth() *TruthIndex { return ix.truth }

// lowerBound returns the first i with a[i] >= v.
func lowerBound(a []int64, v int64) int {
	return sort.Search(len(a), func(i int) bool { return a[i] >= v })
}

// cursors is the per-merge iteration state: one monotone position per
// column. Each metric seeds the cursors once per call (one binary search
// each) and then only ever advances them, so a whole bucket sweep costs
// O(buckets + reports + fixes) regardless of bucket length.
type cursors struct {
	ri int // next distinct report with time >= current bucket start
	fi int // next ground-truth fix with time >= current bucket start
	ci int // first coverage span that could contain the current midpoint
}

func (ix *Index) seek(from int64) cursors {
	return cursors{
		ri: lowerBound(ix.times, from),
		fi: lowerBound(ix.fixTimes, from),
		ci: sort.Search(len(ix.cover), func(i int) bool { return ix.cover[i].hi >= from }),
	}
}

// covered reports whether the bucket [bs, be) has ground-truth coverage,
// replicating TruthIndex.HasCoverage: a fix inside the bucket, or a
// covered midpoint. Bucket starts must not decrease between calls.
func (ix *Index) covered(cur *cursors, bs, be int64) bool {
	for cur.fi < len(ix.fixTimes) && ix.fixTimes[cur.fi] < bs {
		cur.fi++
	}
	if cur.fi < len(ix.fixTimes) && ix.fixTimes[cur.fi] < be {
		return true
	}
	mid := bs + (be-bs)/2
	for cur.ci < len(ix.cover) && ix.cover[cur.ci].hi < mid {
		cur.ci++
	}
	return cur.ci < len(ix.cover) && ix.cover[cur.ci].lo <= mid
}

// hit reports whether any distinct report inside [bs, be) lies within
// radiusM of the vantage point's position at its report time. Bucket
// starts must not decrease between calls.
func (ix *Index) hit(cur *cursors, bs, be int64, radiusM float64) bool {
	for cur.ri < len(ix.times) && ix.times[cur.ri] < bs {
		cur.ri++
	}
	for k := cur.ri; k < len(ix.times) && ix.times[k] < be; k++ {
		if ix.resolved[k] && ix.distM[k] <= radiusM {
			return true
		}
	}
	return false
}

// Accuracy computes the paper's core hit/miss metric over [from, to) —
// the index-backed equivalent of the package-level Accuracy — in one
// allocation-free merge.
func (ix *Index) Accuracy(bucket time.Duration, radiusM float64, from, to time.Time) AccuracyResult {
	var res AccuracyResult
	if bucket <= 0 || !to.After(from) {
		return res
	}
	step := int64(bucket)
	fromN, toN := from.UnixNano(), to.UnixNano()
	cur := ix.seek(fromN)
	for bs := fromN; bs < toN; bs += step {
		be := bs + step
		if !ix.covered(&cur, bs, be) {
			continue
		}
		res.Buckets++
		if ix.hit(&cur, bs, be, radiusM) {
			res.Hits++
		}
	}
	return res
}

// DailyAccuracy computes one accuracy sample per UTC day, the
// index-backed equivalent of the package-level DailyAccuracy.
func (ix *Index) DailyAccuracy(bucket time.Duration, radiusM float64, from, to time.Time, minBuckets int) []float64 {
	if minBuckets <= 0 {
		minBuckets = 3
	}
	var out []float64
	for day := from.UTC().Truncate(24 * time.Hour); day.Before(to); day = day.Add(24 * time.Hour) {
		dayEnd := day.Add(24 * time.Hour)
		lo, hi := maxTime(day, from), minTime(dayEnd, to)
		if !hi.After(lo) {
			continue
		}
		res := ix.Accuracy(bucket, radiusM, lo, hi)
		if res.Buckets >= minBuckets {
			out = append(out, res.Pct())
		}
	}
	return out
}

// AccuracyByClass splits buckets by a classifier, the index-backed
// equivalent of the package-level AccuracyByClass. The classifier only
// runs on covered buckets, and sees the same bucket boundaries (same
// time.Time location) the scan implementation produced.
func (ix *Index) AccuracyByClass(bucket time.Duration, radiusM float64, from, to time.Time, classify BucketClassifier) map[string]AccuracyResult {
	out := make(map[string]AccuracyResult)
	if bucket <= 0 || !to.After(from) {
		return out
	}
	step := int64(bucket)
	fromN, toN := from.UnixNano(), to.UnixNano()
	cur := ix.seek(fromN)
	for bs := fromN; bs < toN; bs += step {
		be := bs + step
		if !ix.covered(&cur, bs, be) {
			continue
		}
		bsT := from.Add(time.Duration(bs - fromN))
		class, ok := classify(bsT, bsT.Add(bucket))
		if !ok {
			continue
		}
		res := out[class]
		res.Buckets++
		if ix.hit(&cur, bs, be, radiusM) {
			res.Hits++
		}
		out[class] = res
	}
	return out
}

// DailyAccuracyByClass produces per-day accuracy samples per class, the
// index-backed equivalent of the package-level DailyAccuracyByClass.
func (ix *Index) DailyAccuracyByClass(bucket time.Duration, radiusM float64, from, to time.Time, classify BucketClassifier, minBuckets int) map[string][]float64 {
	if minBuckets <= 0 {
		minBuckets = 3
	}
	out := make(map[string][]float64)
	for day := from.UTC().Truncate(24 * time.Hour); day.Before(to); day = day.Add(24 * time.Hour) {
		dayEnd := day.Add(24 * time.Hour)
		lo, hi := maxTime(day, from), minTime(dayEnd, to)
		if !hi.After(lo) {
			continue
		}
		for class, res := range ix.AccuracyByClass(bucket, radiusM, lo, hi, classify) {
			if res.Buckets >= minBuckets {
				out[class] = append(out[class], res.Pct())
			}
		}
	}
	return out
}

// CellAccuracy computes per-visited-cell accuracy (Figure 7's sample
// population), the index-backed equivalent of the package-level
// CellAccuracy. The one-time dedup and truth resolution amortize over
// every visit instead of being redone per visit.
func (ix *Index) CellAccuracy(visits []HexVisit, bucket time.Duration, radiusM float64) map[hexgrid.Cell]float64 {
	if bucket <= 0 {
		bucket = time.Hour
	}
	perCell := make(map[hexgrid.Cell]*AccuracyResult)
	for _, v := range visits {
		res := ix.Accuracy(bucket, radiusM, v.Enter, v.Leave.Add(bucket))
		acc, ok := perCell[v.Cell]
		if !ok {
			acc = &AccuracyResult{}
			perCell[v.Cell] = acc
		}
		acc.Add(res)
	}
	out := make(map[hexgrid.Cell]float64, len(perCell))
	for cell, acc := range perCell {
		if acc.Buckets > 0 {
			out[cell] = acc.Pct()
		}
	}
	return out
}
