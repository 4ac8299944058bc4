package analysis

import (
	"time"

	"tagsim/internal/trace"
)

// AccuracyResult is the hit/miss tally for one accuracy computation.
type AccuracyResult struct {
	Buckets int // buckets with ground-truth coverage
	Hits    int // buckets with a report within the radius
}

// Pct returns the accuracy percentage (0 when no buckets qualified).
func (r AccuracyResult) Pct() float64 {
	if r.Buckets == 0 {
		return 0
	}
	return float64(r.Hits) / float64(r.Buckets) * 100
}

// Add merges another result into r.
func (r *AccuracyResult) Add(o AccuracyResult) {
	r.Buckets += o.Buckets
	r.Hits += o.Hits
}

// Accuracy computes the paper's core metric. Time is cut into
// bucket-length intervals from `from` to `to`; a bucket counts when the
// vantage point has ground-truth coverage in it, and hits when at least
// one crawled report, with ReportedAt inside the bucket, lies within
// radiusM of the vantage point's position at the report time.
//
// The bucket length doubles as the responsiveness axis of Figures 5a-c:
// a 10-minute bucket asks "could the stalker locate the victim within 10
// minutes", a 120-minute bucket relaxes that to two hours.
//
// One-shot convenience over NewIndex(truth, reports).Accuracy; callers
// evaluating many (bucket, radius, window) combinations over the same
// data should build the Index once instead.
func Accuracy(truth *TruthIndex, reports []trace.CrawlRecord, bucket time.Duration, radiusM float64, from, to time.Time) AccuracyResult {
	return NewIndex(truth, reports).Accuracy(bucket, radiusM, from, to)
}

// distinctByReportTime collapses repeated crawl observations of the same
// underlying report (trace.DistinctReports, the dedup shared with the
// crawler) and sorts by report time under a deterministic total order.
func distinctByReportTime(reports []trace.CrawlRecord) []trace.CrawlRecord {
	out := trace.DistinctReports(reports)
	trace.SortByReportTime(out)
	return out
}

// DailyAccuracy computes one accuracy sample per UTC day — the per-scenario
// sample population the paper runs its t-tests over. Days with fewer than
// minBuckets qualifying buckets are skipped.
func DailyAccuracy(truth *TruthIndex, reports []trace.CrawlRecord, bucket time.Duration, radiusM float64, from, to time.Time, minBuckets int) []float64 {
	return NewIndex(truth, reports).DailyAccuracy(bucket, radiusM, from, to, minBuckets)
}

// BucketClassifier assigns an accuracy bucket to a class (speed class, day
// period, weekday/weekend...). ok=false excludes the bucket.
type BucketClassifier func(bucketStart, bucketEnd time.Time) (class string, ok bool)

// AccuracyByClass splits buckets by a classifier and tallies accuracy per
// class — the machinery behind Figures 5d, 5e, and 5f.
func AccuracyByClass(truth *TruthIndex, reports []trace.CrawlRecord, bucket time.Duration, radiusM float64, from, to time.Time, classify BucketClassifier) map[string]AccuracyResult {
	return NewIndex(truth, reports).AccuracyByClass(bucket, radiusM, from, to, classify)
}

// DailyAccuracyByClass produces per-day accuracy samples per class, the
// inputs to the paper's t-tests (one mean accuracy per day per scenario).
func DailyAccuracyByClass(truth *TruthIndex, reports []trace.CrawlRecord, bucket time.Duration, radiusM float64, from, to time.Time, classify BucketClassifier, minBuckets int) map[string][]float64 {
	return NewIndex(truth, reports).DailyAccuracyByClass(bucket, radiusM, from, to, classify, minBuckets)
}

func maxTime(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

func minTime(a, b time.Time) time.Time {
	if a.Before(b) {
		return a
	}
	return b
}
