package analysis

import (
	"time"

	"tagsim/internal/geo"
	"tagsim/internal/hexgrid"
	"tagsim/internal/trace"
)

// Scan is the pre-index reference implementation of the accuracy
// metrics: the seed's per-call scans over the raw crawl log, kept
// verbatim (mirroring device.NearBrute) as the ground truth the
// index-backed merge is checked against. Every method re-dedups the
// crawl log and re-resolves truth per call. No production path uses it:
// the property tests compare it with Index metric by metric, and the
// figure tests render every wild figure through both. Its methods have
// Index's signatures, so either serves as the figures' accuracy plane.
type Scan struct {
	Truth   *TruthIndex
	Reports []trace.CrawlRecord
}

// Accuracy is the scan reference of Index.Accuracy.
func (s Scan) Accuracy(bucket time.Duration, radiusM float64, from, to time.Time) AccuracyResult {
	if bucket <= 0 || !to.After(from) {
		return AccuracyResult{}
	}
	// Index distinct reports by ReportedAt.
	distinct := distinctByReportTime(s.Reports)
	var res AccuracyResult
	ri := 0
	for bs := from; bs.Before(to); bs = bs.Add(bucket) {
		be := bs.Add(bucket)
		if !s.Truth.HasCoverage(bs, be) {
			continue
		}
		res.Buckets++
		// Advance to the first report in this bucket.
		for ri < len(distinct) && distinct[ri].ReportedAt.Before(bs) {
			ri++
		}
		for k := ri; k < len(distinct) && distinct[k].ReportedAt.Before(be); k++ {
			pos, ok := s.Truth.At(distinct[k].ReportedAt)
			if !ok {
				continue
			}
			if geo.Distance(pos, distinct[k].Pos) <= radiusM {
				res.Hits++
				break
			}
		}
	}
	return res
}

// DailyAccuracy is the scan reference of Index.DailyAccuracy (per-day
// rescan of the raw crawl log).
func (s Scan) DailyAccuracy(bucket time.Duration, radiusM float64, from, to time.Time, minBuckets int) []float64 {
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
		res := s.Accuracy(bucket, radiusM, lo, hi)
		if res.Buckets >= minBuckets {
			out = append(out, res.Pct())
		}
	}
	return out
}

// AccuracyByClass is the scan reference of Index.AccuracyByClass.
func (s Scan) AccuracyByClass(bucket time.Duration, radiusM float64, from, to time.Time, classify BucketClassifier) map[string]AccuracyResult {
	out := make(map[string]AccuracyResult)
	if bucket <= 0 || !to.After(from) {
		return out
	}
	distinct := distinctByReportTime(s.Reports)
	ri := 0
	for bs := from; bs.Before(to); bs = bs.Add(bucket) {
		be := bs.Add(bucket)
		if !s.Truth.HasCoverage(bs, be) {
			continue
		}
		class, ok := classify(bs, be)
		if !ok {
			continue
		}
		res := out[class]
		res.Buckets++
		for ri < len(distinct) && distinct[ri].ReportedAt.Before(bs) {
			ri++
		}
		for k := ri; k < len(distinct) && distinct[k].ReportedAt.Before(be); k++ {
			pos, tok := s.Truth.At(distinct[k].ReportedAt)
			if !tok {
				continue
			}
			if geo.Distance(pos, distinct[k].Pos) <= radiusM {
				res.Hits++
				break
			}
		}
		out[class] = res
	}
	return out
}

// DailyAccuracyByClass is the scan reference of
// Index.DailyAccuracyByClass.
func (s Scan) DailyAccuracyByClass(bucket time.Duration, radiusM float64, from, to time.Time, classify BucketClassifier, minBuckets int) map[string][]float64 {
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
		byClass := s.AccuracyByClass(bucket, radiusM, lo, hi, classify)
		for class, res := range byClass {
			if res.Buckets >= minBuckets {
				out[class] = append(out[class], res.Pct())
			}
		}
	}
	return out
}

// CellAccuracy is the scan reference of Index.CellAccuracy (one full
// accuracy scan per visit).
func (s Scan) CellAccuracy(visits []HexVisit, bucket time.Duration, radiusM float64) map[hexgrid.Cell]float64 {
	if bucket <= 0 {
		bucket = time.Hour
	}
	perCell := make(map[hexgrid.Cell]*AccuracyResult)
	for _, v := range visits {
		res := s.Accuracy(bucket, radiusM, v.Enter, v.Leave.Add(bucket))
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
