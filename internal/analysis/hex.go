package analysis

import (
	"sort"
	"time"

	"tagsim/internal/hexgrid"
	"tagsim/internal/trace"
)

// HexVisit is one qualifying stay inside a hexagon: the vantage point
// spent at least the dwell threshold consecutively within the cell
// (the paper requires 5 consecutive minutes, discarding cells crossed on
// a highway).
type HexVisit struct {
	Cell  hexgrid.Cell
	Enter time.Time
	Leave time.Time
}

// Duration returns the visit's dwell time.
func (v HexVisit) Duration() time.Duration { return v.Leave.Sub(v.Enter) }

// HexVisits segments ground truth into hexagon visits at the given
// resolution, keeping only stays of at least minDwell. Gaps in ground
// truth longer than maxGap end the current visit.
func HexVisits(fixes []trace.GroundTruth, res int, minDwell, maxGap time.Duration) []HexVisit {
	if minDwell <= 0 {
		minDwell = 5 * time.Minute
	}
	if maxGap <= 0 {
		maxGap = 5 * time.Minute
	}
	var out []HexVisit
	var cur *HexVisit
	flush := func() {
		if cur != nil && cur.Duration() >= minDwell {
			out = append(out, *cur)
		}
		cur = nil
	}
	for _, f := range fixes {
		cell := hexgrid.LatLonToCell(f.Pos, res)
		if cur != nil {
			if cell == cur.Cell && f.T.Sub(cur.Leave) <= maxGap {
				cur.Leave = f.T
				continue
			}
			flush()
		}
		cur = &HexVisit{Cell: cell, Enter: f.T, Leave: f.T}
	}
	flush()
	return out
}

// DistinctCells returns the unique visited cells in deterministic order.
func DistinctCells(visits []HexVisit) []hexgrid.Cell {
	seen := make(map[hexgrid.Cell]bool)
	var out []hexgrid.Cell
	for _, v := range visits {
		if !seen[v.Cell] {
			seen[v.Cell] = true
			out = append(out, v.Cell)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// CellAccuracy computes a per-visited-cell accuracy: for each cell, buckets
// covering its visits are tallied with the usual hit/miss rule. This is
// the per-hexagon sample population behind Figure 7's CDFs.
//
// One-shot convenience over NewIndex(truth, reports).CellAccuracy: the
// crawl log is deduped and truth-resolved once and shared by every visit
// (the Scan reference re-derives both per visit).
func CellAccuracy(truth *TruthIndex, reports []trace.CrawlRecord, visits []HexVisit, bucket time.Duration, radiusM float64) map[hexgrid.Cell]float64 {
	return NewIndex(truth, reports).CellAccuracy(visits, bucket, radiusM)
}

// TotalDwellByCell sums visit durations per cell.
func TotalDwellByCell(visits []HexVisit) map[hexgrid.Cell]time.Duration {
	out := make(map[hexgrid.Cell]time.Duration)
	for _, v := range visits {
		out[v.Cell] += v.Duration()
	}
	return out
}
