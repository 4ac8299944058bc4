package device

import (
	"math"
	"slices"
	"sort"
	"time"

	"tagsim/internal/geo"
	"tagsim/internal/mobility"
	"tagsim/internal/trace"
)

// Fleet is a spatially indexed collection of devices. The encounter plane
// asks it, thousands of times per simulated day, "which devices could
// possibly be within radio range of this tag right now?" — so the index
// must answer without evaluating every device's mobility model.
//
// Each device gets a precomputed roam bound: the farthest its itinerary
// ever strays from its home anchor. On top of that, home anchors are
// bucketed into a uniform grid on the local ENU plane, sized from the
// fleet's roam-bound distribution: a query only visits the cells that
// intersect the circle of radius roamCap+radius around the query point.
// Devices whose roam exceeds the cap (long-haul itineraries, unknown
// mobility models with an unbounded roam) live in a small overflow list
// that every query scans linearly.
//
// Candidates are produced in ascending device-index order — exactly the
// order the historical linear scan produced — so every downstream RNG
// draw sequence, and therefore the whole simulation output, is
// byte-identical to the unindexed implementation (property-tested in
// fleet_prop_test.go, and on every candidate query of the wild worlds in
// scenario.TestWildGridEquivalence).
type Fleet struct {
	devices []*Device
	enu     *geo.ENU
	// planar home coordinates and roam bounds, parallel to devices.
	xs, ys []float64
	roamM  []float64

	// Uniform grid over home anchors (nil cellStart = no grid; queries
	// fall back to the linear roam-bound scan).
	cellSizeM  float64
	minX, minY float64
	nx, ny     int
	cellStart  []int32 // CSR offsets: cell c owns cellIdx[cellStart[c]:cellStart[c+1]]
	cellIdx    []int32 // device indices bucketed by cell, ascending within each cell
	overflow   []int32 // ascending device indices with roam > roamCap
	roamCap    float64 // max roam bound among grid-indexed devices

	// scratch collects gathered cell buckets per query and idx
	// NearBrute's candidate indices; reusing them makes queries
	// allocation-free but not safe for concurrent queries on one Fleet.
	scratch []int32
	idx     []int32
}

// Grid sizing bounds. The cell edge tracks the roam-bound distribution
// but never drops below minCellM (degenerate all-stationary fleets would
// otherwise build enormous grids), and the grid never exceeds
// maxGridSide cells per axis (sparse outliers grow the cells instead).
const (
	minCellM    = 64
	maxGridSide = 512
)

// NewFleet indexes devices around an origin (typically the city center).
func NewFleet(origin geo.LatLon, devices []*Device) *Fleet {
	f := &Fleet{
		devices: devices,
		enu:     geo.NewENU(origin),
		xs:      make([]float64, len(devices)),
		ys:      make([]float64, len(devices)),
		roamM:   make([]float64, len(devices)),
	}
	for i, d := range devices {
		f.xs[i], f.ys[i] = f.enu.Forward(d.Home)
		f.roamM[i] = roamBound(d)
	}
	f.buildGrid()
	return f
}

// buildGrid derives the roam cap and cell size from the roam-bound
// distribution and buckets the grid-eligible homes.
func (f *Fleet) buildGrid() {
	finite := make([]float64, 0, len(f.roamM))
	for _, r := range f.roamM {
		if !math.IsInf(r, 1) {
			finite = append(finite, r)
		}
	}
	if len(finite) == 0 {
		return // nothing indexable; overflow-only queries degrade to linear
	}
	// roamCap at the 99th percentile: the overflow list — scanned
	// linearly on every query — stays at ~1% of the fleet, while the
	// roaming tail (long-haul co-travelers, unbounded models) cannot
	// inflate every indexed cell's reach. The index picks the largest
	// roam *below* the tail, so a sharply bimodal distribution (many
	// stationary homes, few cross-city commuters) caps at the local
	// mode rather than the first commuter.
	sort.Float64s(finite)
	f.roamCap = math.Max(finite[(len(finite)-1)*99/100], minCellM)

	minX, minY := math.Inf(1), math.Inf(1)
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	indexed := 0
	for i, r := range f.roamM {
		if r > f.roamCap {
			f.overflow = append(f.overflow, int32(i)) // ascending by construction
			continue
		}
		indexed++
		minX, minY = math.Min(minX, f.xs[i]), math.Min(minY, f.ys[i])
		maxX, maxY = math.Max(maxX, f.xs[i]), math.Max(maxY, f.ys[i])
	}
	if indexed == 0 {
		return
	}
	f.cellSizeM = math.Max(f.roamCap, minCellM)
	f.cellSizeM = math.Max(f.cellSizeM, (maxX-minX)/maxGridSide)
	f.cellSizeM = math.Max(f.cellSizeM, (maxY-minY)/maxGridSide)
	f.minX, f.minY = minX, minY
	f.nx = int((maxX-minX)/f.cellSizeM) + 1
	f.ny = int((maxY-minY)/f.cellSizeM) + 1

	// Counting sort into CSR cells; iterating devices in index order keeps
	// every cell's bucket ascending, which the query merge relies on.
	counts := make([]int32, f.nx*f.ny+1)
	for i, r := range f.roamM {
		if r > f.roamCap {
			continue
		}
		counts[f.cellOf(f.xs[i], f.ys[i])+1]++
	}
	for c := 1; c < len(counts); c++ {
		counts[c] += counts[c-1]
	}
	f.cellStart = counts
	f.cellIdx = make([]int32, indexed)
	fill := make([]int32, f.nx*f.ny)
	for i, r := range f.roamM {
		if r > f.roamCap {
			continue
		}
		c := f.cellOf(f.xs[i], f.ys[i])
		f.cellIdx[f.cellStart[c]+fill[c]] = int32(i)
		fill[c]++
	}
}

// cellOf maps planar coordinates to a cell index, clamped into the grid.
func (f *Fleet) cellOf(x, y float64) int {
	cx := int((x - f.minX) / f.cellSizeM)
	cy := int((y - f.minY) / f.cellSizeM)
	cx = clampInt(cx, 0, f.nx-1)
	cy = clampInt(cy, 0, f.ny-1)
	return cy*f.nx + cx
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// roamBound computes how far the device's mobility can take it from home.
func roamBound(d *Device) float64 {
	const margin = 50 // meters of slack for path interpolation
	switch m := d.Mobility.(type) {
	case mobility.Stationary:
		return geo.Distance(d.Home, geo.LatLon(m)) + margin
	case *mobility.Itinerary:
		max := 0.0
		for _, wp := range m.Waypoints() {
			if dist := geo.Distance(d.Home, wp); dist > max {
				max = dist
			}
		}
		return max + margin
	default:
		// Unknown model: assume it can be anywhere; the device joins the
		// overflow list and is checked on every query.
		return math.Inf(1)
	}
}

// Len returns the number of devices.
func (f *Fleet) Len() int { return len(f.devices) }

// Devices returns the underlying slice (shared, not a copy).
func (f *Fleet) Devices() []*Device { return f.devices }

// CountByVendor tallies devices per vendor.
func (f *Fleet) CountByVendor() map[trace.Vendor]int {
	out := make(map[trace.Vendor]int)
	for _, d := range f.devices {
		out[d.Vendor]++
	}
	return out
}

// NearBrute is the reference linear roam-bound scan over every device —
// the pre-index implementation, kept as the equivalence oracle for
// property tests and as the recorded benchmark baseline.
func (f *Fleet) NearBrute(pos geo.LatLon, t time.Time, radiusM float64, dst []*Device) []*Device {
	qx, qy := f.enu.Forward(pos)
	f.idx = f.nearLinear(qx, qy, t, radiusM, f.idx[:0])
	for _, i := range f.idx {
		dst = append(dst, f.devices[i])
	}
	return dst
}

// NearIndices appends to dst the indices of the devices that are active
// at time t and could be within radiusM of pos (callers still verify true
// distance via Pos). It returns the extended slice, enabling
// allocation-free reuse. Indices are ascending, the order NearBrute
// produces; the radio plane consumes indices because an index keys
// per-(tag, device) state without a map of pointers.
//
// NearIndices reuses per-fleet scratch space and is not safe for
// concurrent queries on the same Fleet (the simulation is
// single-goroutine per world).
func (f *Fleet) NearIndices(pos geo.LatLon, t time.Time, radiusM float64, dst []int32) []int32 {
	return f.nearIdx(&f.scratch, pos, t, radiusM, dst)
}

// nearIdx is the query core: it appends the ascending candidate indices
// to dst, gathering grid buckets into *cells (always &f.scratch). The
// scratch is a parameter rather than read from f on purpose: this body
// compiles to a linear-scan loop that measured ~25% faster on amd64
// than the same function reading f.scratch directly (measured on the
// since-retired linear-scan mode of BenchmarkScanOnce, fleet=60000,
// 2 vCPU Xeon) — a code-layout effect, so re-measure before reshaping
// it.
func (f *Fleet) nearIdx(cells *[]int32, pos geo.LatLon, t time.Time, radiusM float64, dst []int32) []int32 {
	qx, qy := f.enu.Forward(pos)
	if f.cellStart == nil {
		return f.nearLinear(qx, qy, t, radiusM, dst)
	}
	reach := f.roamCap + radiusM
	cx0 := int(math.Floor((qx - reach - f.minX) / f.cellSizeM))
	cx1 := int(math.Floor((qx + reach - f.minX) / f.cellSizeM))
	cy0 := int(math.Floor((qy - reach - f.minY) / f.cellSizeM))
	cy1 := int(math.Floor((qy + reach - f.minY) / f.cellSizeM))
	if cx1 < 0 || cy1 < 0 || cx0 >= f.nx || cy0 >= f.ny {
		// Query circle misses the whole grid; only roaming outliers can
		// possibly reach it.
		return f.mergeCheck(nil, f.overflow, qx, qy, t, radiusM, dst)
	}
	cx0, cx1 = clampInt(cx0, 0, f.nx-1), clampInt(cx1, 0, f.nx-1)
	cy0, cy1 = clampInt(cy0, 0, f.ny-1), clampInt(cy1, 0, f.ny-1)
	if 2*(cx1-cx0+1)*(cy1-cy0+1) >= f.nx*f.ny {
		// The query covers most of the grid (small worlds, huge radii):
		// gathering plus sorting would cost more than the plain scan.
		return f.nearLinear(qx, qy, t, radiusM, dst)
	}
	gathered := (*cells)[:0]
	for cy := cy0; cy <= cy1; cy++ {
		row := cy * f.nx
		gathered = append(gathered, f.cellIdx[f.cellStart[row+cx0]:f.cellStart[row+cx1+1]]...)
	}
	*cells = gathered
	// Rows are gathered in ascending-cell order but indices interleave
	// across rows; restore global device order before the checks so the
	// downstream RNG draw order matches the linear scan exactly.
	slices.Sort(gathered)
	return f.mergeCheck(gathered, f.overflow, qx, qy, t, radiusM, dst)
}

func (f *Fleet) nearLinear(qx, qy float64, t time.Time, radiusM float64, dst []int32) []int32 {
	for i := range f.devices {
		dst = f.checkCandidate(int32(i), qx, qy, t, radiusM, dst)
	}
	return dst
}

// mergeCheck walks two ascending index lists in merged order, applying
// the roam-bound test to each — the grid path's equivalent of the linear
// scan's single pass. Either list may be nil.
func (f *Fleet) mergeCheck(a, b []int32, qx, qy float64, t time.Time, radiusM float64, dst []int32) []int32 {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] < b[j] {
			dst = f.checkCandidate(a[i], qx, qy, t, radiusM, dst)
			i++
		} else {
			dst = f.checkCandidate(b[j], qx, qy, t, radiusM, dst)
			j++
		}
	}
	for ; i < len(a); i++ {
		dst = f.checkCandidate(a[i], qx, qy, t, radiusM, dst)
	}
	for ; j < len(b); j++ {
		dst = f.checkCandidate(b[j], qx, qy, t, radiusM, dst)
	}
	return dst
}

// checkCandidate applies the per-device admission test shared by every
// query path: home within roam+radius of the query, and active at t.
// The planar distance test runs first because it is three float ops
// against Active's four time comparisons; the admission condition is a
// commutative conjunction, so the candidate set is order-independent.
func (f *Fleet) checkCandidate(i int32, qx, qy float64, t time.Time, radiusM float64, dst []int32) []int32 {
	reach := f.roamM[i] + radiusM
	if !math.IsInf(reach, 1) {
		dx := f.xs[i] - qx
		dy := f.ys[i] - qy
		if dx*dx+dy*dy > reach*reach {
			return dst
		}
	}
	if f.devices[i].Active(t) {
		dst = append(dst, i)
	}
	return dst
}

// GridStats describes the built spatial index (diagnostics and tests).
type GridStats struct {
	Indexed  int     // devices bucketed into grid cells
	Overflow int     // devices on the linear overflow list
	Cells    int     // total grid cells (nx*ny)
	CellM    float64 // cell edge length in meters
	RoamCapM float64 // roam bound cap for grid-indexed devices
}

// GridStats reports how the fleet was indexed; a zero value means the
// grid is absent and every query takes the linear path.
func (f *Fleet) GridStats() GridStats {
	if f.cellStart == nil {
		return GridStats{}
	}
	return GridStats{
		Indexed:  len(f.cellIdx),
		Overflow: len(f.overflow),
		Cells:    f.nx * f.ny,
		CellM:    f.cellSizeM,
		RoamCapM: f.roamCap,
	}
}

// ResetCooldowns clears reporting state on every device.
func (f *Fleet) ResetCooldowns() {
	for _, d := range f.devices {
		d.ResetCooldowns()
	}
}
