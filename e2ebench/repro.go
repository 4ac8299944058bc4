package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"time"

	"tagsim"
	"tagsim/internal/stats"
)

// reproShape pins the reproduction the repro workload regenerates.
// The verify shape (Scale 0.02, 60 devices per city) spreads too widely
// run to run; 0.05 and 120 take about 3 s per reproduction on a 2-vCPU
// host.
type reproShape struct {
	Scale          float64
	DevicesPerCity int
}

var reproDefault = reproShape{Scale: 0.05, DevicesPerCity: 120}

// Set-up is a warm-up reproduction at a tiny shape, repeated setups
// times: it runs every code path once and grows the heap before the
// clock starts.
const (
	warmScale   = 0.005
	warmDevices = 10
)

// inputs is how many seeds a run's reproductions cycle through, each
// derived from --seed. What one reproduction costs depends on its seed
// by about a tenth; cycling averages that out of a run's figure. A run
// makes at least one full cycle, however short --seconds is.
const inputs = 4

func inputSeed(seed int64, i int) int64 { return seed*inputs + int64(i%inputs) }

// reproRenderings is how many renderings ReproduceAll writes: four
// controlled experiments and eleven campaign figures.
const reproRenderings = 15

// renderings captures ReproduceAll's output one Write per rendering.
type renderings struct{ chunks [][]byte }

func (r *renderings) Write(p []byte) (int, error) {
	r.chunks = append(r.chunks, bytes.Clone(p))
	return len(p), nil
}

func (r *renderings) digest() string {
	h := sha256.New()
	for _, c := range r.chunks {
		h.Write(c)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// check verifies that every rendering is present and non-empty.
func (r *renderings) check() error {
	if len(r.chunks) != reproRenderings {
		return fmt.Errorf("%d renderings, want %d", len(r.chunks), reproRenderings)
	}
	for i, c := range r.chunks {
		if len(bytes.TrimSpace(c)) == 0 {
			return fmt.Errorf("rendering %d is empty", i+1)
		}
	}
	return nil
}

// digestMismatches counts the digests that differ from the most common
// one: a deterministic reproduction renders identically every time.
func digestMismatches(digests []string) int {
	count := map[string]int{}
	best := 0
	for _, d := range digests {
		count[d]++
		best = max(best, count[d])
	}
	return len(digests) - best
}

// options are ReproduceAll's options at the default worker count (one
// per CPU).
func (s reproShape) options(seed int64) tagsim.CampaignOptions {
	return tagsim.CampaignOptions{Seed: seed, Scale: s.Scale, DevicesPerCity: s.DevicesPerCity}
}

// reproduce runs one ReproduceAll, checks its renderings and returns
// its wall-clock and digest.
func reproduce(res *result, opts tagsim.CampaignOptions) (time.Duration, string, error) {
	var out renderings
	t := time.Now()
	if err := tagsim.ReproduceAll(&out, opts); err != nil {
		return 0, "", fmt.Errorf("ReproduceAll: %w", err)
	}
	wall := time.Since(t)
	res.attempted++
	if err := out.check(); err != nil {
		res.fail(1, "repro: %v", err)
	}
	return wall, out.digest(), nil
}

func runRepro(sh reproShape, o options) (*result, error) {
	if o.trace {
		return reproTraced(sh, o)
	}
	res := newResult()
	var setupS []float64
	for i := 0; i < setups; i++ {
		c := processCPU()
		if _, _, err := reproduce(res, reproShape{warmScale, warmDevices}.options(inputSeed(o.seed, i))); err != nil {
			return nil, err
		}
		setupS = append(setupS, (processCPU() - c).Seconds())
	}
	var cpu [inputs][]float64
	var digests [inputs][]string
	rss := startRSS()
	begin := time.Now()
	for n := 0; n < inputs || time.Since(begin) < time.Duration(o.seconds)*time.Second; n++ {
		i := n % inputs
		c := processCPU()
		_, digest, err := reproduce(res, sh.options(inputSeed(o.seed, i)))
		if err != nil {
			rss.stopMB()
			return nil, err
		}
		cpu[i] = append(cpu[i], ms(processCPU()-c))
		digests[i] = append(digests[i], digest)
	}
	res.metrics["peak_rss_mb"] = rss.stopMB()
	// Each input weighs the same, however many times the run made it.
	var perInput []float64
	for i := range cpu {
		perInput = append(perInput, stats.Mean(cpu[i]))
		res.fail(digestMismatches(digests[i]), "repro: seed %d renders differently from its other reproductions", inputSeed(o.seed, i))
	}
	res.metrics["cpu_ms_per_op"] = stats.Mean(perInput)
	res.metrics["setup_s"] = stats.Percentile(setupS, 50)
	return res, nil
}

// reproTraced runs the reproduction at Workers=1 twice: once through
// ReproduceAll untouched, once as the sequence of public calls it makes,
// each timed. The difference between the two wall-clocks is the
// benchmark's own overhead. Between them one ReproduceAll at the default
// worker count gives the wall-clock a user waits for. All three
// renderings must agree.
func reproTraced(sh reproShape, o options) (*result, error) {
	res := newResult()
	opts := sh.options(inputSeed(o.seed, 0))
	opts.Workers = 1
	ref, refDigest, err := reproduce(res, opts)
	if err != nil {
		return nil, err
	}
	defWall, defDigest, err := reproduce(res, sh.options(inputSeed(o.seed, 0)))
	if err != nil {
		return nil, err
	}
	if defDigest != refDigest {
		res.fail(1, "repro: the default worker count renders differently from Workers=1")
	}
	res.metrics["repro.wall_s"] = defWall.Seconds()
	before, g0 := defaultVars(), readGoStats()
	rows, out, wall := reproSequence(opts)
	after, g := defaultVars(), readGoStats().sub(g0)
	res.attempted++
	if err := out.check(); err != nil {
		res.fail(1, "repro: %v", err)
	}
	if out.digest() != refDigest {
		res.fail(1, "repro: the per-call sequence renders differently from ReproduceAll")
	}
	m := res.metrics
	var attributed float64
	for i, name := range reproCalls {
		m["experiments."+name+"_s"] = rows[i].Seconds()
		attributed += rows[i].Seconds()
	}
	m["experiments.wall_s"] = wall.Seconds()
	m["experiments.unattributed_s"] = wall.Seconds() - attributed
	m["bench.overhead_share"] = wall.Seconds()/ref.Seconds() - 1
	m["pipeline.accumulate_busy_s"] = histDelta(before, after, "pipeline_consume_seconds", `consumer="accumulate"`).SumS
	m["pipeline.batches"] = delta(before, after, "pipeline_batches_total")
	m["pipeline.records"] = delta(before, after, "pipeline_reports_total") +
		delta(before, after, "pipeline_fixes_total") + delta(before, after, "pipeline_crawls_total")
	for _, c := range []string{"ticks", "heard", "reported", "delivered", "grid_overflow"} {
		m["encounter."+c] = delta(before, after, "encounter_"+c+"_total")
	}
	m["encounter.report_ratio"] = ratio(m["encounter.reported"], m["encounter.heard"])
	m["go.alloc_mb"] = g.allocBytes / (1 << 20)
	m["go.gc_cycles"] = g.gcCycles
	return res, nil
}

// reproSequence makes ReproduceAll's public calls one at a time, in its
// order and with its arguments, timing each (rendering included) and
// writing the renderings as ReproduceAll does. At Workers=1 ReproduceAll
// runs exactly these calls sequentially, so the output is identical.
func reproSequence(opts tagsim.CampaignOptions) ([]time.Duration, *renderings, time.Duration) {
	cafDays := 5
	if opts.Scale > 0 && opts.Scale < 0.5 {
		cafDays = 2
	}
	var c *tagsim.Campaign
	calls := map[string]func() string{
		"Figure2":         func() string { return tagsim.Figure2(opts.Seed).Render() },
		"Figure3":         func() string { return tagsim.Figure3(opts.Seed, cafDays).Render() },
		"Figure4":         func() string { return tagsim.Figure4(opts.Seed, cafDays).Render() },
		"Battery":         func() string { return tagsim.Battery().Render() },
		"NewCampaign":     func() string { c = tagsim.NewCampaign(opts); return "" },
		"Table1":          func() string { return tagsim.Table1(c).Render() },
		"Figure5Sweep10":  func() string { return tagsim.Figure5Sweep(c, 10).Render() },
		"Figure5Sweep25":  func() string { return tagsim.Figure5Sweep(c, 25).Render() },
		"Figure5Sweep100": func() string { return tagsim.Figure5Sweep(c, 100).Render() },
		"Figure5d":        func() string { return tagsim.Figure5d(c).Render() },
		"Figure5e":        func() string { return tagsim.Figure5e(c).Render() },
		"Figure5f":        func() string { return tagsim.Figure5f(c).Render() },
		"Figure6":         func() string { return tagsim.Figure6(c, "AE").Render() },
		"Figure7":         func() string { return tagsim.Figure7(c).Render() },
		"Figure8":         func() string { return tagsim.Figure8(c).Render() },
		"Headline":        func() string { return tagsim.Headline(c).Render() },
	}
	out := &renderings{}
	rows := make([]time.Duration, len(reproCalls))
	begin := time.Now()
	for i, name := range reproCalls {
		t := time.Now()
		s := calls[name]()
		rows[i] = time.Since(t)
		if name != "NewCampaign" {
			_, _ = io.WriteString(out, s+"\n")
		}
	}
	return rows, out, time.Since(begin)
}
