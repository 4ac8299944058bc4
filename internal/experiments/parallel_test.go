package experiments

import (
	"strings"
	"testing"

	"tagsim/internal/analysis"
	"tagsim/internal/trace"
)

// tinyOpts shrinks the campaign to one simulated day per country so the
// parallel-equivalence tests stay fast.
func tinyOpts(seed int64, workers int) Options {
	return Options{Seed: seed, Scale: 0.02, DevicesPerCity: 60, Workers: workers}
}

// TestCampaignParallelDeterminism is the acceptance check for the
// parallel runner: the rendered tables of a Workers=8 campaign must be
// byte-identical to Workers=1.
func TestCampaignParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign experiments are slow")
	}
	seq := NewCampaign(tinyOpts(41, 1))
	par := NewCampaign(tinyOpts(41, 8))

	if got, want := Table1(par).Render(), Table1(seq).Render(); got != want {
		t.Errorf("Table 1 rendering diverged across worker counts:\nworkers=8:\n%s\nworkers=1:\n%s", got, want)
	}
	for _, radius := range []float64{25, 100} {
		if got, want := Figure5Sweep(par, radius).Render(), Figure5Sweep(seq, radius).Render(); got != want {
			t.Errorf("Figure 5 (%.0f m) rendering diverged across worker counts:\nworkers=8:\n%s\nworkers=1:\n%s", radius, got, want)
		}
	}
	if got, want := Figure5d(par).Render(), Figure5d(seq).Render(); got != want {
		t.Errorf("Figure 5d rendering diverged across worker counts:\nworkers=8:\n%s\nworkers=1:\n%s", got, want)
	}
	if got, want := Figure7(par).Render(), Figure7(seq).Render(); got != want {
		t.Errorf("Figure 7 rendering diverged across worker counts:\nworkers=8:\n%s\nworkers=1:\n%s", got, want)
	}
	if got, want := Figure8(par).Render(), Figure8(seq).Render(); got != want {
		t.Errorf("Figure 8 rendering diverged across worker counts:\nworkers=8:\n%s\nworkers=1:\n%s", got, want)
	}
	if got, want := Headline(par).Render(), Headline(seq).Render(); got != want {
		t.Errorf("Headline rendering diverged across worker counts:\nworkers=8:\n%s\nworkers=1:\n%s", got, want)
	}
}

// renderWildFigures renders every wild-campaign artifact the paper's
// evaluation reproduces (Table 1, Figures 5a-f, 6, 7, 8, headline) into
// one string.
func renderWildFigures(c *Campaign) string {
	var b strings.Builder
	b.WriteString(Table1(c).Render())
	for _, radius := range []float64{10, 25, 100} {
		b.WriteString(Figure5Sweep(c, radius).Render())
	}
	b.WriteString(Figure5d(c).Render())
	b.WriteString(Figure5e(c).Render())
	b.WriteString(Figure5f(c).Render())
	b.WriteString(Figure6(c, "AE").Render())
	b.WriteString(Figure7(c).Render())
	b.WriteString(Figure8(c).Render())
	b.WriteString(Headline(c).Render())
	return b.String()
}

// TestFigurePipelineIndexEquivalence is the analysis index's acceptance
// gate: every reproduced table and figure must render byte-identically
// whether the analysis plane runs the production columnar indexes or the
// analysis.Scan per-figure rescans on the same campaign.
func TestFigurePipelineIndexEquivalence(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("campaign experiments are slow")
	}
	c := NewCampaign(tinyOpts(47, 0))
	indexed := renderWildFigures(c)
	ref := *c
	ref.reference = func(truth *analysis.TruthIndex, reports []trace.CrawlRecord) accuracyPlane {
		return analysis.Scan{Truth: truth, Reports: reports}
	}
	scan := renderWildFigures(&ref)
	if indexed != scan {
		t.Errorf("figure pipeline diverged between indexed and scan analysis:\nindexed:\n%s\nscan:\n%s", indexed, scan)
	}
}

func TestCampaignReplicates(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign experiments are slow")
	}
	set := CampaignReplicates(tinyOpts(43, 0), 2)
	if set.N() != 2 {
		t.Fatalf("N = %d, want 2", set.N())
	}

	t1 := set.Table1Stats()
	if len(t1.Rows) != 6 {
		t.Fatalf("%d Table 1 rows, want 6", len(t1.Rows))
	}
	if t1.Total.AppleNow.N != 2 {
		t.Errorf("total aggregate over %d samples, want 2", t1.Total.AppleNow.N)
	}
	if t1.Total.AppleNow.Mean <= t1.Total.SamsungNow.Mean {
		t.Errorf("mean Apple Now (%.0f) should exceed Samsung (%.0f)",
			t1.Total.AppleNow.Mean, t1.Total.SamsungNow.Mean)
	}

	f5 := set.Figure5Stats(100)
	if got := f5.Acc(trace.VendorCombined, 120); got.N != 2 {
		t.Errorf("figure 5 aggregate over %d samples, want 2", got.N)
	}
	// Accuracy still improves with responsiveness in the aggregate.
	if f5.Acc(trace.VendorCombined, 120).Mean < f5.Acc(trace.VendorCombined, 1).Mean-5 {
		t.Errorf("mean accuracy at 120 min (%.1f) below 1 min (%.1f)",
			f5.Acc(trace.VendorCombined, 120).Mean, f5.Acc(trace.VendorCombined, 1).Mean)
	}

	head := set.HeadlineStats()
	if head.Acc10Min100M.Mean <= 0 || head.Acc10Min100M.Mean > 100 {
		t.Errorf("aggregate headline accuracy = %.1f", head.Acc10Min100M.Mean)
	}

	out := set.Render()
	for _, want := range []string{"2 replicates", "Table 1", "Figure 5", "Headline", "±"} {
		if !strings.Contains(out, want) {
			t.Errorf("replicate rendering missing %q:\n%s", want, out)
		}
	}
}

func TestReplicateStatDegenerate(t *testing.T) {
	one := newReplicateStat([]float64{4})
	if one.Std != 0 || one.N != 1 || one.Mean != 4 {
		t.Errorf("single-sample stat = %+v", one)
	}
	if s := newReplicateStat([]float64{2, 4}); s.Mean != 3 || s.N != 2 || s.Std <= 0 {
		t.Errorf("two-sample stat = %+v", s)
	}
}
