package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"tagsim/internal/load"
)

// Tiny shapes: every code path of each workload in a few seconds.
// tinyMem serves from in-memory stores under a Zipf mix, a stack for
// the driver's own tests.
var (
	tinyRepro = reproShape{Scale: 0.005, DevicesPerCity: 10}
	tinyMem   = serveShape{
		Tags: 64, MinReports: 30, MaxReports: 40, Shards: 8,
		Mix: load.DefaultMix(), ZipfS: 1.2, Rate: 400,
	}
	tinyCold = serveShape{
		Tags: 128, MinReports: 30, MaxReports: 40, Shards: 8,
		Persistent: true, MemtableBytes: 4 << 10, WALSyncBytes: 1 << 10,
		Mix:  load.Mix{LastKnown: 35, History: 25, Track: 15, Stats: 5, Report: 20},
		Rate: 400,
	}
)

// benchmarkJSON is the repository's BENCHMARK.json.
type benchmarkJSON struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q has no runner", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists workloads %v, the runner has %d", names, len(workloads))
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the table %d", len(bj.EndToEnd), len(endToEnd))
	}
	for i, m := range bj.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end_to_end[%d] = %+v, table has %+v", i, m, d)
		}
	}
	if len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the table %d", len(bj.PerLayer), len(perLayer))
	}
	for i, m := range bj.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer[%d] = %+v, table has %+v", i, m, d)
		}
	}
}

// emitted runs a workload at a tiny shape and returns its result and
// the metrics of its result line, failing on any failed check or
// missing metric.
func emitted(t *testing.T, workload string, trace bool, run func(options) (*result, error)) (*result, map[string]any) {
	t.Helper()
	o := options{workload: workload, seed: 7, seconds: 1, trace: trace}
	res, err := run(o)
	if err != nil {
		t.Fatalf("%s trace=%v: %v", workload, trace, err)
	}
	line, err := resultLine(res, o)
	if err != nil {
		t.Fatalf("%s trace=%v: %v", workload, trace, err)
	}
	var out struct {
		Correct   bool
		Attempted int
		Failed    int
		Metrics   map[string]any
	}
	if err := json.Unmarshal(line, &out); err != nil {
		t.Fatal(err)
	}
	if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
		t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d", workload, trace, out.Correct, out.Attempted, out.Failed)
	}
	return res, out.Metrics
}

func TestEveryMetricEmitted(t *testing.T) {
	runners := map[string]func(options) (*result, error){
		"repro":      func(o options) (*result, error) { return runRepro(tinyRepro, o) },
		"serve_cold": func(o options) (*result, error) { return runServe(tinyCold, o) },
	}
	for name, run := range runners {
		for _, trace := range []bool{false, true} {
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			res, got := emitted(t, name, trace, run)
			if len(got) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(got), len(defs))
			}
			if !trace {
				continue
			}
			m := res.metrics
			if name == "repro" {
				// The per-call rows add up to the traced wall-clock.
				var sum float64
				for _, c := range reproCalls {
					sum += m["experiments."+c+"_s"]
				}
				if w := m["experiments.wall_s"]; sum < 0.9*w || sum > w {
					t.Errorf("repro: per-call rows sum to %.3f s of a %.3f s wall", sum, w)
				}
				continue
			}
			// Each phase's per-op counts sum to its attempted requests.
			for _, prefix := range []string{"", "capacity."} {
				var sum float64
				for _, op := range serveOps {
					sum += m[prefix+op+".requests"]
				}
				total := m["load.attempted"]
				if prefix != "" {
					total = m["capacity.attempted"]
				}
				if sum != total || total == 0 {
					t.Errorf("%s: %sper-op requests sum to %v of %v attempted", name, prefix, sum, total)
				}
			}
		}
	}
}

func TestDigestMismatchCounts(t *testing.T) {
	if n := digestMismatches([]string{"a", "a", "a"}); n != 0 {
		t.Errorf("identical digests: %d mismatches", n)
	}
	if n := digestMismatches([]string{"a", "b", "a"}); n != 1 {
		t.Errorf("one flipped digest: %d mismatches, want 1", n)
	}
	var r renderings
	for i := 0; i < reproRenderings; i++ {
		r.Write([]byte("Figure\n"))
	}
	if err := r.check(); err != nil {
		t.Errorf("complete renderings: %v", err)
	}
	r.chunks[3] = []byte("\n")
	if r.check() == nil {
		t.Error("an empty rendering passed the check")
	}
	r.chunks = r.chunks[:reproRenderings-1]
	if r.check() == nil {
		t.Error("a missing rendering passed the check")
	}
}

func TestReproDigestIndependentOfWorkers(t *testing.T) {
	opts := tinyRepro.options(3)
	var digests []string
	for _, w := range []int{1, runtime.NumCPU()} {
		opts.Workers = w
		res := newResult()
		_, d, err := reproduce(res, opts)
		if err != nil || res.failed != 0 {
			t.Fatalf("workers=%d: err %v, %d failed", w, err, res.failed)
		}
		digests = append(digests, d)
	}
	if digests[0] != digests[1] {
		t.Errorf("digest at Workers=1 %s, at Workers=%d %s", digests[0], runtime.NumCPU(), digests[1])
	}
}

// fakeStack points a driver at a handler standing in for the server.
func fakeStack(t *testing.T, h http.HandlerFunc) *stack {
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return &stack{u: newUniverse(1, tinyMem.Tags, tinyMem.MinReports, tinyMem.MaxReports), base: ts.URL, client: ts.Client()}
}

func TestDriverCountsBadResponses(t *testing.T) {
	cases := map[string]http.HandlerFunc{
		"non-200": func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, "down", http.StatusInternalServerError)
		},
		"wrong tag": func(w http.ResponseWriter, r *http.Request) {
			w.Write([]byte(`{"tag_id":"other","found":true,"reports":[],"track":[],"vendors":[],"accepted":true}`))
		},
		"not json": func(w http.ResponseWriter, r *http.Request) { w.Write([]byte("<html>")) },
	}
	for name, h := range cases {
		d := newDriver(tinyMem, fakeStack(t, h), 1)
		p := d.run("fake", false, false, 50*time.Millisecond)
		if p.attempted == 0 || p.failed != p.attempted {
			t.Errorf("%s: %d of %d requests failed, want all", name, p.failed, p.attempted)
		}
	}
}

// cpu_ms_per_op counts the CPU a request costs, not the time it waits:
// a handler that spins for 2 ms per request reads about 2 ms, one that
// sleeps 2 ms reads well under it. One worker drives, so the spinning
// handler has a vCPU to itself.
func TestCPUPerOpCountsWorkNotWaiting(t *testing.T) {
	const cost = 2 * time.Millisecond
	handlers := map[string]http.HandlerFunc{
		"burn": func(w http.ResponseWriter, r *http.Request) {
			for start := time.Now(); time.Since(start) < cost; {
			}
			http.Error(w, "burnt", http.StatusTeapot)
		},
		"sleep": func(w http.ResponseWriter, r *http.Request) {
			time.Sleep(cost)
			http.Error(w, "slept", http.StatusTeapot)
		},
	}
	for name, h := range handlers {
		d := newDriver(tinyMem, fakeStack(t, h), 1)
		d.spin = 0
		d.workers = d.workers[:1]
		got := cpuPerOp(func() int { return d.run(name, true, false, 300*time.Millisecond).attempted })
		if name == "burn" && got < 0.8*ms(cost) {
			t.Errorf("burning %v per request: %.3f ms CPU per request", cost, got)
		}
		if name == "sleep" && got > ms(cost)/2 {
			t.Errorf("sleeping %v per request: %.3f ms CPU per request", cost, got)
		}
	}
}

func TestResultLineRejectsZeroMetric(t *testing.T) {
	o := options{workload: "serve_cold", seconds: 1}
	res := newResult()
	res.attempted = 1
	for _, d := range endToEnd {
		res.metrics[d.name] = 1
	}
	if _, err := resultLine(res, o); err != nil {
		t.Fatalf("every metric 1: %v", err)
	}
	for _, bad := range []float64{0, math.NaN(), math.Inf(1)} {
		res.metrics["cpu_ms_per_op"] = bad
		if _, err := resultLine(res, o); err == nil {
			t.Errorf("cpu_ms_per_op %v passed", bad)
		}
	}
}

func TestStoreCheckCatchesAcceptedMismatch(t *testing.T) {
	res := newResult()
	st, err := setUp(tinyCold, 1, res)
	if err != nil {
		t.Fatal(err)
	}
	defer st.tearDown()
	a0, r0 := st.storeCounts()
	st.checkStores(res, "quiet", a0, r0, &phase{})
	if res.failed != 0 {
		t.Fatalf("no writes, no client answers: %d failed", res.failed)
	}
	st.checkStores(res, "lying", a0, r0, &phase{accepted: 2})
	if res.failed != 2 {
		t.Errorf("client saw 2 accepted writes the stores never took: %d failed, want 2", res.failed)
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "repro", "--seconds", "0"},
		{"--workload", "repro", "--trace", "2"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}

func TestHeaderNamesHostAndCommand(t *testing.T) {
	h := newHeader(options{workload: "repro", seed: 5, seconds: 3}, []string{"--workload", "repro", "--seed", "5"})
	if h.NProc < 1 || h.GOMAXPROCS < 1 || h.CPU == "" || !strings.HasPrefix(h.GoVersion, "go") || h.Commit == "" || len(h.SourceDigest) != 16 {
		t.Errorf("incomplete header %+v", h)
	}
	if h.Command != "bash e2ebench/run.sh --workload repro --seed 5" {
		t.Errorf("command %q", h.Command)
	}
	if !slices.Equal(h.Flags, []string{}) {
		t.Errorf("flags %v", h.Flags)
	}
}
