// Command e2ebench is tagsim's end-to-end benchmark. It measures the two
// numbers a user of the repository sees — the wall-clock of regenerating
// the paper (tagsim.ReproduceAll) and the latency and capacity of the
// /v1/* query API over a real loopback socket — and, in a separate traced
// run, splits each into the repository's own layers by timing calls into
// their public functions and differencing the counters the program
// already publishes (obs.Default, /debug/vars, Service.TierStats).
//
// Usage, from the repository root:
//
//	bash e2ebench/run.sh --workload serve_cold --seed 1 --seconds 35 --trace 0
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and metrics. With --trace 0 the metrics are the
// end-to-end ones, with --trace 1 the per-layer ledger. The line before
// it is the run header (host shape, commit, seed, command). See README.md
// for the workloads and the per-layer to end-to-end map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// options are the command-line arguments every workload receives.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
}

// result is one run's outcome: what was attempted, what failed an
// output check, and the metric values by name.
type result struct {
	attempted, failed int
	metrics           map[string]float64
	// flags are conditions the run header carries, e.g. a generator
	// whose lateness rather than the server set the latency.
	flags []string
}

func newResult() *result { return &result{metrics: map[string]float64{}} }

// fail records n failed output checks with the reason on stderr.
func (r *result) fail(n int, format string, args ...any) {
	if n <= 0 {
		return
	}
	r.failed += n
	fmt.Fprintf(os.Stderr, "e2ebench: check failed (%d): %s\n", n, fmt.Sprintf(format, args...))
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(options) (*result, error){
	"repro":      func(o options) (*result, error) { return runRepro(reproDefault, o) },
	"serve_cold": func(o options) (*result, error) { return runServe(serveCold, o) },
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: repro or serve_cold")
	fs.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	fs.IntVar(&o.seconds, "seconds", 35, "seconds one run measures")
	fs.IntVar(&trace, "trace", 0, "1 emits the per-layer ledger instead of the end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = trace == 1
	runWorkload, ok := workloads[o.workload]
	if !ok || o.seconds < 1 || (trace != 0 && trace != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "e2ebench: need --workload {repro,serve_cold}, --seconds >= 1, --trace {0,1}\n")
		return 2
	}
	hdr := newHeader(o, args)
	res, err := runWorkload(o)
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %s: %v\n", o.workload, err)
		return 1
	}
	line, err := resultLine(res, o)
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %s: %v\n", o.workload, err)
		return 1
	}
	hdr.Flags = append(hdr.Flags, res.flags...)
	h, _ := json.Marshal(map[string]any{"header": hdr})
	fmt.Fprintf(stdout, "%s\n%s\n", h, line)
	return 0
}

// resultLine renders the run's last output line. A trace-0 run must
// have measured every end-to-end metric, each a positive finite number:
// a 0 or NaN would read as the best run ever. A per-layer row the
// workload's layers never touch is reported as 0, so every run emits
// the full ledger.
func resultLine(res *result, o options) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	metrics := make(map[string]value, len(defs))
	var missing []string
	for _, d := range defs {
		v, ok := res.metrics[d.name]
		if !ok {
			if !o.trace || d.in(o.workload) {
				missing = append(missing, d.name)
			}
		}
		if ok && !o.trace && (!(v > 0) || math.IsInf(v, 0)) {
			return nil, fmt.Errorf("end-to-end metric %s reads %v", d.name, v)
		}
		metrics[d.name] = value{v, d.unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return nil, fmt.Errorf("metrics not measured: %s", strings.Join(missing, ", "))
	}
	if res.attempted < 1 {
		return nil, fmt.Errorf("no operation attempted")
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, metrics})
}
