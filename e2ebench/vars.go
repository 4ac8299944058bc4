package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime/metrics"
	"strings"

	"tagsim/internal/obs"
)

// vars is one parsed snapshot of the program's metric exposition — the
// /debug/vars JSON a server renders, or obs.Default rendered the same
// way — keyed by series name plus rendered labels.
type vars map[string]json.RawMessage

func parseVars(b []byte) (vars, error) {
	var v vars
	if err := json.Unmarshal(b, &v); err != nil {
		return nil, fmt.Errorf("parsing metric exposition: %w", err)
	}
	return v, nil
}

// defaultVars snapshots the process-wide obs.Default registry.
func defaultVars() vars {
	var b bytes.Buffer
	obs.WriteJSON(&b, obs.Default)
	v, err := parseVars(b.Bytes())
	if err != nil {
		panic(err) // obs.WriteJSON renders valid JSON by construction
	}
	return v
}

// histStat is a histogram series' count and sum. Ledger rows use these,
// never the log2-bucket quantiles.
type histStat struct {
	Count float64 `json:"count"`
	SumS  float64 `json:"sum_s"`
}

// matches reports whether key is series name, with or without labels.
func matches(key, name string) bool {
	return key == name || strings.HasPrefix(key, name+"{")
}

// sum adds up the scalar series named name across all label sets.
func (v vars) sum(name string) float64 {
	var total float64
	for k, raw := range v {
		if !matches(k, name) {
			continue
		}
		var f float64
		if json.Unmarshal(raw, &f) == nil {
			total += f
		}
	}
	return total
}

// hist adds up the histogram series named name whose labels contain
// every given label fragment (e.g. `endpoint="track"`).
func (v vars) hist(name string, labels ...string) histStat {
	var total histStat
	for k, raw := range v {
		if !matches(k, name) {
			continue
		}
		ok := true
		for _, l := range labels {
			ok = ok && strings.Contains(k, l)
		}
		var h histStat
		if ok && json.Unmarshal(raw, &h) == nil {
			total.Count += h.Count
			total.SumS += h.SumS
		}
	}
	return total
}

// delta is after minus before for a scalar series.
func delta(before, after vars, name string) float64 { return after.sum(name) - before.sum(name) }

// histDelta is after minus before for a histogram series.
func histDelta(before, after vars, name string, labels ...string) histStat {
	a, b := after.hist(name, labels...), before.hist(name, labels...)
	return histStat{Count: a.Count - b.Count, SumS: a.SumS - b.SumS}
}

// goStats reads the Go runtime's cumulative allocation and GC counts.
type goStats struct{ allocBytes, gcCycles float64 }

func readGoStats() goStats {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return goStats{allocBytes: float64(s[0].Value.Uint64()), gcCycles: float64(s[1].Value.Uint64())}
}

func (g goStats) sub(h goStats) goStats {
	return goStats{allocBytes: g.allocBytes - h.allocBytes, gcCycles: g.gcCycles - h.gcCycles}
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
