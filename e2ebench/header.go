package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"tagsim/internal/stats"
)

// header is the run's comparability record: the host shape, the code
// measured and the command that reproduces the run.
type header struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	Command    string `json:"command"`
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	// Commit is the VCS revision stamped into the build, "unknown" when
	// the sources were not built from a repository. SourceDigest
	// identifies the measured code either way: a SHA-256 over every .go
	// file and go.mod under the working directory.
	Commit       string   `json:"commit"`
	SourceDigest string   `json:"source_digest"`
	Flags        []string `json:"flags"`
}

func newHeader(o options, args []string) header {
	return header{
		Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		Command:    strings.Join(append([]string{"bash", "e2ebench/run.sh"}, args...), " "),
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit(),
		// The digest walks the checkout before any workload starts, so
		// it adds nothing to a measured region.
		SourceDigest: sourceDigest("."),
		Flags:        []string{},
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+modified"
	}
	return rev
}

func sourceDigest(root string) string {
	h := sha256.New()
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return nil
		}
		defer f.Close()
		io.WriteString(h, filepath.ToSlash(path)+"\x00")
		_, _ = io.Copy(h, f)
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// rssSampler tracks the process's peak resident set over a measured
// region, window by window: the kernel keeps the high-water mark, and the
// sampler reads and resets it once per window. The run reports the
// median window's peak, so one window in which a GC cycle ran late does
// not set the figure.
type rssSampler struct {
	stop, done chan struct{}
	peaks      []float64
}

// rssWindow is how long one window of the resident-set peak runs.
const rssWindow = 5 * time.Second

// startRSS first returns the heap set-up freed to the OS, so memory a
// set-up used and gave back does not count, then starts the first
// window.
func startRSS() *rssSampler {
	debug.FreeOSMemory()
	resetPeakRSS()
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(rssWindow)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				s.peaks = append(s.peaks, peakRSSMB())
				return
			case <-tick.C:
				s.peaks = append(s.peaks, peakRSSMB())
				resetPeakRSS()
			}
		}
	}()
	return s
}

// stopMB ends sampling and returns the median window's peak in MiB.
func (s *rssSampler) stopMB() float64 {
	close(s.stop)
	<-s.done
	return stats.Percentile(s.peaks, 50)
}
