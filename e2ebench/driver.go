package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"tagsim/internal/load"
)

// driver generates a serve workload's requests from its seed and sends
// them over one HTTP client with at most nproc connections, from nproc
// goroutines.
type driver struct {
	sh      serveShape
	st      *stack
	seed    int64
	workers []*worker
	// spin is how early a paced worker wakes before a request is due
	// (see spinMargin); 0 when no latency is measured, so the driver
	// spends as little CPU as it can waiting.
	spin time.Duration
}

// worker is one request-driving goroutine's state that outlives a
// phase: its count of writes, which stamps each write with a unique,
// increasing report time, and its reused response buffer.
type worker struct {
	id     int
	writes int
	buf    []byte
}

// writeStep separates consecutive writes' report times. Successive
// writes to one tag are accepted when their times are 192 s apart, so
// under uniform popularity over thousands of tags few are rate-capped.
const writeStep = time.Second

func newDriver(sh serveShape, st *stack, seed int64) *driver {
	d := &driver{sh: sh, st: st, seed: seed, spin: spinMargin}
	for w := 0; w < runtime.NumCPU(); w++ {
		d.workers = append(d.workers, &worker{id: w})
	}
	return d
}

// phase is what one phase of traffic did.
type phase struct {
	attempted, failed  int
	accepted, rejected int // writes, as the client saw them answered
	firstErr           error
	perOp              [len(serveOps)]int
	// lat is each request's latency in ms: from its due time in the
	// open loop, from its send in the closed loop. late is how far
	// behind its due time each open-loop request was sent.
	lat, late []float64
	// elapsed runs from the phase's start to its last completion.
	elapsed time.Duration
	// Traced phases only: per-op latency from send to decoded response,
	// and its sum in seconds.
	opLat   [len(serveOps)][]float64
	clientS float64
}

// throughput is the phase's completed requests per second, up to its
// last completion.
func (p *phase) throughput() float64 {
	if p.elapsed <= 0 {
		return 0
	}
	return float64(len(p.lat)) / p.elapsed.Seconds()
}

func (p *phase) merge(q *phase) {
	p.attempted += q.attempted
	p.failed += q.failed
	p.accepted += q.accepted
	p.rejected += q.rejected
	if p.firstErr == nil {
		p.firstErr = q.firstErr
	}
	for i := range p.perOp {
		p.perOp[i] += q.perOp[i]
		p.opLat[i] = append(p.opLat[i], q.opLat[i]...)
	}
	p.lat = append(p.lat, q.lat...)
	p.late = append(p.late, q.late...)
	p.clientS += q.clientS
	p.elapsed = max(p.elapsed, q.elapsed)
}

// stream is a worker's deterministic request sequence for one phase:
// the op and tag draws from one RNG, the open-loop interarrival gaps
// from another, both seeded from (seed, phase, worker).
type stream struct {
	mix     load.Mix
	total   int
	rng     *rand.Rand
	zipf    *rand.Zipf
	tags    int
	arrival *rand.Rand
	gapMean float64 // seconds
}

func newStream(d *driver, name string, w int) *stream {
	rngFor := func(kind string) *rand.Rand {
		h := fnv.New64a()
		fmt.Fprintf(h, "%d/%s/%s/%d", d.seed, name, kind, w)
		return rand.New(rand.NewSource(int64(h.Sum64())))
	}
	m := d.sh.Mix
	s := &stream{
		mix: m, total: m.LastKnown + m.History + m.Track + m.Stats + m.Report,
		rng: rngFor("ops"), tags: len(d.st.u.tags), arrival: rngFor("arrivals"),
		gapMean: float64(len(d.workers)) / d.sh.Rate,
	}
	if d.sh.ZipfS > 0 {
		s.zipf = rand.NewZipf(s.rng, d.sh.ZipfS, 1, uint64(s.tags-1))
	}
	return s
}

// next draws the next request: an op by the mix weights (load.Op
// order) and a tag by popularity.
func (s *stream) next() (load.Op, int) {
	r := s.rng.Intn(s.total)
	op := load.OpLastKnown
	for _, w := range []int{s.mix.LastKnown, s.mix.History, s.mix.Track, s.mix.Stats} {
		if r < w {
			break
		}
		r -= w
		op++
	}
	if s.zipf != nil {
		return op, int(s.zipf.Uint64())
	}
	return op, s.rng.Intn(s.tags)
}

func (s *stream) gap() time.Duration {
	return time.Duration(s.arrival.ExpFloat64() * s.gapMean * float64(time.Second))
}

// spinMargin is how early a paced worker wakes before a request is
// due; it spins on the clock for the rest of the wait. Go's timers wake
// an idle process only on whole milliseconds, which would put a floor
// under latency measured from the due time, so the worker sleeps in the
// kernel instead (see preciseSleep), whose wake-ups run tens of
// microseconds late. Spinning only for that margin leaves the CPUs to
// the server, which shares the process and the host's two vCPUs. The
// worker does not yield with runtime.Gosched while it spins: two
// yielding workers keep finding each other on the run queue ahead of
// the network poller, leaving responses unread for milliseconds.
const spinMargin = 100 * time.Microsecond

// waitUntil returns at or just after due and reports when that was. It
// sleeps until spin before due, then spins on the clock. With no spin it
// parks the goroutine on the Go runtime's timer instead of blocking its
// thread, so no P is handed off and nothing but the timer wakes up.
func waitUntil(due time.Time, spin time.Duration) time.Time {
	if spin == 0 {
		time.Sleep(time.Until(due))
		return time.Now()
	}
	for d := time.Until(due) - spin; d > 0; d = time.Until(due) - spin {
		preciseSleep(d)
	}
	for {
		if now := time.Now(); !now.Before(due) {
			return now
		}
	}
}

// run drives one phase of dur: an open loop at the shape's rate, or a
// closed loop with one request in flight per worker.
func (d *driver) run(name string, open, traced bool, dur time.Duration) *phase {
	outs := make([]*phase, len(d.workers))
	var wg sync.WaitGroup
	begin := time.Now()
	end := begin.Add(dur)
	for i, w := range d.workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs[i] = d.drive(w, newStream(d, name, w.id), open, traced, begin, end)
		}()
	}
	wg.Wait()
	total := &phase{}
	for _, p := range outs {
		total.merge(p)
	}
	return total
}

func (d *driver) drive(w *worker, s *stream, open, traced bool, begin, end time.Time) *phase {
	p := &phase{}
	due := begin
	for {
		var sent time.Time
		if open {
			due = due.Add(s.gap())
			if !due.Before(end) {
				break
			}
			sent = waitUntil(due, d.spin)
		} else {
			if sent = time.Now(); !sent.Before(end) {
				break
			}
		}
		op, tag := s.next()
		err := d.do(w, op, tag, p)
		done := time.Now()
		p.attempted++
		p.perOp[op]++
		if err != nil {
			p.failed++
			if p.firstErr == nil {
				p.firstErr = err
			}
		}
		if open {
			p.lat = append(p.lat, ms(done.Sub(due)))
			p.late = append(p.late, ms(sent.Sub(due)))
		} else {
			p.lat = append(p.lat, ms(done.Sub(sent)))
		}
		p.elapsed = done.Sub(begin)
		if traced {
			p.opLat[op] = append(p.opLat[op], ms(done.Sub(sent)))
			p.clientS += done.Sub(sent).Seconds()
		}
	}
	return p
}

// do sends one request and checks its response; a write's answer is
// tallied into p.
func (d *driver) do(w *worker, op load.Op, tag int, p *phase) error {
	u := d.st.u
	id := u.tags[tag]
	switch op {
	case load.OpLastKnown:
		var v struct {
			TagID  string    `json:"tag_id"`
			Found  bool      `json:"found"`
			SeenAt time.Time `json:"seen_at"`
		}
		if err := d.get(w, "/v1/lastknown?tag="+id, &v); err != nil {
			return err
		}
		if v.TagID != id || !v.Found || v.SeenAt.Before(u.last[tag]) {
			return fmt.Errorf("lastknown %s: got tag %q found %v seen %v, want the fix at or after %v", id, v.TagID, v.Found, v.SeenAt, u.last[tag])
		}
	case load.OpHistory:
		var v struct {
			TagID   string `json:"tag_id"`
			Reports []struct {
				T time.Time `json:"t"`
			} `json:"reports"`
		}
		if err := d.get(w, "/v1/history?limit="+strconv.Itoa(load.HistoryCap)+"&tag="+id, &v); err != nil {
			return err
		}
		n := len(v.Reports)
		sorted := sort.SliceIsSorted(v.Reports, func(i, j int) bool { return v.Reports[i].T.Before(v.Reports[j].T) })
		if v.TagID != id || n != min(load.HistoryCap, u.counts[tag]) || !sorted || v.Reports[n-1].T.Before(u.last[tag]) {
			return fmt.Errorf("history %s: got tag %q, %d reports (sorted %v)", id, v.TagID, n, sorted)
		}
	case load.OpTrack:
		var v struct {
			TagID string `json:"tag_id"`
			Last  struct {
				Found bool `json:"found"`
			} `json:"last"`
			Track []struct {
				T time.Time `json:"t"`
			} `json:"track"`
		}
		if err := d.get(w, "/v1/track?tag="+id, &v); err != nil {
			return err
		}
		sorted := sort.SliceIsSorted(v.Track, func(i, j int) bool { return v.Track[i].T.Before(v.Track[j].T) })
		if v.TagID != id || !v.Last.Found || len(v.Track) < u.counts[tag] || !sorted || !v.Track[0].T.Equal(u.first[tag]) {
			return fmt.Errorf("track %s: got tag %q found %v, %d points (sorted %v), want at least %d", id, v.TagID, v.Last.Found, len(v.Track), sorted, u.counts[tag])
		}
	case load.OpStats:
		var v struct {
			Vendors []struct {
				Tags int `json:"tags"`
			} `json:"vendors"`
		}
		if err := d.get(w, "/v1/stats", &v); err != nil {
			return err
		}
		if len(v.Vendors) != len(vendors) {
			return fmt.Errorf("stats: %d vendors, want %d", len(v.Vendors), len(vendors))
		}
	case load.OpReport:
		t := u.end.Add(time.Duration(w.writes*len(d.workers)+w.id) * writeStep)
		w.writes++
		body, err := json.Marshal(u.report(tag, t, mix64(uint64(w.writes)<<8|uint64(w.id))))
		if err != nil {
			return err
		}
		var v struct {
			Accepted *bool `json:"accepted"`
		}
		if err := d.send(w, http.MethodPost, "/v1/report", body, &v); err != nil {
			return err
		}
		if v.Accepted == nil {
			return fmt.Errorf("report %s: answer has no accepted field", id)
		}
		if *v.Accepted {
			p.accepted++
		} else {
			p.rejected++
		}
	default:
		return fmt.Errorf("unknown op %v", op)
	}
	return nil
}

func (d *driver) get(w *worker, path string, v any) error {
	return d.send(w, http.MethodGet, path, nil, v)
}

// send makes one request and decodes a 200 answer into v; any other
// status is an error.
func (d *driver) send(w *worker, method, path string, body []byte, v any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, d.st.base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := d.st.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	w.buf, err = readAll(resp.Body, w.buf[:0])
	if err != nil {
		return fmt.Errorf("%s %s: reading body: %w", method, path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: status %d", method, path, resp.StatusCode)
	}
	if err := json.Unmarshal(w.buf, v); err != nil {
		return fmt.Errorf("%s %s: decoding: %w", method, path, err)
	}
	return nil
}

// readAll appends r's contents to buf, reusing its capacity.
func readAll(r io.Reader, buf []byte) ([]byte, error) {
	b := bytes.NewBuffer(buf)
	_, err := b.ReadFrom(r)
	return b.Bytes(), err
}
