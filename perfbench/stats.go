package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// quantile returns the q-quantile of sorted xs by linear interpolation.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// tailQuantile is the highest quantile, at most q, that leaves at least
// ten samples beyond it.
func tailQuantile(n int, q float64) float64 {
	if n <= 0 {
		return q
	}
	return math.Max(0.5, math.Min(q, 1-10/float64(n)))
}

// latencyMetrics sets <prefix>_p50_ms and <prefix>_p99_ms from latencies
// in seconds. When p99 lacks ten samples beyond it the highest quantile
// that has them is reported instead, and the note says which.
func latencyMetrics(r *report, prefix string, lat []float64) {
	s := append([]float64(nil), lat...)
	sort.Float64s(s)
	q := tailQuantile(len(s), 0.99)
	r.set(prefix+"_p50_ms", 1e3*quantile(s, 0.5), "ms", len(s))
	note := ""
	if q < 0.99 {
		note = fmt.Sprintf("(p%.1f: too few samples for p99)", 100*q)
	}
	r.setNote(prefix+"_p99_ms", 1e3*quantile(s, q), "ms", len(s), note)
}

// mean returns the arithmetic mean of xs (0 for none).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// median returns the median of xs without reordering it.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// medianRate is the median completion rate over about one-second
// stretches of a phase: the sorted completion offsets are cut into
// equal-count chunks, one per whole second of span, and each chunk's
// rate is its count over the time since the previous chunk ended. The
// median keeps one disturbed second from deciding the figure.
func medianRate(done []time.Duration, span time.Duration) float64 {
	k := int(span / time.Second)
	if k < 1 || len(done) < k {
		return float64(len(done)) / span.Seconds()
	}
	t := append([]time.Duration(nil), done...)
	slices.Sort(t)
	var rates []float64
	prev := time.Duration(0)
	for j := 0; j < k; j++ {
		lo, hi := j*len(t)/k, (j+1)*len(t)/k
		end := t[hi-1]
		if end > prev {
			rates = append(rates, float64(hi-lo)/(end-prev).Seconds())
		}
		prev = end
	}
	return median(rates)
}

// statusMB reads one memory field of /proc/self/status in MB.
func statusMB(field string) float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// peakRSSMB is the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 { return statusMB("VmHWM") }

// rssSampler samples the resident set (VmRSS) every 100 ms until stop.
type rssSampler struct {
	stopc   chan struct{}
	done    chan struct{}
	samples []float64
}

func sampleRSS() *rssSampler {
	s := &rssSampler{stopc: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		for {
			s.samples = append(s.samples, statusMB("VmRSS"))
			select {
			case <-t.C:
			case <-s.stopc:
				return
			}
		}
	}()
	return s
}

// stop ends sampling and sets rss_mb, the median resident set while the
// workload ran.
func (s *rssSampler) stop(r *report) {
	close(s.stopc)
	<-s.done
	r.set("rss_mb", median(s.samples), "MB", len(s.samples))
}

// setupRuns is how many times a run sets its system up; setup_s is the
// median.
const setupRuns = 5

// timedBoot boots runs times, keeps the last system and returns the
// median boot time.
func timedBoot[S any](runs int, boot func() (S, error), closeFn func(S)) (S, float64, error) {
	var times []float64
	var sys S
	for i := 0; i < runs; i++ {
		start := time.Now()
		s, err := boot()
		if err != nil {
			return sys, 0, err
		}
		times = append(times, time.Since(start).Seconds())
		if i < runs-1 {
			closeFn(s)
			runtime.GC() // free the discarded system before the next boot
		} else {
			sys = s
		}
	}
	return sys, median(times), nil
}

// opResult is the outcome of one generated operation.
type opResult struct {
	kind    byte          // 'q' query, 'm' mutation
	due     time.Time     // scheduled send time
	latency time.Duration // completion (or cut-off) minus due
	done    bool          // completed before the cut-off
	err     error
	wrong   bool // completed with an answer that failed its check
}

// ok reports whether the operation counts as a success under limit.
func (o *opResult) ok(limit time.Duration) bool {
	return o.done && o.err == nil && !o.wrong && o.latency <= limit
}

// recorder collects operation outcomes from concurrent goroutines until
// it is frozen; completions after the freeze count as outstanding.
type recorder struct {
	mu     sync.Mutex
	ops    []opResult
	frozen bool
}

func newRecorder(n int) *recorder { return &recorder{ops: make([]opResult, n)} }

// start marks operation i as sent.
func (r *recorder) start(i int, kind byte, due time.Time) {
	r.mu.Lock()
	r.ops[i].kind, r.ops[i].due = kind, due
	r.mu.Unlock()
}

// finish records operation i's completion; err wrapping errWrong marks
// a wrong answer.
func (r *recorder) finish(i int, err error) {
	now := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.frozen {
		return
	}
	o := &r.ops[i]
	o.done, o.err, o.wrong, o.latency = true, err, isWrong(err), now.Sub(o.due)
}

// freeze stops accepting completions: sent operations still running are
// outstanding, their latency censored at the cut-off.
func (r *recorder) freeze() []opResult {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.frozen = true
	cutoff := time.Now()
	for i := range r.ops {
		if o := &r.ops[i]; !o.done && !o.due.IsZero() {
			o.latency = cutoff.Sub(o.due)
		}
	}
	return r.ops
}

// openLoop sends n operations at a fixed rate starting at start, each
// on its own goroutine, and returns the generator's lateness per send
// once every send has been issued. fire must call rec.start and
// rec.finish.
func openLoop(start time.Time, n int, rate float64, wg *sync.WaitGroup, fire func(i int, due time.Time)) []float64 {
	lag := make([]float64, n)
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		lag[i] = time.Since(due).Seconds()
		wg.Add(1)
		go func() {
			defer wg.Done()
			fire(i, due)
		}()
	}
	return lag
}

// waitTimeout waits for wg up to d and reports whether it finished.
func waitTimeout(wg *sync.WaitGroup, d time.Duration) bool {
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-done:
		return true
	case <-t.C:
		return false
	}
}

// loopSummary folds an open loop's outcomes into r: latency percentiles
// per kind over every sent operation (outstanding ones censored at the
// cut-off), failures under limit, and the generator's own health.
func loopSummary(r *report, ops []opResult, lag []float64, limit time.Duration, prefixes map[byte]string) {
	lats := map[byte][]float64{}
	completed := 0
	for i := range ops {
		o := &ops[i]
		if o.due.IsZero() {
			continue
		}
		r.attempted++
		lats[o.kind] = append(lats[o.kind], o.latency.Seconds())
		if o.done {
			completed++
		}
		if !o.ok(limit) {
			r.failed++
		}
		if o.wrong {
			r.correct = false
		}
	}
	for kind, prefix := range prefixes {
		if len(lats[kind]) > 0 {
			latencyMetrics(r, prefix, lats[kind])
		}
	}
	s := append([]float64(nil), lag...)
	sort.Float64s(s)
	lagP99 := 1e3 * quantile(s, tailQuantile(len(s), 0.99))
	r.set("gen.lag_p99_ms", lagP99, "ms", len(s))
	r.set("gen.attempted", float64(r.attempted), "count", 0)
	r.set("gen.completed", float64(completed), "count", 0)
	if lagP99 > 1e3*limit.Seconds() {
		r.notef("INVALID RUN: generator lag p99 %.1f ms exceeds the %v latency limit; the figures measure the generator, not the system", lagP99, limit)
	}
}

// closedResult is the outcome of a closed-loop phase.
type closedResult struct {
	ok, failed int
	wrong      bool
	done       []time.Duration // completion offsets of the correct query answers
	span       time.Duration
}

// qps is the phase's median query completion rate.
func (c closedResult) qps() float64 { return medianRate(c.done, c.span) }

// closedLoop keeps inFlight callers busy for d. Caller w sends the
// operation with the next index i; call reports whether it was a query
// and how it ended. Operations still running at the end complete but
// are not counted.
func closedLoop(d time.Duration, inFlight int, call func(w, i int) (query bool, err error)) closedResult {
	var next atomic.Int64
	start := time.Now()
	deadline := start.Add(d)
	per := make([]closedResult, inFlight)
	var wg sync.WaitGroup
	for w := range per {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := &per[w]
			for time.Now().Before(deadline) {
				query, err := call(w, int(next.Add(1)-1))
				now := time.Now()
				switch {
				case now.After(deadline):
					return
				case err == nil:
					r.ok++
					if query {
						r.done = append(r.done, now.Sub(start))
					}
				default:
					r.failed++
					r.wrong = r.wrong || isWrong(err)
				}
			}
		}()
	}
	wg.Wait()
	res := closedResult{span: d}
	for _, r := range per {
		res.ok += r.ok
		res.failed += r.failed
		res.wrong = res.wrong || r.wrong
		res.done = append(res.done, r.done...)
	}
	return res
}
