package main

// Spans for the traced run. The benchmark records them around its own
// calls into each layer; they stay in memory and are written once, when
// the run ends. The summarizer reads a written file back and derives
// per-layer figures: a span's self time is its duration minus the part
// of its interval that its child spans cover, and a rung's cost is the
// mean duration of the rung's root spans over the same sampled requests.
// The tracer's own cost is timed directly (spanCost) and written with
// the spans, so the summarizer can say how much of a rung is tracing.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one recorded interval. Times are nanoseconds since the trace
// started. Parent is -1 for a root span; Req identifies the sampled
// request the span served.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

// tracer records spans. A nil *tracer records nothing, so untraced code
// paths call the same methods.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// open starts a span and returns its id.
func (t *tracer) open(name string, parent, req int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Req: req, Name: name, Start: now})
	return len(t.spans) - 1
}

// close ends span id.
func (t *tracer) close(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// begin opens a root span and returns the function that closes it.
func (t *tracer) begin(name string, req int) func() {
	if t == nil {
		return func() {}
	}
	id := t.open(name, -1, req)
	return func() { t.close(id) }
}

// traceFile is the written form of a traced run.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	// Ladders lists each ladder's rung root-span names, from the
	// innermost layer outwards.
	Ladders [][]string `json:"ladders"`
	// SpanCostUs is the tracer's own cost per recorded span.
	SpanCostUs float64 `json:"span_cost_us"`
	LagP99Ms   float64 `json:"lag_p99_ms"`
	LimitMs    float64 `json:"limit_ms"`
	Spans      []span  `json:"spans"`
}

// spanCost times the tracer's own open and close on a scratch tracer
// and returns the mean cost of one recorded span in microseconds.
func spanCost() float64 {
	const n = 1 << 15
	t := newTracer()
	start := time.Now()
	for i := 0; i < n; i++ {
		t.close(t.open("calibration", -1, i))
	}
	return float64(time.Since(start).Nanoseconds()) / 1e3 / n
}

// write stores the trace under dir and returns the file's path.
func (t *tracer) write(dir string, tf traceFile) (string, error) {
	t.mu.Lock()
	tf.Spans = t.spans
	b, err := json.Marshal(tf)
	t.mu.Unlock()
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("trace-%s-%d.json", tf.Workload, tf.Seed))
	return path, os.WriteFile(path, b, 0o644)
}

// nameStats aggregates the spans of one name.
type nameStats struct {
	count    int
	meanUs   float64
	medianUs float64
	selfUs   float64 // mean self time
}

// summary is what the summarizer derives from a trace file.
type summary struct {
	byName map[string]nameStats
	// rungUs is the mean root-span duration per rung name, over the
	// requests every rung of its ladder served.
	rungUs map[string]float64
	// overhead is, per ladder, the tracing cost of one request at the
	// outermost rung (its spans times the span cost) over that rung's
	// mean.
	overhead []float64
	file     traceFile
}

// summarize computes per-name statistics, self times and rung means.
func summarize(tf traceFile) summary {
	children := map[int][]int{}
	for _, s := range tf.Spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	durs := map[string][]float64{}
	selfs := map[string][]float64{}
	for _, s := range tf.Spans {
		d := float64(s.End-s.Start) / 1e3
		durs[s.Name] = append(durs[s.Name], d)
		selfs[s.Name] = append(selfs[s.Name], d-coveredUs(s, children[s.ID], tf.Spans))
	}
	sum := summary{byName: map[string]nameStats{}, rungUs: map[string]float64{}, file: tf}
	for n, d := range durs {
		sum.byName[n] = nameStats{count: len(d), meanUs: mean(d), medianUs: median(d), selfUs: mean(selfs[n])}
	}
	// Rung means over the requests present at every rung of a ladder,
	// so rung differences compare the same work; spansPer counts the
	// spans recorded per request and rung.
	perReq := map[string]map[int]float64{}
	spansPer := map[string]map[int]int{}
	for _, s := range tf.Spans {
		if s.Parent < 0 {
			if perReq[s.Name] == nil {
				perReq[s.Name] = map[int]float64{}
				spansPer[s.Name] = map[int]int{}
			}
			perReq[s.Name][s.Req] += float64(s.End-s.Start) / 1e3
			spansPer[s.Name][s.Req] += subtreeSize(s.ID, children)
		}
	}
	for _, ladder := range tf.Ladders {
		for _, r := range ladder {
			var xs []float64
			for req, d := range perReq[r] {
				if inAll(req, perReq, ladder) {
					xs = append(xs, d)
				}
			}
			sum.rungUs[r] = mean(xs)
		}
		outer := ladder[len(ladder)-1]
		var spans []float64
		for req, k := range spansPer[outer] {
			if inAll(req, perReq, ladder) {
				spans = append(spans, float64(k))
			}
		}
		ratio := 0.0
		if us := sum.rungUs[outer]; us > 0 {
			ratio = mean(spans) * tf.SpanCostUs / us
		}
		sum.overhead = append(sum.overhead, ratio)
	}
	return sum
}

// subtreeSize counts span id and its descendants.
func subtreeSize(id int, children map[int][]int) int {
	n := 1
	for _, k := range children[id] {
		n += subtreeSize(k, children)
	}
	return n
}

// coveredUs is how much of s's interval the union of its children covers.
func coveredUs(s span, kids []int, spans []span) float64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, k := range kids {
		c := spans[k]
		a, b := max(c.Start, s.Start), min(c.End, s.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64
	end = s.Start
	for _, v := range ivs {
		if v.b <= end {
			continue
		}
		if v.a > end {
			end = v.a
		}
		total += v.b - end
		end = v.b
	}
	return float64(total) / 1e3
}

func inAll(req int, perReq map[string]map[int]float64, rungs []string) bool {
	for _, r := range rungs {
		if _, ok := perReq[r][req]; !ok {
			return false
		}
	}
	return true
}

// rungDiff is the cost a rung adds over the one below it.
func (s summary) rungDiff(outer, inner string) float64 {
	return s.rungUs[outer] - s.rungUs[inner]
}

// print renders the summary: per-span self time, the rung ladder with
// each difference, and the trace overhead beside them.
func (s summary) print(w io.Writer) {
	tf := s.file
	fmt.Fprintf(w, "trace %s seed=%d: %d spans, %.3f us of tracing per span\n", tf.Workload, tf.Seed, len(tf.Spans), tf.SpanCostUs)
	if tf.LimitMs > 0 && tf.LagP99Ms > tf.LimitMs {
		fmt.Fprintf(w, "INVALID RUN: generator lag p99 %.1f ms exceeds the %.0f ms latency limit (the run measured the generator, not the system)\n", tf.LagP99Ms, tf.LimitMs)
	}
	names := make([]string, 0, len(s.byName))
	for n := range s.byName {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-40s %8s %12s %12s %12s\n", "span", "count", "mean_us", "median_us", "self_us")
	for _, n := range names {
		st := s.byName[n]
		fmt.Fprintf(w, "%-40s %8d %12.1f %12.1f %12.1f\n", n, st.count, st.meanUs, st.medianUs, st.selfUs)
	}
	for li, ladder := range tf.Ladders {
		fmt.Fprintf(w, "%-40s %12s %12s\n", "rung", "mean_us", "added_us")
		total := 0.0
		for i, r := range ladder {
			added := s.rungUs[r]
			if i > 0 {
				added = s.rungDiff(r, ladder[i-1])
			}
			total += added
			fmt.Fprintf(w, "%-40s %12.1f %12.1f\n", r, s.rungUs[r], added)
		}
		fmt.Fprintf(w, "rung differences sum to %.1f us against the outermost rung's %.1f us; tracing is about %.4f of it (trace.overhead_ratio)\n",
			total, s.rungUs[ladder[len(ladder)-1]], s.overhead[li])
	}
}

// readTrace loads a written trace file.
func readTrace(path string) (traceFile, error) {
	var tf traceFile
	b, err := os.ReadFile(path)
	if err != nil {
		return tf, err
	}
	if err := json.Unmarshal(b, &tf); err != nil {
		return tf, fmt.Errorf("%s: %w", path, err)
	}
	return tf, nil
}

// summarizeFile prints the summary of a written trace file.
func summarizeFile(w io.Writer, path string) error {
	tf, err := readTrace(path)
	if err != nil {
		return err
	}
	summarize(tf).print(w)
	return nil
}

// finishTrace writes the spans, reads the file back, adds its printed
// summary to the report and returns it: every span-derived per-layer
// metric comes from the written file.
func finishTrace(t *tracer, dir string, tf traceFile, rep *report) (summary, error) {
	path, err := t.write(dir, tf)
	if err != nil {
		return summary{}, err
	}
	back, err := readTrace(path)
	if err != nil {
		return summary{}, err
	}
	sum := summarize(back)
	var b strings.Builder
	sum.print(&b)
	for _, line := range strings.Split(strings.TrimSpace(b.String()), "\n") {
		rep.notef("%s", line)
	}
	rep.notef("spans written to %s", path)
	return sum, nil
}
