// Command perfbench is the repository benchmark: it boots the serving
// system in-process, drives one named workload generated from a seed,
// checks every answer, and prints each metric by name with its unit.
// The last line of standard output is one JSON object:
//
//	{"correct": …, "attempted": …, "failed": …, "metrics": {…}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with no
// tracing; with -trace 1 a separate traced run replays a sample of the
// workload's requests through a ladder of layer entry points, writes
// the recorded spans under .bench_build/perfbench-runs/, and derives
// the per-layer metrics from them. See README.md for the workloads and
// the metric map.
//
// Usage:
//
//	bash perfbench/run.sh --workload query-pipelined --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh --summarize .bench_build/perfbench-runs/trace-query-pipelined-1.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// Metric names and units, in the order BENCHMARK.json lists them.
// Every run reports every name of its list (perfbench_test checks the
// two agree).
var (
	endToEnd = []metricDef{
		{"setup_s", "s"}, {"query_qps", "1/s"}, {"query_p50_ms", "ms"}, {"rss_mb", "MB"},
	}
	perLayer = []metricDef{
		{"engine.reqs_per_batch", "count"}, {"engine.deadline_flush_share", "ratio"},
		{"engine.batch_wait_us", "us"}, {"engine.lca_runs_per_lca_req", "ratio"},
		{"wire.encode_us", "us"}, {"wire.decode_us", "us"},
		{"wire.bytes_per_req", "bytes"}, {"wire.allocs_per_req", "count"},
		{"server.self_us", "us"}, {"server.rejected_ratio", "ratio"}, {"net.socket_us", "us"},
		{"exec.bottomup_us", "us"}, {"exec.topdown_us", "us"}, {"exec.lca_us", "us"},
		{"exec.allocs_per_call", "count"},
		{"sim.messages_per_query", "count"}, {"sim.energy_per_query", "energy"},
		{"sim.depth_per_batch", "depth"},
		{"layout.kernel_energy", "energy"}, {"layout.build_ms", "ms"},
		{"dyn.insert_us", "us"}, {"dyn.delete_us", "us"},
		{"dyn.refreshes_per_1k", "count"}, {"dyn.rebuilds_per_1k", "count"},
		{"persist.append_us", "us"}, {"persist.bytes_per_record", "bytes"},
		{"persist.compactions_per_1k", "count"},
		{"gen.lag_p99_ms", "ms"}, {"gen.attempted", "count"}, {"gen.completed", "count"},
		{"trace.overhead_ratio", "ratio"},
	}
)

// metricDef names one metric of the result line.
type metricDef struct{ name, unit string }

// config is one invocation's settings.
type config struct {
	seed    uint64
	seconds float64
	outDir  string // spans and store directories, inside the checkout
}

// workload is one named traffic mix: run measures it untraced, traced
// replays it through the layer ladder.
type workload struct {
	name   string
	run    func(cfg config) (*report, error)
	traced func(cfg config) (*report, error)
}

var workloads = []workload{
	{"query-pipelined", runPipelined, tracePipelined},
	{"churn-durable", runChurn, traceChurn},
	{"sim-metered", runSimMetered, traceSimMetered},
}

func main() {
	name := flag.String("workload", "", "workload to run: query-pipelined, churn-durable or sim-metered")
	seed := flag.Uint64("seed", 1, "workload seed: the same seed generates the same inputs")
	seconds := flag.Float64("seconds", 10, "measured run length in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced ladder and reports per-layer metrics; 0 reports end-to-end metrics")
	summarize := flag.String("summarize", "", "print the per-layer summary of a written span file and exit")
	flag.Parse()

	if *summarize != "" {
		if err := summarizeFile(os.Stdout, *summarize); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		os.Exit(2)
	}
	out := filepath.Join(buildDir(), "perfbench-runs")
	if err := os.MkdirAll(out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	cfg := config{seed: *seed, seconds: *seconds, outDir: out}
	traced := *trace == 1
	run, names := w.run, endToEnd
	if traced {
		run, names = w.traced, perLayer
	}
	start := time.Now()
	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	rep.finish()
	fmt.Printf("# %s seed=%d seconds=%g trace=%v wall=%.1fs\n", w.name, cfg.seed, cfg.seconds, traced, time.Since(start).Seconds())
	rep.print(os.Stdout)
	line, err := rep.json(names, traced)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	fmt.Println(line)
	if !rep.correct {
		os.Exit(1)
	}
}

// buildDir is where the run writes: the checkout's build directory.
func buildDir() string {
	if d := os.Getenv("CARGO_TARGET_DIR"); d != "" {
		return d
	}
	return ".bench_build"
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// entry is one printed report line.
type entry struct {
	metric
	samples int // 0 when the value is not a sample statistic
	note    string
}

// report accumulates a run's outcome.
type report struct {
	correct   bool
	attempted int
	failed    int
	entries   map[string]entry
	notes     []string
}

func newReport() *report {
	return &report{correct: true, entries: map[string]entry{}}
}

// set records metric name; samples is the sample count behind it.
func (r *report) set(name string, v float64, unit string, samples int) {
	r.entries[name] = entry{metric: metric{Value: v, Unit: unit}, samples: samples}
}

// setNote records a metric with an explanatory note.
func (r *report) setNote(name string, v float64, unit string, samples int, note string) {
	r.entries[name] = entry{metric: metric{Value: v, Unit: unit}, samples: samples, note: note}
}

// notef adds a free-form line to the printed report.
func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// finish adds the metrics every run reports.
func (r *report) finish() {
	r.set("rss_peak_mb", peakRSSMB(), "MB", 0)
	ratio := 0.0
	if r.attempted > 0 {
		ratio = float64(r.failed) / float64(r.attempted)
	}
	r.set("fail_ratio", ratio, "ratio", r.attempted)
}

func (r *report) print(w io.Writer) {
	names := make([]string, 0, len(r.entries))
	for n := range r.entries {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		e := r.entries[n]
		line := fmt.Sprintf("%-30s %14.6g %-8s", n, e.Value, e.Unit)
		if e.samples > 0 {
			line += fmt.Sprintf(" n=%d", e.samples)
		}
		if e.note != "" {
			line += " " + e.note
		}
		fmt.Fprintln(w, line)
	}
	fmt.Fprintf(w, "%-30s %14d\n%-30s %14d\n%-30s %14v\n", "attempted", r.attempted, "failed", r.failed, "correct", r.correct)
	for _, n := range r.notes {
		fmt.Fprintln(w, "note:", n)
	}
}

// json renders the result line with exactly the listed metrics. An
// end-to-end metric a workload did not measure is a bug; a per-layer
// metric a workload's layers never touch reads 0.
func (r *report) json(defs []metricDef, perLayerRun bool) (string, error) {
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct, r.attempted, r.failed, map[string]metric{}}
	if out.Attempted < 1 {
		return "", fmt.Errorf("no operation attempted")
	}
	for _, d := range defs {
		e, ok := r.entries[d.name]
		if !ok && !perLayerRun {
			return "", fmt.Errorf("end-to-end metric %s not measured", d.name)
		}
		if ok && e.Unit != d.unit {
			return "", fmt.Errorf("metric %s measured in %s, listed in %s", d.name, e.Unit, d.unit)
		}
		out.Metrics[d.name] = metric{Value: e.Value, Unit: d.unit}
	}
	b, err := json.Marshal(out)
	return string(b), err
}
