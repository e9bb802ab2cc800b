package main

// Workload sim-metered: engine.Engine driven directly on the sim
// backend with the hilbert curve and one submitter. Fixed batches of 8
// bottom-up treefix and 8 LCA-64 requests are submitted and then
// flushed, so batch composition, and with it the model energy and
// depth, is deterministic.

import (
	"fmt"
	"time"

	"spatialtree/internal/engine"
	"spatialtree/internal/layout"
	"spatialtree/internal/rng"
	"spatialtree/internal/sfc"
	"spatialtree/internal/tree"
)

const (
	simN         = 1 << 12
	simCurve     = "hilbert"
	simPerKind   = 8 // bottom-up and LCA requests per batch, each
	simBatches   = 4 // distinct batches per tree
	simLCAPairs  = 64
	simBatchSize = 2 * simPerKind
	simWarmUp    = 5 * time.Second
)

// simInputs is the generated input of one sim-metered run.
type simInputs struct {
	trees []*tree.Tree
	pool  []request
	// batches lists pool indices per batch, cycling through the trees.
	batches [][]int
}

func genSimMetered(seed uint64) *simInputs {
	r := rng.New(seed)
	in := &simInputs{trees: genTrees(r, simN, []shape{shapeRandom, shapeCaterp, shapeYule})}
	perTree := simBatches * simBatchSize
	in.pool = genPool(r, in.trees, perTree, [3]int{1, 0, 1}, simLCAPairs)
	// genPool puts a tree's bottom-up requests first, then its LCAs.
	for b := 0; b < simBatches; b++ {
		for ti := range in.trees {
			base := ti * perTree
			var batch []int
			for j := 0; j < simPerKind; j++ {
				batch = append(batch, base+b*simPerKind+j, base+perTree/2+b*simPerKind+j)
			}
			in.batches = append(in.batches, batch)
		}
	}
	return in
}

// simSys is one engine per tree.
type simSys struct{ engines []*engine.Engine }

// simOptions is the engines' configuration. The simulator seed is the
// daemon's default, not the workload seed: it randomizes placement, and
// drawn from the workload seed it made one seed's runs about 8% faster
// than another's, which widened the spread between seeds.
func simOptions() engine.Options {
	return engine.Options{Curve: simCurve, Backend: "sim", Seed: daemonConfig().Seed, Window: engine.DefaultWindow}
}

// bootSimMetered builds the engines (each runs the layout pipeline) and
// warms each with one batch.
func bootSimMetered(in *simInputs) (*simSys, error) {
	s := &simSys{}
	for _, t := range in.trees {
		e, err := engine.New(t, simOptions())
		if err != nil {
			return nil, err
		}
		s.engines = append(s.engines, e)
	}
	for b := range in.trees {
		if _, err := s.batch(in, b, nil, nil); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return s, nil
}

// batch submits batch b, flushes it and checks every answer. lat, when
// non-nil, receives each request's submit-to-answer latency in seconds.
func (s *simSys) batch(in *simInputs, b int, lat *[]float64, tr *tracer) (int, error) {
	idx := in.batches[b]
	e := s.engines[in.pool[idx[0]].tree]
	root := tr.open(rungSimEngine, -1, b)
	futs := make([]*engine.Future, len(idx))
	sent := make([]time.Time, len(idx))
	sub := tr.open("engine.Submit", root, b)
	for i, pi := range idx {
		sent[i] = time.Now()
		futs[i] = submit(e, &in.pool[pi])
	}
	tr.close(sub)
	fl := tr.open("engine.Flush", root, b)
	e.Flush()
	tr.close(fl)
	tr.close(root)
	for i, f := range futs {
		res := f.Wait()
		if lat != nil {
			*lat = append(*lat, time.Since(sent[i]).Seconds())
		}
		if res.Err != nil {
			return i, res.Err
		}
		if err := in.pool[idx[i]].check(res.Sums, res.Answers); err != nil {
			return i, err
		}
	}
	return len(idx), nil
}

// stats sums the engines' counters.
func (s *simSys) stats() engine.Stats {
	var st engine.Stats
	for _, e := range s.engines {
		st.Add(e.Stats())
	}
	return st
}

// meter runs every batch once and returns the exact model energy per
// query and depth per batch of that pass.
func (s *simSys) meter(in *simInputs) (energy, depth, messages float64, err error) {
	before := s.stats()
	queries := 0
	for b := range in.batches {
		n, err := s.batch(in, b, nil, nil)
		if err != nil {
			return 0, 0, 0, err
		}
		queries += n
	}
	c := s.stats().Cost.Minus(before.Cost)
	q, nb := float64(queries), float64(len(in.batches))
	return float64(c.Energy) / q, float64(c.Depth) / nb, float64(c.Messages) / q, nil
}

func runSimMetered(cfg config) (*report, error) {
	in := genSimMetered(cfg.seed)
	sys, setup, err := timedBoot(setupRuns, func() (*simSys, error) { return bootSimMetered(in) }, func(*simSys) {})
	if err != nil {
		return nil, err
	}
	rep := newReport()
	rep.set("setup_s", setup, "s", setupRuns)
	energy, depth, _, err := sys.meter(in)
	if err != nil {
		return nil, err
	}
	rep.set("energy_per_query", energy, "energy", len(in.batches)*simBatchSize)
	rep.set("depth_per_batch", depth, "depth", len(in.batches))
	// Run the batches untimed first: on a VM that was lightly loaded a
	// moment ago the CPU takes seconds to reach a steady speed.
	for b, warm := 0, time.Now(); time.Since(warm) < simWarmUp; b = (b + 1) % len(in.batches) {
		if _, err := sys.batch(in, b, nil, nil); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}

	rss := sampleRSS()
	var lat []float64
	var done []time.Duration
	span := time.Duration(cfg.seconds * float64(time.Second))
	start := time.Now()
	for b := 0; time.Since(start) < span; b = (b + 1) % len(in.batches) {
		n, err := sys.batch(in, b, &lat, nil)
		for end := time.Since(start); len(done) < len(lat); {
			done = append(done, end)
		}
		rep.attempted += simBatchSize
		if err != nil {
			rep.failed += simBatchSize - n
			if isWrong(err) {
				rep.correct = false
			}
			rep.notef("batch %d: %v", b, err)
		}
	}
	rep.set("query_qps", medianRate(done, time.Since(start)), "1/s", len(lat))
	rss.stop(rep)
	latencyMetrics(rep, "query", lat)
	rep.notef("%d fixed batches of %d bottom-up + %d LCA-%d requests over %d trees at n=%d, curve %s, explicit Flush",
		len(in.batches), simPerKind, simPerKind, simLCAPairs, len(in.trees), simN, simCurve)
	return rep, nil
}

// Rung names of the sim ladder, per batch.
const (
	rungSimExec   = "rung1 exec.Backend.Run(sim batch)"
	rungSimEngine = "rung2 engine.Submit+Flush(sim batch)"
)

// traceSimMetered is the traced run: the metered pass for the model
// counters, layout construction timed per tree, and a two-rung ladder
// per batch (the sim backend alone, then the engine's coalescing batch).
func traceSimMetered(cfg config) (*report, error) {
	in := genSimMetered(cfg.seed)
	sys, err := bootSimMetered(in)
	if err != nil {
		return nil, err
	}
	rep := newReport()
	tr := newTracer()
	before := sys.stats()
	energy, depth, messages, err := sys.meter(in)
	if err != nil {
		return nil, err
	}
	rep.set("sim.energy_per_query", energy, "energy", len(in.batches)*simBatchSize)
	rep.set("sim.depth_per_batch", depth, "depth", len(in.batches))
	rep.set("sim.messages_per_query", messages, "count", len(in.batches)*simBatchSize)
	st := sys.stats()
	batches := float64(st.Batches - before.Batches)
	rep.set("engine.reqs_per_batch", float64(st.Requests-before.Requests)/batches, "count", int(batches))
	rep.set("engine.deadline_flush_share", float64(st.DeadlineFlushes-before.DeadlineFlushes)/batches, "ratio", int(batches))
	lcaReqs := float64(st.LCAQueries-before.LCAQueries) / simLCAPairs
	rep.set("engine.lca_runs_per_lca_req", float64(st.LCARuns-before.LCARuns)/lcaReqs, "ratio", int(lcaReqs))

	curve, err := sfc.ByName(simCurve)
	if err != nil {
		return nil, err
	}
	var buildMs, kernel []float64
	for i, t := range in.trees {
		start := time.Now()
		layout.LightFirst(t, curve)
		buildMs = append(buildMs, float64(time.Since(start).Nanoseconds())/1e6)
		kernel = append(kernel, float64(layout.ParentChildEnergy(sys.engines[i].Placement()).Energy))
	}
	rep.set("layout.build_ms", mean(buildMs), "ms", len(buildMs))
	rep.set("layout.kernel_energy", mean(kernel), "energy", len(kernel))

	placements := make([]*layout.Placement, len(in.trees))
	for i, e := range sys.engines {
		placements[i] = e.Placement()
	}
	bs, err := backends("sim", in.trees, placements)
	if err != nil {
		return nil, err
	}
	var sample []*request
	for pass := 0; pass <= 1; pass++ {
		t := tr
		if pass == 0 {
			t = nil // warm pass
		}
		for b, idx := range in.batches {
			root := t.open(rungSimExec, -1, b)
			run := bs[in.pool[idx[0]].tree].Run(daemonConfig().Seed)
			for _, pi := range idx {
				req := &in.pool[pi]
				k := t.open(kernelSpan(req.kind), root, b)
				sums, answers, err := runKernel(run, req)
				t.close(k)
				if err == nil {
					err = req.check(sums, answers)
				}
				if err != nil {
					return nil, fmt.Errorf("rung 1: %w", err)
				}
				if pass == 0 {
					sample = append(sample, req)
				}
			}
			t.close(root)
			n, err := sys.batch(in, b, nil, t)
			rep.attempted += simBatchSize
			if err != nil {
				rep.failed += simBatchSize - n
				return nil, fmt.Errorf("rung 2: %w", err)
			}
		}
	}
	allocs, err := execAllocs(bs, sample)
	if err != nil {
		return nil, err
	}
	sum, err := finishTrace(tr, cfg.outDir, traceFile{
		Workload: "sim-metered", Seed: cfg.seed,
		Ladders:    [][]string{{rungSimExec, rungSimEngine}},
		SpanCostUs: spanCost(),
	}, rep)
	if err != nil {
		return nil, err
	}
	kernelMetrics(rep, sum)
	rep.set("trace.overhead_ratio", sum.overhead[0], "ratio", len(in.batches))
	rep.set("exec.allocs_per_call", allocs, "count", len(sample))
	rep.set("gen.attempted", float64(rep.attempted), "count", 0)
	rep.set("gen.completed", float64(rep.attempted-rep.failed), "count", 0)
	return rep, nil
}
