package main

// Workload query-pipelined: one server with daemon defaults on loopback
// ServeBinary, four registered static trees, and a generator holding
// two binary connections. Phase 1 is an open loop at a fixed rate,
// phase 2 a closed loop with 64 requests in flight over the same two
// connections.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"spatialtree/internal/engine"
	"spatialtree/internal/rng"
	"spatialtree/internal/server"
	"spatialtree/internal/tree"
	"spatialtree/internal/wire"
)

const (
	pipeN        = 1 << 12
	pipeRate     = 300.0 // open-loop queries/s: about half the seed's closed-loop capacity
	pipeLimit    = 200 * time.Millisecond
	pipeInFlight = 64
	pipeConns    = 2
	pipePerTree  = 16 // distinct requests per tree in the pool
	pipeLCAPairs = 64
)

// pipeInputs is the generated input of one query-pipelined run.
type pipeInputs struct {
	trees  []*tree.Tree
	pool   []request
	open   []int // pool indices of the open-loop phase, in send order
	closed []int // pool indices the closed loop cycles through
}

func genPipelined(seed uint64, seconds float64) *pipeInputs {
	r := rng.New(seed)
	in := &pipeInputs{trees: genTrees(r, pipeN, []shape{shapeRandom, shapeCaterp, shapeYule, shapePrefAtt})}
	// Mix: 50% bottom-up treefix, 25% top-down treefix, 25% LCA-64.
	in.pool = genPool(r, in.trees, pipePerTree, [3]int{2, 1, 1}, pipeLCAPairs)
	in.open = genStream(r, int(pipeRate*seconds/2), len(in.pool))
	in.closed = genStream(r, 4096, len(in.pool))
	return in
}

// serverSys is one in-process server on a loopback ServeBinary
// listener, with the generator's connections to it.
type serverSys struct {
	srv     *server.Server
	ids     []string // tree or shard ids, parallel to the inputs
	clients []*wire.Client
	serving sync.WaitGroup
}

// pipeSys is one booted query-pipelined system.
type pipeSys struct{ serverSys }

// daemonConfig mirrors cmd/spatialtreed's flag defaults.
func daemonConfig() server.Config {
	return server.Config{
		Scheduler: server.Scheduler{MaxBatch: server.DefaultMaxBatch, MaxDelay: server.DefaultMaxDelay},
		Limits: server.Limits{
			QueueLimit: server.DefaultQueueLimit, MaxShards: server.DefaultMaxShards,
			CacheCapacity: server.DefaultCacheCapacity,
		},
		Timeouts: server.Timeouts{TCPIdle: server.DefaultTCPIdleTimeout},
		Curve:    "hilbert",
		Seed:     1,
		Epsilon:  0.2,
		Backend:  "native",
	}
}

// bootPipelined starts the server, registers the trees, dials the
// generator's connections and warms every request of the pool once.
func bootPipelined(in *pipeInputs) (*pipeSys, error) {
	s := &pipeSys{serverSys{srv: server.New(daemonConfig())}}
	if err := s.listen(pipeConns); err != nil {
		s.close()
		return nil, err
	}
	for _, t := range in.trees {
		id, err := s.srv.RegisterTree(t)
		if err != nil {
			s.close()
			return nil, fmt.Errorf("register: %w", err)
		}
		s.ids = append(s.ids, id)
	}
	var wg sync.WaitGroup
	errs := make([]error, len(in.pool))
	for i := range in.pool {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = s.do(&in.pool[i], s.clients[i%pipeConns])
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		s.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return s, nil
}

// listen serves s.srv on a loopback listener and dials conns
// connections to it.
func (s *serverSys) listen(conns int) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.serve(ln)
	for i := 0; i < conns; i++ {
		c, err := wire.Dial(ln.Addr().String(), wire.DialOptions{})
		if err != nil {
			return err
		}
		s.clients = append(s.clients, c)
	}
	return nil
}

// serve runs ServeBinary on ln until close.
func (s *serverSys) serve(ln net.Listener) {
	s.serving.Add(1)
	go func() {
		defer s.serving.Done()
		_ = s.srv.ServeBinary(ln) // returns net.ErrClosed once CloseBinary runs
	}()
}

// do sends req on c and checks the answer.
func (s *pipeSys) do(req *request, c *wire.Client) error {
	res, err := c.Do(req.wireQuery(s.ids[req.tree]))
	if err != nil {
		return err
	}
	return req.check(res.Sums, res.Answers)
}

func (s *serverSys) close() {
	for _, c := range s.clients {
		_ = c.Close() // the connection is the only resource; nothing to flush
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.srv.Drain(ctx) // every generator call has returned by now
	s.srv.CloseBinary()
	s.serving.Wait()
}

// openPhase runs the open loop over in.open and returns its outcomes
// and the generator's per-send lateness. span, when non-nil, wraps
// every call.
func (s *pipeSys) openPhase(in *pipeInputs, sp *tracer) ([]opResult, []float64) {
	rec := newRecorder(len(in.open))
	var wg sync.WaitGroup
	lag := openLoop(time.Now(), len(in.open), pipeRate, &wg, func(i int, due time.Time) {
		req := &in.pool[in.open[i]]
		rec.start(i, 'q', due)
		end := sp.begin("open-loop call", i)
		err := s.do(req, s.clients[i%pipeConns])
		end()
		rec.finish(i, err)
	})
	waitTimeout(&wg, pipeLimit)
	ops := rec.freeze()
	wg.Wait() // nothing blocks past the limit on this workload; the freeze already counted stragglers
	return ops, lag
}

// closedPhase keeps pipeInFlight requests in flight for d.
func (s *pipeSys) closedPhase(in *pipeInputs, d time.Duration, sp *tracer) closedResult {
	return closedLoop(d, pipeInFlight, func(w, i int) (bool, error) {
		i %= len(in.closed)
		end := sp.begin("closed-loop call", i)
		defer end()
		return true, s.do(&in.pool[in.closed[i]], s.clients[w%pipeConns])
	})
}

func runPipelined(cfg config) (*report, error) {
	in := genPipelined(cfg.seed, cfg.seconds)
	sys, setup, err := timedBoot(setupRuns, func() (*pipeSys, error) { return bootPipelined(in) }, (*pipeSys).close)
	if err != nil {
		return nil, err
	}
	defer sys.close()
	rep := newReport()
	rep.set("setup_s", setup, "s", setupRuns)

	rss := sampleRSS()
	m0 := sys.srv.Metrics()
	ops, lag := sys.openPhase(in, nil)
	loopSummary(rep, ops, lag, pipeLimit, map[byte]string{'q': "query"})
	m1 := sys.srv.Metrics()
	cl := sys.closedPhase(in, time.Duration(cfg.seconds/2*float64(time.Second)), nil)
	m2 := sys.srv.Metrics()
	rss.stop(rep)
	rep.attempted += cl.ok + cl.failed
	rep.failed += cl.failed
	rep.correct = rep.correct && !cl.wrong
	rep.set("query_qps", cl.qps(), "1/s", cl.ok)
	schedulerMetrics(rep, "open loop", m0, m1)
	schedulerMetrics(rep, "closed loop", m1, m2)
	rep.notef("open loop: %.0f q/s for %.1fs, latency limit %v; closed loop: %d in flight over %d connections",
		pipeRate, float64(len(in.open))/pipeRate, pipeLimit, pipeInFlight, pipeConns)
	return rep, nil
}

// schedulerMetrics notes the batch scheduler's behaviour between two
// metric snapshots.
func schedulerMetrics(rep *report, phase string, a, b server.MetricsResponse) {
	batches := b.Scheduler.Batches - a.Scheduler.Batches
	reqs := b.Scheduler.Requests - a.Scheduler.Requests
	deadline := b.Scheduler.DeadlineFlushes - a.Scheduler.DeadlineFlushes
	if batches == 0 {
		return
	}
	rep.notef("%s: %d requests in %d batches (%.2f requests/batch), %.0f%% deadline flushes, %d rejected",
		phase, reqs, batches, float64(reqs)/float64(batches), 100*float64(deadline)/float64(batches),
		b.Server.Rejected-a.Server.Rejected)
}

// tracePipelined is the traced run: the open loop and a closed loop with
// spans around every call, then the four-rung ladder over a sample of
// the generated requests.
func tracePipelined(cfg config) (*report, error) {
	quarter := time.Duration(cfg.seconds / 4 * float64(time.Second))
	in := genPipelined(cfg.seed, cfg.seconds/2)
	sys, err := bootPipelined(in)
	if err != nil {
		return nil, err
	}
	defer sys.close()
	rep := newReport()
	tr := newTracer()

	m0 := sys.srv.Metrics()
	ops, lag := sys.openPhase(in, tr)
	loopSummary(rep, ops, lag, pipeLimit, map[byte]string{'q': "query"})
	m1 := sys.srv.Metrics()
	traced := sys.closedPhase(in, quarter, tr)
	m2 := sys.srv.Metrics()
	rep.attempted += traced.ok + traced.failed
	rep.failed += traced.failed
	rep.correct = rep.correct && !traced.wrong
	engineCounters(rep, m1, m2)
	rejected := m2.Server.Rejected - m0.Server.Rejected
	rep.set("server.rejected_ratio", float64(rejected)/float64(max(1, m2.Server.Accepted-m0.Server.Accepted+rejected)), "ratio", 0)

	// The ladder: rung 1 native backends, rung 2 engines with the
	// server's own options (shared cache, autoflush), rung 3 the same
	// server over an in-memory pipe, rung 4 over the generator's TCP
	// connection.
	bs, err := backends("native", in.trees, nil)
	if err != nil {
		return nil, err
	}
	engines := make([]*engine.Engine, len(in.trees))
	for i, t := range in.trees {
		if engines[i], err = engine.New(t, sys.srv.EngineOptions()); err != nil {
			return nil, err
		}
		defer engines[i].StopAutoFlush()
	}
	pl := newPipeListener()
	sys.serve(pl)
	conn, err := pl.Dial()
	if err != nil {
		return nil, err
	}
	pc := wire.NewClient(conn)
	defer pc.Close()

	sample := make([]*request, ladderSample)
	for i := range sample {
		sample[i] = &in.pool[in.closed[i]]
	}
	results := make([]*wire.Result, len(sample))
	for pass := 0; pass <= ladderPasses; pass++ {
		t := tr
		if pass == 0 {
			t = nil // warm pass
		}
		for i, req := range sample {
			id := pass*ladderSample + i
			if err := execRung(t, bs[req.tree], req, id); err != nil {
				return nil, fmt.Errorf("rung 1: %w", err)
			}
			if err := engineRung(t, engines[req.tree], req, id); err != nil {
				return nil, fmt.Errorf("rung 2: %w", err)
			}
			if _, err := clientRung(t, rungPipe, pc, sys.ids[req.tree], req, id); err != nil {
				return nil, fmt.Errorf("rung 3: %w", err)
			}
			if results[i], err = clientRung(t, rungTCP, sys.clients[0], sys.ids[req.tree], req, id); err != nil {
				return nil, fmt.Errorf("rung 4: %w", err)
			}
		}
	}
	cs, err := traceCodec(tr, sample, results, sys.ids)
	if err != nil {
		return nil, err
	}
	allocs, err := execAllocs(bs, sample)
	if err != nil {
		return nil, err
	}

	sum, err := finishTrace(tr, cfg.outDir, traceFile{
		Workload: "query-pipelined", Seed: cfg.seed,
		Ladders:    [][]string{{rungExec, rungEngine, rungPipe, rungTCP}},
		SpanCostUs: spanCost(),
		LagP99Ms:   rep.entries["gen.lag_p99_ms"].Value,
		LimitMs:    float64(pipeLimit.Milliseconds()),
	}, rep)
	if err != nil {
		return nil, err
	}
	kernelMetrics(rep, sum)
	rep.set("trace.overhead_ratio", sum.overhead[0], "ratio", len(sample)*ladderPasses)
	rep.set("exec.allocs_per_call", allocs, "count", len(sample))
	rep.set("engine.batch_wait_us", sum.rungDiff(rungEngine, rungExec), "us", 0)
	rep.set("server.self_us", sum.rungDiff(rungPipe, rungEngine), "us", 0)
	rep.set("net.socket_us", sum.rungDiff(rungTCP, rungPipe), "us", 0)
	rep.set("wire.encode_us", sum.byName["wire.encode"].meanUs, "us", sum.byName["wire.encode"].count)
	rep.set("wire.decode_us", sum.byName["wire.decode"].meanUs, "us", sum.byName["wire.decode"].count)
	rep.set("wire.bytes_per_req", cs.bytesPerReq, "bytes", len(sample))
	rep.set("wire.allocs_per_req", cs.allocsPerReq, "count", len(sample))
	return rep, nil
}

// engineCounters sets the batch scheduler and engine counters between
// two server metric snapshots.
func engineCounters(rep *report, a, b server.MetricsResponse) {
	batches := float64(b.Scheduler.Batches - a.Scheduler.Batches)
	if batches > 0 {
		rep.set("engine.reqs_per_batch", float64(b.Scheduler.Requests-a.Scheduler.Requests)/batches, "count", int(batches))
		rep.set("engine.deadline_flush_share", float64(b.Scheduler.DeadlineFlushes-a.Scheduler.DeadlineFlushes)/batches, "ratio", int(batches))
	}
	if q := b.Engine.LCAQueries - a.Engine.LCAQueries; q > 0 {
		reqs := float64(q) / pipeLCAPairs
		rep.set("engine.lca_runs_per_lca_req", float64(b.Engine.LCARuns-a.Engine.LCARuns)/reqs, "ratio", int(reqs))
	}
}
