package main

// Workload churn-durable: one server with the daemon's defaults and a
// durable store that fsyncs every WAL record (the daemon's -data-dir
// with -fsync always and -compact-after 256), serving eight dyn shards
// on loopback ServeBinary. The generator holds two binary connections.
// Phase 1 is an open loop at a fixed rate, phase 2 a closed loop with
// 16 operations in flight; both send 25% mutations and 75% queries.
//
// Only original vertices are ever queried or used as insertion parents,
// and a delete always removes the shard's most recently inserted leaf,
// so original ids never move and every answer can be checked against
// the original tree: LCAs of original vertices do not change, and with
// inserted leaves valued 0 the bottom-up sums of original vertices do
// not either. The generator serializes each shard's mutations against
// its other operations (a per-shard read-write lock), so it always
// knows the size a treefix request must match.

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"spatialtree/internal/engine"
	"spatialtree/internal/lca"
	"spatialtree/internal/persist"
	"spatialtree/internal/rng"
	"spatialtree/internal/server"
	"spatialtree/internal/tree"
	"spatialtree/internal/treefix"
	"spatialtree/internal/wire"
)

const (
	churnShards    = 8
	churnN         = 1 << 11
	churnRate      = 200.0 // open-loop operations/s
	churnLimit     = 500 * time.Millisecond
	churnInFlight  = 16
	churnConns     = 2
	churnBand      = 32 // inserted leaves a shard may hold above its original size
	churnLCAPairs  = 64
	churnLCAInputs = 8   // distinct LCA batches per shard
	churnCompact   = 256 // WAL records per shard before compaction
	// churnQuiesce bounds the wait for the open loop's stragglers.
	churnQuiesce = 5 * time.Second
)

// churnOp is one generated operation.
type churnOp struct {
	shard  int
	kind   byte // 'm' mutation, 'l' LCA, 't' bottom-up treefix
	arg    int  // insert parent, or LCA input index
	insert bool // a mutation's preferred direction; the shard's band may override it
}

// churnShard is the generated input of one shard.
type churnShard struct {
	tree    *tree.Tree
	vals    []int64 // treefix inputs of the original vertices
	sums    []int64 // their bottom-up sums
	queries [][]lca.Query
	answers [][]int
}

// churnInputs is the generated input of one churn-durable run.
type churnInputs struct {
	shards []churnShard
	open   []churnOp // the open loop's operations, in send order
	closed []churnOp // the operations the closed loop cycles through
}

func genChurn(seed uint64, openSeconds float64) *churnInputs {
	r := rng.New(seed)
	in := &churnInputs{}
	for i := 0; i < churnShards; i++ {
		t := tree.RandomAttachment(churnN, r.Split())
		sh := churnShard{tree: t, vals: genVals(r, churnN)}
		sh.sums = treefix.SequentialBottomUp(t, sh.vals, treefix.Add)
		o := lca.NewOracle(t)
		for j := 0; j < churnLCAInputs; j++ {
			q := genPairs(r, churnN, churnLCAPairs)
			sh.queries = append(sh.queries, q)
			sh.answers = append(sh.answers, lcaAnswers(o, q))
		}
		in.shards = append(in.shards, sh)
	}
	in.open = genChurnOps(r, int(churnRate*openSeconds))
	in.closed = genChurnOps(r, 4096)
	return in
}

// genChurnOps draws n operations: 25% mutations, 50% LCA batches and
// 25% bottom-up treefix, on uniformly chosen shards.
func genChurnOps(r *rng.RNG, n int) []churnOp {
	ops := make([]churnOp, n)
	for i := range ops {
		op := churnOp{shard: r.Intn(churnShards)}
		switch x := r.Intn(12); {
		case x < 3:
			op.kind, op.arg, op.insert = 'm', r.Intn(churnN), r.Bool()
		case x < 9:
			op.kind, op.arg = 'l', r.Intn(churnLCAInputs)
		default:
			op.kind = 't'
		}
		ops[i] = op
	}
	return ops
}

// churnSys is one booted server on its own store.
type churnSys struct {
	serverSys
	dir   string
	store *persist.Store
}

// bootChurn opens a fresh store in dir, boots the server on it the way
// cmd/spatialtreed does with -data-dir, creates the shards over the
// binary protocol and warms each with one checked LCA and treefix query
// through each connection.
func bootChurn(in *churnInputs, dir string) (*churnSys, error) {
	st, err := persist.Open(persist.Options{Dir: dir, Fsync: true, CompactAfter: churnCompact})
	if err != nil {
		return nil, err
	}
	cfg := daemonConfig()
	cfg.Durability = server.Durability{Store: st}
	s := &churnSys{serverSys: serverSys{srv: server.New(cfg)}, dir: dir, store: st}
	if _, err := s.srv.Recover(); err != nil {
		s.close()
		return nil, err
	}
	if err := s.listen(churnConns); err != nil {
		s.close()
		return nil, err
	}
	for i, sh := range in.shards {
		dc, err := s.clients[i%churnConns].DynCreate(&wire.DynCreate{Parents: sh.tree.Parents()})
		if err != nil {
			s.close()
			return nil, fmt.Errorf("create shard %d: %w", i, err)
		}
		s.ids = append(s.ids, dc.ShardID)
	}
	for i := range in.shards {
		for _, c := range s.clients {
			for _, kind := range []byte{'l', 't'} {
				if err := s.query(in, c, churnOp{shard: i, kind: kind}, churnN); err != nil {
					s.close()
					return nil, fmt.Errorf("warm-up: %w", err)
				}
			}
		}
	}
	return s, nil
}

// close tears the system down and removes its data directory.
func (s *churnSys) close() {
	s.serverSys.close()
	_ = s.store.Close()     // the directory is removed next
	_ = os.RemoveAll(s.dir) // scratch state of this run only
}

// query sends one checked query for op on c against a shard of size n.
func (s *churnSys) query(in *churnInputs, c *wire.Client, op churnOp, n int) error {
	sh := &in.shards[op.shard]
	q := &wire.Query{ShardID: s.ids[op.shard]}
	if op.kind == 'l' {
		q.Kind = wire.KindLCA
		for _, p := range sh.queries[op.arg] {
			q.Queries = append(q.Queries, wire.LCAQuery{U: p.U, V: p.V})
		}
	} else {
		q.Kind, q.Op = wire.KindTreefix, "add"
		q.Vals = make([]int64, n)
		copy(q.Vals, sh.vals)
	}
	res, err := c.Do(q)
	if err != nil {
		return err
	}
	if op.kind == 'l' {
		if !slices.Equal(res.Answers, sh.answers[op.arg]) {
			return fmt.Errorf("%w: shard %d: lca answers differ from the original tree's", errWrong, op.shard)
		}
		return nil
	}
	if len(res.Sums) != n || !slices.Equal(res.Sums[:churnN], sh.sums) || slices.ContainsFunc(res.Sums[churnN:], func(x int64) bool { return x != 0 }) {
		return fmt.Errorf("%w: shard %d: treefix sums differ from the original tree's", errWrong, op.shard)
	}
	return nil
}

// shardState is the generator's view of one shard.
type shardState struct {
	mu      sync.RWMutex // mutations exclusive, queries shared
	n       int          // size as of the last acked mutation
	leaves  []int        // inserted leaves, most recent last
	unknown int          // mutations whose outcome is unknown
	acked   uint64       // highest acked epoch
}

// states returns a fresh generator view of every shard at its original
// size.
func (s *churnSys) states() []*shardState {
	sts := make([]*shardState, len(s.ids))
	for i := range sts {
		sts[i] = &shardState{n: churnN}
	}
	return sts
}

// call sends op on c under its shard's lock and reports whether it was
// a query.
func (s *churnSys) call(in *churnInputs, states []*shardState, c *wire.Client, op churnOp) (bool, error) {
	st := states[op.shard]
	if op.kind == 'm' {
		st.mu.Lock()
		defer st.mu.Unlock()
		return false, s.mutate(c, op, st)
	}
	st.mu.RLock()
	defer st.mu.RUnlock()
	return true, s.query(in, c, op, st.n)
}

// deletes reports whether mutation op deletes a leaf from a shard
// holding k inserted leaves: a shard at the top of its band deletes,
// one with none inserts, any other follows op's preferred direction.
func deletes(op churnOp, k int) bool {
	return k >= churnBand || (k > 0 && !op.insert)
}

// mutate sends op (holding st's write lock), checks the ack and folds
// it into st.
func (s *churnSys) mutate(c *wire.Client, op churnOp, st *shardState) error {
	m := &wire.Mutate{ShardID: s.ids[op.shard], Op: wire.OpInsert, Arg: op.arg}
	if k := len(st.leaves); deletes(op, k) {
		m.Op, m.Arg = wire.OpDelete, st.leaves[k-1]
	}
	res, err := c.Mutate(m)
	if err != nil {
		var we *wire.Error
		if !errors.As(err, &we) || we.Status != wire.StatusBadRequest {
			st.unknown++ // it may have applied
		}
		return err
	}
	want := st.n + 1
	if m.Op == wire.OpDelete {
		want = st.n - 1
	}
	st.n, st.acked = res.N, max(st.acked, res.Epoch)
	if m.Op == wire.OpInsert {
		st.leaves = append(st.leaves, res.Vertex)
	} else {
		st.leaves = st.leaves[:len(st.leaves)-1]
	}
	if st.unknown == 0 && res.N != want {
		return fmt.Errorf("%w: shard %d: mutation left %d vertices, want %d", errWrong, op.shard, res.N, want)
	}
	return nil
}

// openPhase runs the open loop over in.open and returns its outcomes,
// the generator's per-send lateness and whether every operation had
// returned within churnQuiesce of the cut-off.
func (s *churnSys) openPhase(in *churnInputs, states []*shardState) ([]opResult, []float64, bool) {
	rec := newRecorder(len(in.open))
	var wg sync.WaitGroup
	lag := openLoop(time.Now(), len(in.open), churnRate, &wg, func(i int, due time.Time) {
		op := in.open[i]
		kind := byte('q')
		if op.kind == 'm' {
			kind = 'm'
		}
		rec.start(i, kind, due)
		_, err := s.call(in, states, s.clients[i%churnConns], op)
		rec.finish(i, err)
	})
	waitTimeout(&wg, churnLimit)
	ops := rec.freeze()
	return ops, lag, waitTimeout(&wg, churnQuiesce)
}

// closedPhase keeps churnInFlight operations in flight for d.
func (s *churnSys) closedPhase(in *churnInputs, states []*shardState, d time.Duration) closedResult {
	return closedLoop(d, churnInFlight, func(w, i int) (bool, error) {
		return s.call(in, states, s.clients[w%churnConns], in.closed[i%len(in.closed)])
	})
}

// consistency checks, once every operation has returned, that each
// shard's served state and WAL hold what the acks say: the engine at or
// past the highest acked epoch with the generator's vertex count, and
// the WAL's newest record at or past the acked epoch.
func (s *churnSys) consistency(states []*shardState) []string {
	var bad []string
	for i, id := range s.ids {
		st := states[i]
		de, ok := s.srv.DynShard(id)
		if !ok {
			bad = append(bad, fmt.Sprintf("shard %d is no longer served", i))
			continue
		}
		if de.Epoch() < st.acked {
			bad = append(bad, fmt.Sprintf("shard %d: engine at epoch %d below acked %d", i, de.Epoch(), st.acked))
		}
		if n := de.N(); n < st.n-st.unknown || n > st.n+st.unknown {
			bad = append(bad, fmt.Sprintf("shard %d: engine holds %d vertices, acks say %d (%d unknown)", i, n, st.n, st.unknown))
		}
		if log, ok := s.srv.DynShardLog(id); !ok || log.LastEpoch() < st.acked {
			bad = append(bad, fmt.Sprintf("shard %d: WAL behind acked epoch %d", i, st.acked))
		}
	}
	return bad
}

// checkConsistency folds the end-of-run check into rep: a violation is
// a wrong answer.
func (s *churnSys) checkConsistency(rep *report, states []*shardState) {
	bad := s.consistency(states)
	for _, b := range bad {
		rep.notef("consistency: %s", b)
	}
	if len(bad) > 0 {
		rep.correct = false
	}
}

func runChurn(cfg config) (*report, error) {
	half := cfg.seconds / 2
	in := genChurn(cfg.seed, half)
	boots := 0
	sys, setup, err := timedBoot(setupRuns, func() (*churnSys, error) {
		boots++
		return bootChurn(in, filepath.Join(cfg.outDir, fmt.Sprintf("churn-%d-%d", cfg.seed, boots)))
	}, (*churnSys).close)
	if err != nil {
		return nil, err
	}
	defer sys.close()
	rep := newReport()
	rep.set("setup_s", setup, "s", setupRuns)

	rss := sampleRSS()
	states := sys.states()
	ops, lag, quiesced := sys.openPhase(in, states)
	if !quiesced {
		return nil, fmt.Errorf("open-loop operations still running %v after the cut-off", churnQuiesce)
	}
	loopSummary(rep, ops, lag, churnLimit, map[byte]string{'q': "query", 'm': "mutate"})
	cl := sys.closedPhase(in, states, time.Duration(half*float64(time.Second)))
	rss.stop(rep)
	rep.attempted += cl.ok + cl.failed
	rep.failed += cl.failed
	rep.correct = rep.correct && !cl.wrong
	rep.set("query_qps", cl.qps(), "1/s", len(cl.done))
	sys.checkConsistency(rep, states)
	rep.notef("open loop: %.0f ops/s (25%% mutations) for %.1fs, latency limit %v; closed loop: %d in flight over %d connections, %d queries and %d mutations acked",
		churnRate, float64(len(in.open))/churnRate, churnLimit, churnInFlight, churnConns, len(cl.done), cl.ok-len(cl.done))
	return rep, nil
}

// Rung names of the mutation ladder.
const (
	rungDyn          = "rung1 dyn.Mutate+persist.Append"
	rungServerMut    = "rung2 server.ServeBinary(tcp) mutate"
	churnLadderPairs = 32 // insert+delete pairs per rung
)

// traceChurn is the traced run: the mutation ladder, then the open and
// closed loops with the layer counters taken around them.
func traceChurn(cfg config) (*report, error) {
	in := genChurn(cfg.seed, cfg.seconds/2)
	sys, err := bootChurn(in, filepath.Join(cfg.outDir, fmt.Sprintf("churn-%d-trace", cfg.seed)))
	if err != nil {
		return nil, err
	}
	defer sys.close()
	rep := newReport()
	tr := newTracer()

	recBytes, err := churnLadder(tr, sys, in, filepath.Join(cfg.outDir, fmt.Sprintf("churn-%d-standalone", cfg.seed)))
	if err != nil {
		return nil, err
	}
	before := sys.layerCounters()
	states := sys.states() // the ladder leaves every shard at its original size
	ops, lag, quiesced := sys.openPhase(in, states)
	if !quiesced {
		return nil, fmt.Errorf("open-loop operations still running %v after the cut-off", churnQuiesce)
	}
	loopSummary(rep, ops, lag, churnLimit, map[byte]string{'q': "query", 'm': "mutate"})
	cl := sys.closedPhase(in, states, time.Duration(cfg.seconds/2*float64(time.Second)))
	after := sys.layerCounters()
	rep.attempted += cl.ok + cl.failed
	rep.failed += cl.failed
	rep.correct = rep.correct && !cl.wrong
	sys.checkConsistency(rep, states)
	muts := cl.ok - len(cl.done) // acked mutations
	for i := range ops {
		if o := &ops[i]; o.kind == 'm' && o.done && o.err == nil {
			muts++
		}
	}
	per1k := func(x uint64) float64 { return 1000 * float64(x) / float64(max(1, muts)) }
	rep.set("dyn.refreshes_per_1k", per1k(after.refreshes-before.refreshes), "count", muts)
	rep.set("dyn.rebuilds_per_1k", per1k(after.rebuilds-before.rebuilds), "count", muts)
	rep.set("persist.compactions_per_1k", per1k(after.compactions-before.compactions), "count", muts)
	rep.set("persist.bytes_per_record", recBytes, "bytes", churnLadderPairs*2)

	sum, err := finishTrace(tr, cfg.outDir, traceFile{
		Workload: "churn-durable", Seed: cfg.seed,
		Ladders:    [][]string{{rungDyn, rungServerMut}},
		SpanCostUs: spanCost(),
		LagP99Ms:   rep.entries["gen.lag_p99_ms"].Value,
		LimitMs:    float64(churnLimit.Milliseconds()),
	}, rep)
	if err != nil {
		return nil, err
	}
	ins, del := sum.byName["dyn.InsertLeaf"], sum.byName["dyn.DeleteLeaf"]
	rep.set("dyn.insert_us", ins.selfUs, "us", ins.count)
	rep.set("dyn.delete_us", del.selfUs, "us", del.count)
	rep.set("persist.append_us", sum.byName["persist.Append"].meanUs, "us", sum.byName["persist.Append"].count)
	rep.set("trace.overhead_ratio", sum.overhead[0], "ratio", 2*churnLadderPairs)
	return rep, nil
}

// layerCounters sums the dyn and persist counters of every served shard.
type layerCounters struct{ refreshes, rebuilds, compactions uint64 }

func (s *churnSys) layerCounters() layerCounters {
	var c layerCounters
	for _, id := range s.ids {
		if de, ok := s.srv.DynShard(id); ok {
			st := de.Stats()
			c.refreshes += st.Refreshes
			c.rebuilds += st.Rebuilds
		}
		if l, ok := s.srv.DynShardLog(id); ok {
			c.compactions += l.Compactions()
		}
	}
	return c
}

// churnLadder replays insert+delete pairs through a standalone dyn
// engine journaling to its own fsynced store in dir (the dyn and
// persist layers alone, rung 1), then through the server over the
// generator's TCP connection (rung 2). It returns the standalone WAL's
// bytes per record.
func churnLadder(tr *tracer, sys *churnSys, in *churnInputs, dir string) (float64, error) {
	const shard = 0
	st, err := persist.Open(persist.Options{Dir: dir, Fsync: true, CompactAfter: churnCompact})
	if err != nil {
		return 0, err
	}
	defer func() {
		_ = st.Close()        // the directory is removed next
		_ = os.RemoveAll(dir) // scratch state of this run only
	}()
	de, err := engine.NewDyn(in.shards[shard].tree, engine.DynOptions{Options: sys.srv.EngineOptions(), Epsilon: daemonConfig().Epsilon})
	if err != nil {
		return 0, err
	}
	log, err := st.CreateShardLog("standalone", server.DynSnapshotFromState(de.State()))
	if err != nil {
		return 0, err
	}
	var cur, curReq int // the span and request the journal hook nests under
	de.SetJournal(func(rec engine.MutationRecord) error {
		p := tr.open("persist.Append", cur, curReq)
		defer tr.close(p)
		typ := persist.RecInsert
		if rec.Op == engine.MutDelete {
			typ = persist.RecDelete
		}
		return log.Append(persist.Record{Type: typ, Epoch: rec.Epoch, Arg: rec.Arg, Result: rec.Result})
	})
	walBefore, err := dirBytes(dir)
	if err != nil {
		return 0, err
	}
	parents := genStream(rng.New(uint64(len(in.shards))), churnLadderPairs, churnN)
	for i, p := range parents {
		root := tr.open(rungDyn, -1, 2*i)
		cur, curReq = tr.open("dyn.InsertLeaf", root, 2*i), 2*i
		v, err := de.InsertLeaf(p)
		tr.close(cur)
		tr.close(root)
		if err != nil {
			return 0, err
		}
		root = tr.open(rungDyn, -1, 2*i+1)
		cur, curReq = tr.open("dyn.DeleteLeaf", root, 2*i+1), 2*i+1
		_, err = de.DeleteLeaf(v)
		tr.close(cur)
		tr.close(root)
		if err != nil {
			return 0, err
		}
	}
	if err := log.Sync(); err != nil {
		return 0, err
	}
	walAfter, err := dirBytes(dir)
	if err != nil {
		return 0, err
	}

	c, id := sys.clients[0], sys.ids[shard]
	for i, p := range parents {
		root := tr.open(rungServerMut, -1, 2*i)
		res, err := c.Mutate(&wire.Mutate{ShardID: id, Op: wire.OpInsert, Arg: p})
		tr.close(root)
		if err != nil {
			return 0, fmt.Errorf("%s insert: %w", rungServerMut, err)
		}
		root = tr.open(rungServerMut, -1, 2*i+1)
		_, err = c.Mutate(&wire.Mutate{ShardID: id, Op: wire.OpDelete, Arg: res.Vertex})
		tr.close(root)
		if err != nil {
			return 0, fmt.Errorf("%s delete: %w", rungServerMut, err)
		}
	}
	return float64(walAfter-walBefore) / float64(2*len(parents)), nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			total += info.Size()
		}
		return err
	})
	return total, err
}
