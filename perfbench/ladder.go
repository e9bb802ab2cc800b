package main

// The layer ladder for the static-tree workloads: the same sampled
// requests replayed, one at a time, through successively outer entry
// points. The difference between neighbouring rungs is the cost of the
// layer between them.

import (
	"bytes"
	"fmt"
	"runtime"

	"spatialtree/internal/engine"
	"spatialtree/internal/exec"
	"spatialtree/internal/layout"
	"spatialtree/internal/lca"
	"spatialtree/internal/tree"
	"spatialtree/internal/treefix"
	"spatialtree/internal/wire"
)

const (
	ladderSample = 64 // sampled requests per replay pass
	ladderPasses = 3  // recorded passes (after one unrecorded warm pass)
)

// Rung root-span names.
const (
	rungExec   = "rung1 exec.Backend.Run"
	rungEngine = "rung2 engine.Submit+Wait"
	rungPipe   = "rung3 server.ServeBinary(pipe)"
	rungTCP    = "rung4 server.ServeBinary(tcp)"
)

// kernelSpan names the exec span of a request kind.
func kernelSpan(kind uint8) string {
	switch kind {
	case wire.KindTreefix:
		return "exec.bottomup"
	case wire.KindTopDown:
		return "exec.topdown"
	}
	return "exec.lca"
}

// runKernel runs req on one backend run.
func runKernel(run exec.Run, req *request) ([]int64, []int, error) {
	switch req.kind {
	case wire.KindTreefix:
		s, err := run.BottomUp(req.vals, opsByName[req.op])
		return s, nil, err
	case wire.KindTopDown:
		s, err := run.TopDown(req.vals, opsByName[req.op])
		return s, nil, err
	}
	a, err := run.LCA(req.queries)
	return nil, a, err
}

// submit enqueues req on an engine-like submitter.
func submit(e interface {
	SubmitTreefix([]int64, treefix.Op) *engine.Future
	SubmitTopDown([]int64, treefix.Op) *engine.Future
	SubmitLCA([]lca.Query) *engine.Future
}, req *request) *engine.Future {
	switch req.kind {
	case wire.KindTreefix:
		return e.SubmitTreefix(req.vals, opsByName[req.op])
	case wire.KindTopDown:
		return e.SubmitTopDown(req.vals, opsByName[req.op])
	}
	return e.SubmitLCA(req.queries)
}

// backends builds one execution backend per tree; placements are
// needed by the sim backend only.
func backends(name string, ts []*tree.Tree, placements []*layout.Placement) ([]exec.Backend, error) {
	bs := make([]exec.Backend, len(ts))
	for i, t := range ts {
		c := exec.Config{Tree: t}
		if placements != nil {
			c.Placement = placements[i]
		}
		b, err := exec.New(name, c)
		if err != nil {
			return nil, err
		}
		bs[i] = b
	}
	return bs, nil
}

// execRung replays req through rung 1 under span root and checks it.
func execRung(tr *tracer, b exec.Backend, req *request, id int) error {
	root := tr.open(rungExec, -1, id)
	run := b.Run(uint64(id))
	k := tr.open(kernelSpan(req.kind), root, id)
	sums, answers, err := runKernel(run, req)
	tr.close(k)
	tr.close(root)
	if err != nil {
		return err
	}
	return req.check(sums, answers)
}

// engineRung replays req through rung 2: Submit then Future.Wait.
func engineRung(tr *tracer, e *engine.Engine, req *request, id int) error {
	root := tr.open(rungEngine, -1, id)
	s := tr.open("engine.Submit", root, id)
	f := submit(e, req)
	tr.close(s)
	w := tr.open("engine.Wait", root, id)
	res := f.Wait()
	tr.close(w)
	tr.close(root)
	if res.Err != nil {
		return res.Err
	}
	return req.check(res.Sums, res.Answers)
}

// clientRung replays req through a wire client under rung root name.
func clientRung(tr *tracer, rung string, c *wire.Client, treeID string, req *request, id int) (*wire.Result, error) {
	root := tr.open(rung, -1, id)
	d := tr.open("wire.Client.Do", root, id)
	res, err := c.Do(req.wireQuery(treeID))
	tr.close(d)
	tr.close(root)
	if err != nil {
		return nil, err
	}
	return res, req.check(res.Sums, res.Answers)
}

// codecStats times the wire codec on the workload's own frames: the
// request frame and its response frame, encoded into reused buffers and
// decoded the way the serving path does (query into a reused struct,
// result into a fresh one).
type codecStats struct {
	bytesPerReq  float64
	allocsPerReq float64
}

func traceCodec(tr *tracer, reqs []*request, results []*wire.Result, treeIDs []string) (codecStats, error) {
	wqs := make([]*wire.Query, len(reqs))
	ress := make([]wire.Result, len(reqs))
	for i, req := range reqs {
		wqs[i] = req.wireQuery(treeIDs[req.tree])
		wqs[i].ID = uint64(i + 1)
		ress[i] = *results[i]
		ress[i].ID = wqs[i].ID
	}
	var qbuf, rbuf []byte
	var q wire.Query
	qsrc, rsrc := bytes.NewReader(nil), bytes.NewReader(nil)
	qrd, rrd := wire.NewReader(qsrc, 0), wire.NewReader(rsrc, 0)
	pass := func(t *tracer) (int, error) {
		total := 0
		for i := range reqs {
			e := t.open("wire.encode", -1, i)
			qbuf = wire.AppendQuery(qbuf[:0], wqs[i])
			rbuf = wire.AppendResult(rbuf[:0], &ress[i])
			t.close(e)
			total += len(qbuf) + len(rbuf)
			qsrc.Reset(qbuf)
			rsrc.Reset(rbuf)
			d := t.open("wire.decode", -1, i)
			_, qp, err := qrd.Next()
			if err == nil {
				err = q.Decode(qp)
			}
			var back wire.Result
			if err == nil {
				var rp []byte
				if _, rp, err = rrd.Next(); err == nil {
					err = back.Decode(rp)
				}
			}
			t.close(d)
			if err != nil {
				return 0, fmt.Errorf("codec round trip: %w", err)
			}
		}
		return total, nil
	}
	if _, err := pass(nil); err != nil { // warms the reused buffers
		return codecStats{}, err
	}
	allocs := mallocs()
	if _, err := pass(nil); err != nil {
		return codecStats{}, err
	}
	allocs = mallocs() - allocs
	total, err := pass(tr)
	if err != nil {
		return codecStats{}, err
	}
	n := float64(len(reqs))
	return codecStats{bytesPerReq: float64(total) / n, allocsPerReq: float64(allocs) / n}, nil
}

// mallocs reads the process's cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// execAllocs counts heap allocations per kernel call over one
// unrecorded pass of rung 1.
func execAllocs(bs []exec.Backend, reqs []*request) (float64, error) {
	before := mallocs()
	for i, req := range reqs {
		if err := execRung(nil, bs[req.tree], req, i); err != nil {
			return 0, err
		}
	}
	return float64(mallocs()-before) / float64(len(reqs)), nil
}

// kernelMetrics sets the exec.* per-kind span means.
func kernelMetrics(rep *report, sum summary) {
	for _, k := range []struct{ metric, span string }{
		{"exec.bottomup_us", "exec.bottomup"}, {"exec.topdown_us", "exec.topdown"}, {"exec.lca_us", "exec.lca"},
	} {
		if st, ok := sum.byName[k.span]; ok {
			rep.set(k.metric, st.meanUs, "us", st.count)
		}
	}
}
