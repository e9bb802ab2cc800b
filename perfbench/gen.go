package main

// Input generation. Everything a workload sends is derived here from
// the workload seed, before the system boots, together with the
// reference answers it is checked against: the program under test
// receives only the generated inputs.

import (
	"errors"
	"fmt"
	"slices"

	"spatialtree/internal/lca"
	"spatialtree/internal/rng"
	"spatialtree/internal/tree"
	"spatialtree/internal/treefix"
	"spatialtree/internal/wire"
)

// shape names one tree generator.
type shape struct {
	name  string
	build func(n int, r *rng.RNG) *tree.Tree
}

var (
	shapeRandom   = shape{"random-attachment", tree.RandomAttachment}
	shapeCaterp   = shape{"caterpillar", func(n int, _ *rng.RNG) *tree.Tree { return tree.Caterpillar(n) }}
	shapeYule     = shape{"yule", func(n int, r *rng.RNG) *tree.Tree { return tree.Yule((n+1)/2, r) }}
	shapePrefAtt  = shape{"preferential-attachment", tree.PreferentialAttachment}
	opsByName     = map[string]treefix.Op{"add": treefix.Add, "max": treefix.Max}
	treefixOpName = []string{"add", "max"}
)

// request is one generated query with its reference answer.
type request struct {
	tree    int   // index of the target tree in the workload's tree list
	kind    uint8 // wire.KindTreefix, wire.KindTopDown or wire.KindLCA
	op      string
	vals    []int64
	queries []lca.Query
	want    []int64 // treefix / top-down sums
	wantLCA []int   // LCA answers
}

// wireQuery renders r as a binary-protocol query addressed by tree id.
func (r *request) wireQuery(treeID string) *wire.Query {
	q := &wire.Query{Kind: r.kind, TreeID: treeID, Op: r.op, Vals: r.vals}
	if r.kind == wire.KindLCA {
		q.Queries = make([]wire.LCAQuery, len(r.queries))
		for i, p := range r.queries {
			q.Queries[i] = wire.LCAQuery{U: p.U, V: p.V}
		}
	}
	return q
}

// errWrong marks an answer that failed its check, as opposed to a
// transport or server error.
var errWrong = errors.New("wrong answer")

func isWrong(err error) bool { return errors.Is(err, errWrong) }

// check compares a result with the reference answer.
func (r *request) check(sums []int64, answers []int) error {
	if r.kind == wire.KindLCA {
		if !slices.Equal(answers, r.wantLCA) {
			return fmt.Errorf("%w: lca answers differ from the oracle", errWrong)
		}
		return nil
	}
	if !slices.Equal(sums, r.want) {
		return fmt.Errorf("%w: %s sums differ from the sequential reference", errWrong, wire.KindName(r.kind))
	}
	return nil
}

// genTrees builds one tree of n vertices per shape. Yule trees have an
// odd vertex count, so their size is the largest odd number <= n.
func genTrees(r *rng.RNG, n int, shapes []shape) []*tree.Tree {
	ts := make([]*tree.Tree, len(shapes))
	for i, s := range shapes {
		ts[i] = s.build(n, r.Split())
	}
	return ts
}

// genVals draws n treefix inputs in [0, 1000).
func genVals(r *rng.RNG, n int) []int64 {
	v := make([]int64, n)
	for i := range v {
		v[i] = int64(r.Intn(1000))
	}
	return v
}

// genPairs draws k LCA queries over vertices [0, n).
func genPairs(r *rng.RNG, n, k int) []lca.Query {
	qs := make([]lca.Query, k)
	for i := range qs {
		qs[i] = lca.Query{U: r.Intn(n), V: r.Intn(n)}
	}
	return qs
}

// lcaAnswers answers qs with the O(depth) reference oracle.
func lcaAnswers(o *lca.Oracle, qs []lca.Query) []int {
	out := make([]int, len(qs))
	for i, q := range qs {
		out[i] = o.LCA(q.U, q.V)
	}
	return out
}

// genPool draws perTree requests per tree, split between bottom-up,
// top-down and LCA in proportion to weights, and computes each
// reference answer.
func genPool(r *rng.RNG, ts []*tree.Tree, perTree int, weights [3]int, lcaPairs int) []request {
	total := weights[0] + weights[1] + weights[2]
	var pool []request
	for ti, t := range ts {
		oracle := lca.NewOracle(t)
		for i := 0; i < perTree; i++ {
			req := request{tree: ti}
			switch x := i * total / perTree; {
			case x < weights[0]:
				req.kind = wire.KindTreefix
			case x < weights[0]+weights[1]:
				req.kind = wire.KindTopDown
			default:
				req.kind = wire.KindLCA
			}
			if req.kind == wire.KindLCA {
				req.queries = genPairs(r, t.N(), lcaPairs)
				req.wantLCA = lcaAnswers(oracle, req.queries)
			} else {
				req.op = treefixOpName[r.Intn(len(treefixOpName))]
				req.vals = genVals(r, t.N())
				if req.kind == wire.KindTreefix {
					req.want = treefix.SequentialBottomUp(t, req.vals, opsByName[req.op])
				} else {
					req.want = treefix.SequentialTopDown(t, req.vals, opsByName[req.op])
				}
			}
			pool = append(pool, req)
		}
	}
	return pool
}

// genStream draws n indices into a pool of size m.
func genStream(r *rng.RNG, n, m int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = r.Intn(m)
	}
	return s
}
