package lca

import (
	"fmt"
	"hash/fnv"
	"testing"

	"spatialtree/internal/machine"
	"spatialtree/internal/rng"
	"spatialtree/internal/sfc"
	"spatialtree/internal/tree"
	"spatialtree/internal/treefix"
)

// The simulator's costs are exact functions of the message schedule, so
// a host-side optimization of a spatial kernel must leave every counter
// and every output bit-identical. This test pins the Energy, Messages
// and Depth of the spatial treefix, LCA and barrier on fixed seeded
// inputs, together with a hash of the outputs and the contraction
// statistics. A change to any number here is a change to the modelled
// algorithm, not a speedup.

// goldenCost is one pinned call: its model cost and an FNV-64a hash of
// its outputs (results, then stats).
type goldenCost struct {
	energy, messages, depth int64
	out                     uint64
}

func (g goldenCost) String() string {
	return fmt.Sprintf("{%d, %d, %d, %#x}", g.energy, g.messages, g.depth, g.out)
}

// goldenCosts must never be re-recorded to absorb a host-side change.
var goldenCosts = map[string]goldenCost{
	"barrier/hilbert":      {7936, 4092, 60, 0xcbf29ce484222325},
	"barrier/peano":        {58392, 26240, 88, 0xcbf29ce484222325},
	"caterpillar/both":     {5572, 2297, 112, 0x4bc8b27ded00973a},
	"caterpillar/bottomup": {5166, 2203, 118, 0x64f74a995a209768},
	"caterpillar/lca":      {23198, 9542, 282, 0x4a55d2987da8da94},
	"caterpillar/topdown":  {5336, 2254, 115, 0x809f7d84b16d901d},
	"random/both":          {13589, 4679, 137, 0x6741d0d174508a1f},
	"random/bottomup":      {13568, 4674, 150, 0x32049c885aa8d969},
	"random/lca":           {60985, 22204, 459, 0xb7052cf2807476b4},
	"random/topdown":       {13438, 4628, 144, 0x2d039ca138825633},
	"renumbered/both":      {5576, 2322, 111, 0x1506c0be3f392b84},
	"renumbered/bottomup":  {5748, 2352, 118, 0x3468edde849d90bc},
	"renumbered/lca":       {36617, 16242, 391, 0xd7edf9611ba99eb2},
	"renumbered/topdown":   {5806, 2363, 116, 0xae5c5d6ecfb286ae},
	"star/both":            {2719, 1495, 63, 0x436e0fc4e9eab26f},
	"star/bottomup":        {2719, 1495, 63, 0xcdf9eda01b0165af},
	"star/lca":             {18088, 7980, 194, 0x124847871034235f},
	"star/topdown":         {2719, 1495, 63, 0xe68e5d94041c18aa},
}

// renumberedTree deletes leaves of a random-attachment tree with the
// swap-last renumbering dynamic shards use (the last vertex takes the
// deleted id), so parents routinely get larger ids than their children:
// the rake-cascade case documented in treefix's contract.
func renumberedTree(n, deletes int, r *rng.RNG) *tree.Tree {
	parent := append([]int(nil), tree.RandomAttachment(n, r).Parents()...)
	for d := 0; d < deletes; d++ {
		m := len(parent)
		isParent := make([]bool, m)
		for _, p := range parent {
			if p >= 0 {
				isParent[p] = true
			}
		}
		var leaves []int
		for v := 0; v < m; v++ {
			if !isParent[v] && parent[v] != -1 {
				leaves = append(leaves, v)
			}
		}
		leaf, last := leaves[r.Intn(len(leaves))], m-1
		if leaf != last {
			parent[leaf] = parent[last]
			for v := range parent {
				if parent[v] == last {
					parent[v] = leaf
				}
			}
		}
		parent = parent[:m-1]
	}
	return tree.MustFromParents(parent)
}

func goldenTrees() map[string]*tree.Tree {
	return map[string]*tree.Tree{
		"random":      tree.RandomAttachment(600, rng.New(7)),
		"star":        tree.Star(300),
		"caterpillar": tree.Caterpillar(301),
		"renumbered":  renumberedTree(400, 100, rng.New(11)),
	}
}

func hashInts[T int | int64](h interface{ Write([]byte) (int, error) }, xs []T) {
	var b [8]byte
	for _, x := range xs {
		u := uint64(x)
		for i := range b {
			b[i] = byte(u >> (8 * i))
		}
		h.Write(b[:])
	}
}

func TestGoldenModelCosts(t *testing.T) {
	got := map[string]goldenCost{}
	record := func(name string, s *machine.Sim, outs ...[]int64) {
		h := fnv.New64a()
		for _, o := range outs {
			hashInts(h, o)
		}
		c := s.Cost()
		got[name] = goldenCost{c.Energy, c.Messages, c.Depth, h.Sum64()}
	}
	stats := func(st treefix.Stats) []int64 {
		return []int64{int64(st.Rounds), int64(st.CompressOps), int64(st.RakeOps), int64(st.RakedLeaves)}
	}

	for name, tr := range goldenTrees() {
		n := tr.N()
		if name == "renumbered" {
			inverted := false
			for v := 0; v < n; v++ {
				inverted = inverted || tr.Parent(v) > v
			}
			if !inverted {
				t.Fatal("renumbered tree has no parent with a larger id than its child")
			}
		}
		rank := lfRanks(tr)
		vals := make([]int64, n)
		for v := range vals {
			vals[v] = int64((v*37+11)%101) - 50
		}

		s := machine.New(n, sfc.Hilbert{})
		bu, st := treefix.BottomUp(s, tr, rank, vals, treefix.Add, rng.New(1))
		if want := treefix.SequentialBottomUp(tr, vals, treefix.Add); fmt.Sprint(bu) != fmt.Sprint(want) {
			t.Fatalf("%s: BottomUp disagrees with the oracle", name)
		}
		record(name+"/bottomup", s, bu, stats(st))

		s = machine.New(n, sfc.Hilbert{})
		td, st := treefix.TopDown(s, tr, rank, vals, treefix.Add, rng.New(2))
		if want := treefix.SequentialTopDown(tr, vals, treefix.Add); fmt.Sprint(td) != fmt.Sprint(want) {
			t.Fatalf("%s: TopDown disagrees with the oracle", name)
		}
		record(name+"/topdown", s, td, stats(st))

		s = machine.New(n, sfc.Hilbert{})
		bu, td, st = treefix.Both(s, tr, rank, vals, treefix.Max, rng.New(3))
		if want := treefix.SequentialBottomUp(tr, vals, treefix.Max); fmt.Sprint(bu) != fmt.Sprint(want) {
			t.Fatalf("%s: Both bottom-up disagrees with the oracle", name)
		}
		if want := treefix.SequentialTopDown(tr, vals, treefix.Max); fmt.Sprint(td) != fmt.Sprint(want) {
			t.Fatalf("%s: Both top-down disagrees with the oracle", name)
		}
		record(name+"/both", s, bu, td, stats(st))

		s = machine.New(n, sfc.Hilbert{})
		qs := disjointQueries(n, rng.New(4))
		ans, lst := Batched(s, tr, rank, qs, rng.New(5))
		o := NewOracle(tr)
		out := make([]int64, len(ans))
		for i, q := range qs {
			if want := o.LCA(q.U, q.V); ans[i] != want {
				t.Fatalf("%s: LCA(%d,%d) = %d, want %d", name, q.U, q.V, ans[i], want)
			}
			out[i] = int64(ans[i])
		}
		record(name+"/lca", s, out, stats(lst.Treefix),
			[]int64{int64(lst.Layers), int64(lst.AncestorAnswered), int64(lst.CoverAnswered)})
	}

	for _, c := range []sfc.Curve{sfc.Hilbert{}, sfc.Peano{}} {
		s := machine.New(1000, c)
		machine.Barrier(s)
		machine.Barrier(s)
		record("barrier/"+c.Name(), s)
	}

	for name, g := range got {
		want, ok := goldenCosts[name]
		if !ok {
			t.Errorf("%q: no golden entry; got %v", name, g)
			continue
		}
		if g != want {
			t.Errorf("%q: got %v, want %v", name, g, want)
		}
	}
	if len(got) != len(goldenCosts) {
		t.Errorf("ran %d calls, %d golden entries", len(got), len(goldenCosts))
	}
}
