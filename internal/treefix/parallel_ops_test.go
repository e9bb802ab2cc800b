package treefix

import (
	"errors"
	"testing"

	"spatialtree/internal/rng"
	"spatialtree/internal/tree"
)

// opsTestTrees yields the shapes that stress each dispatch path: deep
// paths (long preorder chains), stars (wide rake groups), random
// attachment (mixed), bounded degree, and delete-renumbered id orders
// (parent ids above child ids).
func opsTestTrees(t *testing.T, n int, seed uint64) []*tree.Tree {
	t.Helper()
	r := rng.New(seed)
	path := make([]int, n)
	for i := range path {
		path[i] = i - 1
	}
	star := make([]int, n)
	star[0] = -1
	perm := r.Perm(n) // relabeled random tree: parents may exceed children
	inv := make([]int, n)
	for i, p := range perm {
		inv[p] = i
	}
	base := tree.RandomAttachment(n, r)
	relabeled := make([]int, n)
	for v := 0; v < n; v++ {
		if p := base.Parent(v); p == -1 {
			relabeled[perm[v]] = -1
		} else {
			relabeled[perm[v]] = perm[p]
		}
	}
	return []*tree.Tree{
		tree.MustFromParents(path),
		tree.MustFromParents(star),
		tree.RandomAttachment(n, rng.New(seed+1)),
		tree.RandomBoundedDegree(n, 2, rng.New(seed+2)),
		tree.MustFromParents(relabeled),
	}
}

func TestEngineGeneralOps(t *testing.T) {
	ops := []Op{Add, Max, Min, Xor}
	for _, n := range []int{1, 2, 7, 64, 513} {
		for ti, tr := range opsTestTrees(t, n, uint64(n)) {
			vals := make([]int64, n)
			r := rng.New(uint64(ti + n))
			for i := range vals {
				vals[i] = int64(r.Intn(2001)) - 1000
			}
			for _, workers := range []int{1, 4} {
				e := NewEngine(tr, workers)
				for _, op := range ops {
					gotBU, err := e.BottomUp(vals, op)
					if err != nil {
						t.Fatal(err)
					}
					wantBU := SequentialBottomUp(tr, vals, op)
					gotTD, err := e.TopDown(vals, op)
					if err != nil {
						t.Fatal(err)
					}
					wantTD := SequentialTopDown(tr, vals, op)
					for v := 0; v < n; v++ {
						if gotBU[v] != wantBU[v] {
							t.Fatalf("n=%d tree=%d w=%d op=%s: bottom-up[%d] = %d, want %d",
								n, ti, workers, op.Name, v, gotBU[v], wantBU[v])
						}
						if gotTD[v] != wantTD[v] {
							t.Fatalf("n=%d tree=%d w=%d op=%s: top-down[%d] = %d, want %d",
								n, ti, workers, op.Name, v, gotTD[v], wantTD[v])
						}
					}
				}
			}
		}
	}
}

// TestEngineNonCapabilityOp exercises the fallback paths: a commutative
// operator with neither Invert nor Idempotent set must still compute
// correct folds (both directions through the preorder passes).
func TestEngineNonCapabilityOp(t *testing.T) {
	// Saturating add: commutative and associative, not a group, not
	// idempotent.
	sat := Op{Name: "satadd", Identity: 0, Combine: func(a, b int64) int64 {
		s := a + b
		if s > 1000 {
			return 1000
		}
		return s
	}}
	tr := tree.RandomAttachment(257, rng.New(5))
	vals := make([]int64, tr.N())
	r := rng.New(6)
	for i := range vals {
		vals[i] = int64(r.Intn(90))
	}
	e := NewEngine(tr, 4)
	gotBU, err := e.BottomUp(vals, sat)
	if err != nil {
		t.Fatal(err)
	}
	gotTD, err := e.TopDown(vals, sat)
	if err != nil {
		t.Fatal(err)
	}
	wantBU := SequentialBottomUp(tr, vals, sat)
	wantTD := SequentialTopDown(tr, vals, sat)
	for v := 0; v < tr.N(); v++ {
		if gotBU[v] != wantBU[v] || gotTD[v] != wantTD[v] {
			t.Fatalf("vertex %d: got (%d, %d), want (%d, %d)", v, gotBU[v], gotTD[v], wantBU[v], wantTD[v])
		}
	}
}

// TestEngineUnsupportedOp pins the doc/behavior fix: an operator the
// engine cannot execute is a typed error, never a silent + sum.
func TestEngineUnsupportedOp(t *testing.T) {
	tr := tree.RandomAttachment(16, rng.New(7))
	e := NewEngine(tr, 2)
	vals := make([]int64, tr.N())
	if _, err := e.BottomUp(vals, Op{Name: "broken"}); !errors.Is(err, ErrUnsupportedOp) {
		t.Fatalf("bottom-up with nil Combine: err = %v, want ErrUnsupportedOp", err)
	}
	if _, err := e.TopDown(vals, Op{Name: "broken"}); !errors.Is(err, ErrUnsupportedOp) {
		t.Fatalf("top-down with nil Combine: err = %v, want ErrUnsupportedOp", err)
	}
	if _, err := e.BottomUp(vals[:4], Add); err == nil {
		t.Fatal("bottom-up with short vals: err = nil, want length error")
	}
	if _, err := e.TopDown(vals[:4], Add); err == nil {
		t.Fatal("top-down with short vals: err = nil, want length error")
	}
}

// TestOpCapabilities pins the registered operators' capability claims,
// which the parallel dispatch relies on for correctness.
func TestOpCapabilities(t *testing.T) {
	r := rng.New(8)
	for i := 0; i < 1000; i++ {
		x := int64(r.Intn(1 << 20))
		if got := Add.Combine(x, Add.Invert(x)); got != Add.Identity {
			t.Fatalf("add: x + (-x) = %d", got)
		}
		if got := Xor.Combine(x, Xor.Invert(x)); got != Xor.Identity {
			t.Fatalf("xor: x ^ x = %d", got)
		}
		if Max.Combine(x, x) != x || Min.Combine(x, x) != x {
			t.Fatal("max/min not idempotent")
		}
	}
	if !Max.Idempotent || !Min.Idempotent || Add.Invert == nil || Xor.Invert == nil {
		t.Fatal("capability fields missing on registered ops")
	}
}
