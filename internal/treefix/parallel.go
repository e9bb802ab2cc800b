package treefix

import (
	"errors"
	"fmt"
	"sync"

	"spatialtree/internal/par"
	"spatialtree/internal/tree"
)

// ErrUnsupportedOp reports an operator the goroutine-parallel Engine
// cannot execute (no Combine function). Before the op generalization the
// engine silently computed + whatever the caller asked for; now a
// malformed operator is a typed error instead of wrong sums.
var ErrUnsupportedOp = errors.New("treefix: operator not executable by the parallel engine")

// ErrInvalid marks caller mistakes — a request the engine rejects on
// its face (unknown operator name, vals length mismatch) rather than an
// execution failure. The serving layer maps it to HTTP 400 / wire
// status invalid, the same contract as engine.ErrInvalid.
var ErrInvalid = errors.New("treefix: invalid request")

type invalidError struct{ error }

func (e invalidError) Is(target error) bool { return target == ErrInvalid }
func (e invalidError) Unwrap() error        { return e.error }

// invalid classifies err as a caller mistake (errors.Is(..., ErrInvalid)
// holds) while preserving its message verbatim.
func invalid(err error) error { return invalidError{err} }

// Engine is the goroutine-parallel treefix executor: the native serving
// backend's treefix kernel (and the wall-clock arm of experiment E12).
// It precomputes the Euler tour positions and the preorder of the tree
// once (the paper amortizes layout/preprocessing across iterations,
// Section I-D) and then answers bottom-up and top-down treefix sums.
//
// BottomUp and TopDown accept any registered operator and dispatch on
// its capabilities: invertible operators (add, xor) run as parallel
// prefix-scan differences over the edge tour; any other operator (max,
// min, or one with no declared capability) runs as one O(n) pass over
// the preorder — children fold into parents in reverse preorder, and
// root-path folds extend the parent's in preorder. The *Sum methods
// remain the specialized + fast paths.
type Engine struct {
	t *tree.Tree
	// downPos[v], upPos[v]: positions of v's down/up edge in the Euler
	// edge tour (root: virtual positions -1 and 2(n-1)).
	downPos, upPos []int32
	// pre lists the vertices in the tour DFS's preorder: every parent
	// precedes its children.
	pre     []int32
	workers int
	// scratch recycles the 2(n-1)+1-sized tour contribution arrays the
	// prefix-scan kernels build per call: on the serving hot path these
	// were the engine's dominant per-request allocation (256 KiB per
	// treefix call at n = 2^14). Contents of a pooled array are stale —
	// every kernel fills (zero or identity) before scattering.
	scratch sync.Pool
}

// getContrib returns a scratch array of the given length with
// unspecified contents; return it with putContrib after the last read.
func (e *Engine) getContrib(size int) []int64 {
	if p, ok := e.scratch.Get().(*[]int64); ok && cap(*p) >= size {
		return (*p)[:size]
	}
	return make([]int64, size)
}

// getContribZero is getContrib with the array zero-filled.
func (e *Engine) getContribZero(size int) []int64 {
	s := e.getContrib(size)
	par.For(size, e.workers, func(lo, hi int) {
		clear(s[lo:hi])
	})
	return s
}

func (e *Engine) putContrib(s []int64) { e.scratch.Put(&s) }

// NewEngine builds the tour positions and the preorder with a host DFS.
func NewEngine(t *tree.Tree, workers int) *Engine {
	n := t.N()
	e := &Engine{
		t:       t,
		downPos: make([]int32, n),
		upPos:   make([]int32, n),
		pre:     make([]int32, 0, n),
		workers: workers,
	}
	if n == 0 {
		return e
	}
	pos := int32(0)
	root := t.Root()
	e.downPos[root] = -1
	e.upPos[root] = int32(2 * (n - 1))
	e.pre = append(e.pre, int32(root))
	type frame struct {
		v    int
		next int
	}
	stack := []frame{{root, 0}}
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		ch := t.Children(f.v)
		if f.next < len(ch) {
			c := ch[f.next]
			f.next++
			e.downPos[c] = pos
			pos++
			e.pre = append(e.pre, int32(c))
			stack = append(stack, frame{c, 0})
			continue
		}
		if f.v != root {
			e.upPos[f.v] = pos
			pos++
		}
		stack = stack[:len(stack)-1]
	}
	return e
}

// BottomUpSum returns the subtree sums of vals under + using parallel
// prefix sums over the Euler tour: the down edges of v's subtree occupy
// the contiguous tour range (downPos[v], upPos[v]), so the subtree sum is
// a prefix-sum difference plus v's own value... realized by scattering
// each non-root vertex's value to its down-edge position.
func (e *Engine) BottomUpSum(vals []int64) []int64 {
	n := e.t.N()
	out := make([]int64, n)
	if n == 0 {
		return out
	}
	if n == 1 {
		out[0] = vals[0]
		return out
	}
	L := 2 * (n - 1)
	contrib := e.getContribZero(L + 1) // shifted by one: prefix[0] = 0
	root := e.t.Root()
	par.For(n, e.workers, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			if v != root {
				contrib[e.downPos[v]+1] = vals[v]
			}
		}
	})
	par.PrefixSumInt64(contrib, e.workers)
	par.For(n, e.workers, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			// Down edges inside v's subtree span positions
			// [downPos[v]+1, upPos[v]-1]; with the +1 shift the sum is
			// contrib[upPos[v]] - contrib[downPos[v]+1] plus v's value.
			out[v] = vals[v] + contrib[e.upPos[v]] - contrib[e.downPos[v]+1]
		}
	})
	e.putContrib(contrib)
	return out
}

// BottomUp returns the subtree folds of vals under op. op must be
// commutative (as everywhere in this package); a nil Combine or a vals
// slice of the wrong length returns an error (wrapping ErrUnsupportedOp
// for the former) instead of wrong sums.
//
//spatialvet:errclass
func (e *Engine) BottomUp(vals []int64, op Op) ([]int64, error) {
	n := e.t.N()
	if len(vals) != n {
		return nil, invalid(fmt.Errorf("treefix: vals has %d entries for %d vertices", len(vals), n))
	}
	switch {
	case op.Combine == nil:
		return nil, fmt.Errorf("%w: op %q has no Combine", ErrUnsupportedOp, op.Name)
	case op.Name == Add.Name:
		return e.BottomUpSum(vals), nil
	case op.Invert != nil:
		return e.bottomUpInvertible(vals, op), nil
	default:
		return e.bottomUpFold(vals, op), nil
	}
}

// TopDown returns the root-path folds of vals under op (associative;
// folded in root-to-vertex order). Same error contract as BottomUp.
//
//spatialvet:errclass
func (e *Engine) TopDown(vals []int64, op Op) ([]int64, error) {
	n := e.t.N()
	if len(vals) != n {
		return nil, invalid(fmt.Errorf("treefix: vals has %d entries for %d vertices", len(vals), n))
	}
	switch {
	case op.Combine == nil:
		return nil, fmt.Errorf("%w: op %q has no Combine", ErrUnsupportedOp, op.Name)
	case op.Name == Add.Name:
		return e.TopDownSum(vals), nil
	case op.Invert != nil:
		return e.topDownInvertible(vals, op), nil
	default:
		return e.topDownFold(vals, op), nil
	}
}

// bottomUpInvertible generalizes BottomUpSum to any group operator: the
// down edges of v's subtree occupy a contiguous tour range, so the
// subtree fold is prefix(upPos[v]) ⊕ Invert(prefix(downPos[v]+1]) —
// exactly the prefix-sum difference, spelled with Combine/Invert.
func (e *Engine) bottomUpInvertible(vals []int64, op Op) []int64 {
	n := e.t.N()
	out := make([]int64, n)
	if n == 0 {
		return out
	}
	if n == 1 {
		out[0] = vals[0]
		return out
	}
	L := 2 * (n - 1)
	contrib := e.getContrib(L + 1) // shifted by one: prefix[0] = Identity
	root := e.t.Root()
	par.For(L+1, e.workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			contrib[i] = op.Identity
		}
	})
	par.For(n, e.workers, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			if v != root {
				contrib[e.downPos[v]+1] = vals[v]
			}
		}
	})
	par.ScanInt64(contrib, op.Identity, op.Combine, e.workers)
	par.For(n, e.workers, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			below := op.Combine(contrib[e.upPos[v]], op.Invert(contrib[e.downPos[v]+1]))
			out[v] = op.Combine(vals[v], below)
		}
	})
	e.putContrib(contrib)
	return out
}

// bottomUpFold answers subtree folds of any commutative operator with
// one pass in reverse preorder: a vertex's fold is complete before it
// is folded into its parent's. O(n) work, no scratch.
func (e *Engine) bottomUpFold(vals []int64, op Op) []int64 {
	out := make([]int64, len(vals))
	copy(out, vals)
	for i := len(e.pre) - 1; i > 0; i-- {
		v := e.pre[i]
		p := e.t.Parent(int(v))
		out[p] = op.Combine(out[p], out[v])
	}
	return out
}

// topDownInvertible generalizes TopDownSum: each vertex deposits its
// value at its down edge and the inverse at its up edge, so the scan
// prefix at downPos[v] is exactly the fold over v's root path below the
// root (entering a subtree adds the value, leaving cancels it).
func (e *Engine) topDownInvertible(vals []int64, op Op) []int64 {
	n := e.t.N()
	out := make([]int64, n)
	if n == 0 {
		return out
	}
	root := e.t.Root()
	if n == 1 {
		out[root] = vals[root]
		return out
	}
	L := 2 * (n - 1)
	contrib := e.getContrib(L)
	par.For(L, e.workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			contrib[i] = op.Identity
		}
	})
	par.For(n, e.workers, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			if v != root {
				contrib[e.downPos[v]] = vals[v]
				contrib[e.upPos[v]] = op.Invert(vals[v])
			}
		}
	})
	par.ScanInt64(contrib, op.Identity, op.Combine, e.workers)
	par.For(n, e.workers, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			if v == root {
				out[v] = vals[root]
			} else {
				out[v] = op.Combine(vals[root], contrib[e.downPos[v]])
			}
		}
	})
	e.putContrib(contrib)
	return out
}

// topDownFold computes root-path folds for any associative operator
// with one pass in preorder: a vertex's parent is final before the
// vertex extends it. O(n) work, no scratch.
func (e *Engine) topDownFold(vals []int64, op Op) []int64 {
	out := make([]int64, len(vals))
	for _, v := range e.pre {
		if p := e.t.Parent(int(v)); p == -1 {
			out[v] = vals[v]
		} else {
			out[v] = op.Combine(out[p], vals[v])
		}
	}
	return out
}

// TopDownSum returns the root-path sums of vals under +: each vertex's
// down edge contributes +val, its up edge -val, and the prefix at
// downPos[v] (inclusive) plus the root's value is the path sum.
func (e *Engine) TopDownSum(vals []int64) []int64 {
	n := e.t.N()
	out := make([]int64, n)
	if n == 0 {
		return out
	}
	root := e.t.Root()
	if n == 1 {
		out[root] = vals[root]
		return out
	}
	L := 2 * (n - 1)
	contrib := e.getContribZero(L)
	par.For(n, e.workers, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			if v != root {
				contrib[e.downPos[v]] += vals[v]
				contrib[e.upPos[v]] -= vals[v]
			}
		}
	})
	par.PrefixSumInt64(contrib, e.workers)
	par.For(n, e.workers, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			if v == root {
				out[v] = vals[root]
			} else {
				out[v] = vals[root] + contrib[e.downPos[v]]
			}
		}
	})
	e.putContrib(contrib)
	return out
}
