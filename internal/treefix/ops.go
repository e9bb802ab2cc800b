// Package treefix implements the paper's treefix sum algorithms
// (Section V): given a rooted tree with a value per vertex, compute for
// every vertex the fold of the values in its subtree (bottom-up treefix)
// or along its root path (top-down treefix, Section V-D), under any
// associative operator.
//
// Three executors share the same semantics:
//
//   - SequentialBottomUp / SequentialTopDown: host oracles.
//   - BottomUp / TopDown / Both: the paper's Las Vegas rake-and-compress
//     supervertex contraction on the spatial computer simulator, with
//     O(1) algorithm state per processor and every message charged
//     (Lemmas 10-12: O(n log n) energy; O(log n) depth for bounded
//     degree, O(log² n) otherwise, with high probability).
//   - Engine.BottomUp / TopDown: the native serving backend's treefix
//     kernel under any registered operator (parallel Euler-tour scans
//     for invertible operators, one preorder pass otherwise).
//     BottomUpSum / TopDownSum remain the specialized + fast paths.
package treefix

import "fmt"

// Op is the associative operator of a treefix sum. Bottom-up treefix
// folds children in unspecified order, so Combine must be commutative
// (the paper's examples: sum, maximum). Identity must satisfy
// Combine(Identity, x) == x.
//
// The optional capability fields describe the operator. Invert drives
// the goroutine-parallel Engine's dispatch: an invertible operator (a
// group, like add or xor) is executed as a prefix-scan difference over
// the Euler tour, any other one as a single pass over the preorder. The
// spatial-simulator executors ignore both fields — contraction only
// needs Combine.
type Op struct {
	Name     string
	Identity int64
	Combine  func(a, b int64) int64
	// Invert, when non-nil, returns the group inverse of x under
	// Combine: Combine(x, Invert(x)) == Identity. Only meaningful for
	// commutative operators.
	Invert func(x int64) int64
	// Idempotent reports Combine(x, x) == x.
	Idempotent bool
}

// Add is the + operator (the paper's subtree-size and prefix use cases).
var Add = Op{Name: "add", Identity: 0,
	Combine: func(a, b int64) int64 { return a + b },
	Invert:  func(x int64) int64 { return -x },
}

// Max folds to the maximum value.
var Max = Op{Name: "max", Identity: -1 << 62, Idempotent: true, Combine: func(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}}

// Min folds to the minimum value.
var Min = Op{Name: "min", Identity: 1 << 62, Idempotent: true, Combine: func(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}}

// Xor folds with exclusive-or; useful in tests because it is its own
// inverse.
var Xor = Op{Name: "xor", Identity: 0,
	Combine: func(a, b int64) int64 { return a ^ b },
	Invert:  func(x int64) int64 { return x },
}

// OpByName returns a registered operator. An unknown name is a caller
// mistake: the error satisfies errors.Is(err, ErrInvalid) so the
// serving layer can map it to HTTP 400 / wire status invalid.
//
//spatialvet:errclass
func OpByName(name string) (Op, error) {
	switch name {
	case "add":
		return Add, nil
	case "max":
		return Max, nil
	case "min":
		return Min, nil
	case "xor":
		return Xor, nil
	}
	return Op{}, invalid(fmt.Errorf("treefix: unknown op %q", name))
}
