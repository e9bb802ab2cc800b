package machine

// Foundational spatial collectives (Section II-A of the paper):
// broadcast, reduce and all-reduce take O(n) energy and O(log n) depth;
// parallel prefix sum takes O(n) energy and poly-logarithmic depth on a
// distance-bound curve. They are implemented as explicit message
// patterns so the simulator's measured costs are emergent.

// rankAt returns the rank of the processor at grid coordinates (x, y).
func (s *Sim) rankAt(x, y int) int { return int(s.at[y*s.side+x]) }

// ReduceGrid reduces the values held by all processors into the
// representative of the whole grid (the processor at (0,0)'s block
// corner) using a coordinate quadtree: at level k, the representatives of
// the four 2^k-side sub-blocks of each 2^{k+1}-side block send to the
// block representative. Energy Θ(n), depth Θ(log n) on any curve.
//
// vals is rank-indexed and is folded in place with op at the receiving
// representatives; the grand total ends at the returned root rank.
// The grid side must be a power of two (all pow-2 curves; use
// ReduceRange for arbitrary prefixes on distance-bound curves).
func ReduceGrid(s *Sim, vals []int64, op func(a, b int64) int64) (root int) {
	if len(vals) != s.procs {
		panic("machine: ReduceGrid needs one value per processor")
	}
	if s.side&(s.side-1) != 0 {
		panic("machine: ReduceGrid requires a power-of-two grid side")
	}
	for block := 2; block <= s.side; block *= 2 {
		half := block / 2
		for by := 0; by < s.side; by += block {
			for bx := 0; bx < s.side; bx += block {
				rep := s.rankAt(bx, by)
				for _, d := range [3][2]int{{half, 0}, {0, half}, {half, half}} {
					src := s.rankAt(bx+d[0], by+d[1])
					s.Send(src, rep)
					vals[rep] = op(vals[rep], vals[src])
				}
			}
		}
	}
	return s.rankAt(0, 0)
}

// BroadcastGrid delivers the value at the grid representative to every
// processor via the reverse quadtree. Energy Θ(n), depth Θ(log n).
func BroadcastGrid(s *Sim, vals []int64) {
	if len(vals) != s.procs {
		panic("machine: BroadcastGrid needs one value per processor")
	}
	if s.side&(s.side-1) != 0 {
		panic("machine: BroadcastGrid requires a power-of-two grid side")
	}
	for block := s.side; block >= 2; block /= 2 {
		half := block / 2
		for by := 0; by < s.side; by += block {
			for bx := 0; bx < s.side; bx += block {
				rep := s.rankAt(bx, by)
				for _, d := range [3][2]int{{half, 0}, {0, half}, {half, half}} {
					dst := s.rankAt(bx+d[0], by+d[1])
					s.Send(rep, dst)
					vals[dst] = vals[rep]
				}
			}
		}
	}
}

// AllReduceGrid folds all values with op and delivers the result to every
// processor (reduce followed by broadcast). Returns the folded value.
func AllReduceGrid(s *Sim, vals []int64, op func(a, b int64) int64) int64 {
	root := ReduceGrid(s, vals, op)
	BroadcastGrid(s, vals)
	return vals[root]
}

// Barrier synchronizes all processors with an all-reduce, the mechanism
// the paper's LCA algorithm uses between subtree-cover layers
// (Section VI-C). Costs Θ(n) energy and Θ(log n) depth. On grids whose
// side is not a power of two (Peano) it falls back to a reduce+broadcast
// along the curve range, which has the same bounds on distance-bound
// curves.
func Barrier(s *Sim) {
	if s.side&(s.side-1) == 0 {
		if s.zeros == nil {
			s.zeros = make([]int64, s.procs)
		}
		AllReduceGrid(s, s.zeros, func(a, b int64) int64 { return a + b })
		return
	}
	RangeReduce(s, 0, s.procs-1, func(int) int64 { return 0 },
		func(a, b int64) int64 { return a + b })
	RangeBroadcast(s, 0, s.procs-1, func(int) {})
}

// PrefixSum replaces vals[0:m] (rank-indexed along the curve) with its
// inclusive prefix sums under op, using the work-efficient recursive
// pairing scheme: combine adjacent pairs, recursively scan the pair
// sums, then fix up the even positions. On a distance-bound curve the
// level-k messages span 2^k curve positions and cost O(√(2^k)) each, so
// the total energy is O(m) and the depth O(log m). Works for any m.
func PrefixSum(s *Sim, vals []int64, op func(a, b int64) int64) {
	m := len(vals)
	ranks := make([]int, m)
	for i := range ranks {
		ranks[i] = i
	}
	scanRec(s, vals, ranks, op)
}

func scanRec(s *Sim, vals []int64, ranks []int, op func(a, b int64) int64) {
	m := len(ranks)
	if m <= 1 {
		return
	}
	comb := make([]int, 0, (m+1)/2)
	for i := 0; i+1 < m; i += 2 {
		s.Send(ranks[i], ranks[i+1])
		vals[ranks[i+1]] = op(vals[ranks[i]], vals[ranks[i+1]])
		comb = append(comb, ranks[i+1])
	}
	if m%2 == 1 {
		comb = append(comb, ranks[m-1])
	}
	scanRec(s, vals, comb, op)
	// Fix even positions (they missed the recursive prefixes). Position 0
	// is already its own inclusive prefix; an odd-m leftover was fixed by
	// the recursion.
	limit := m
	if m%2 == 1 {
		limit = m - 1
	}
	for i := 2; i < limit; i += 2 {
		s.Send(ranks[i-1], ranks[i])
		vals[ranks[i]] = op(vals[ranks[i-1]], vals[ranks[i]])
	}
}

// ExclusivePrefixSum computes exclusive prefix sums of vals[0:m] under
// addition: out[i] = Σ_{j<i} vals[j]. Each processor derives its
// exclusive value locally from the inclusive scan (no extra messages).
func ExclusivePrefixSum(s *Sim, vals []int64) {
	own := make([]int64, len(vals))
	copy(own, vals)
	PrefixSum(s, vals, func(a, b int64) int64 { return a + b })
	for i := range vals {
		vals[i] -= own[i]
	}
}

// RangeBroadcast delivers a message from the processor at curve rank lo
// to every rank in [lo, hi] along a virtual complete binary tree over the
// contiguous range, realizing Lemma 13: O(hi-lo) energy and
// O(log(hi-lo)) depth on a distance-bound curve. visit is called for
// every rank in delivery order (including lo itself) so callers can
// deposit the broadcast value.
func RangeBroadcast(s *Sim, lo, hi int, visit func(rank int)) {
	if lo > hi {
		return
	}
	visit(lo)
	var rec func(root, a, b int)
	rec = func(root, a, b int) {
		if a > b {
			return
		}
		mid := (a + b) / 2
		s.Send(root, mid)
		visit(mid)
		rec(mid, a, mid-1)
		rec(mid, mid+1, b)
	}
	rec(lo, lo+1, hi)
}

// RangeReduce folds the values at ranks [lo, hi] into rank lo along the
// reverse of RangeBroadcast's virtual tree: O(hi-lo) energy and
// O(log(hi-lo)) depth on a distance-bound curve. value(rank) supplies
// each processor's contribution; the folded result is returned (and
// conceptually held at lo).
func RangeReduce(s *Sim, lo, hi int, value func(rank int) int64, op func(a, b int64) int64) int64 {
	if lo > hi {
		panic("machine: empty RangeReduce")
	}
	var rec func(root, a, b int) (int64, bool)
	rec = func(root, a, b int) (int64, bool) {
		if a > b {
			return 0, false
		}
		mid := (a + b) / 2
		acc := value(mid)
		if l, ok := rec(mid, a, mid-1); ok {
			acc = op(acc, l)
		}
		if r, ok := rec(mid, mid+1, b); ok {
			acc = op(acc, r)
		}
		s.Send(mid, root)
		return acc, true
	}
	acc := value(lo)
	if sub, ok := rec(lo, lo+1, hi); ok {
		acc = op(acc, sub)
	}
	return acc
}
