package treefix

import (
	"sync"

	"spatialtree/internal/machine"
	"spatialtree/internal/rng"
	"spatialtree/internal/tree"
)

// This file implements the paper's spatial treefix algorithm
// (Section V): Las Vegas tree contraction with RAKE and COMPRESS over
// supervertices, followed by uncontraction.
//
// Supervertices are identified with their representative R(u) — the
// vertex closest to the root (Section V-A) — and each representative's
// processor holds the supervertex's partial sums. All algorithm state is
// O(1) words per processor: partial sums P (bottom-up) and P' (top-down
// spine fold), the A accumulators of the uncontraction, the supervertex
// parent pointer, and per-inactive-vertex undo words. The contraction
// log itself is distributed: every vertex becomes inactive at most once
// and stores only its own undo record (the role the paper's
// last_contracted / saved_state chains play).
//
// COMPRESS merges a viable supervertex v (only child of a non-branching
// parent, exactly one child itself) into its parent when v's random-mate
// coin is heads and the parent's is tails. RAKE folds all leaf children
// of a supervertex u into u when u has at most one non-leaf child.
// As in the paper, no global barrier separates rounds: every message is
// scheduled against per-processor clocks only, so the measured depth
// reflects the asynchronous execution the paper argues for
// (Section V-C).

// Stats reports what the contraction did.
type Stats struct {
	// Rounds is the number of COMPACT rounds until one supervertex
	// remained (O(log n) w.h.p., Lemma 11).
	Rounds int
	// CompressOps and RakeOps count contraction operations.
	CompressOps int
	// RakedLeaves counts leaves folded by all rakes combined.
	RakeOps     int
	RakedLeaves int
}

// undoKind discriminates the per-vertex undo records.
type undoKind uint8

const (
	undoNone undoKind = iota
	undoCompress
	undoRake
)

// undoRecord is the O(1)-word state an inactive vertex keeps so the
// uncontraction can replay its merge. For a compress, v stores the
// parent representative and the parent's pre-merge partial sums. For a
// rake, every raked leaf stores its parent representative and the
// parent's pre-rake P (the same value; conceptually only the group head
// needs it).
type undoRecord struct {
	kind  undoKind
	round int32
	u     int32 // parent representative at contraction time
	// pbuU / ptdU: parent's partial sums before the merge.
	pbuU, ptdU int64
}

// contraction holds the state of one spatial treefix run. Workspaces
// are pooled (getContraction): every slice is resized, never
// reallocated, across runs, so a warmed run allocates only its results.
type contraction struct {
	t    *tree.Tree
	s    *machine.Sim
	rank []int
	op   Op

	active   []bool
	coin     []bool
	leafNow  []bool  // step-4 leaf snapshot driving the rakes
	svp      []int   // supervertex parent representative (-1 for root sv)
	kids     []int   // flat copy of the tree's CSR child list
	children [][]int // supervertex child representatives: views into kids
	live     []int   // active supervertices
	pbu, ptd []int64
	abu, atd []int64 // uncontraction accumulators A and A'
	undo     []undoRecord
	// log lists the deactivated vertices in deactivation order, and
	// roundEnd[i] is the end offset in log of round i+1's entries (the
	// order drives the uncontraction).
	log      []int
	roundEnd []int
	// tasks and nextTasks are infoPhase's wave buffers (they ping-pong);
	// pairs collects the messages of one oblivious batch.
	tasks, nextTasks []task
	pairs            [][2]int

	stats Stats
}

// task is one infoPhase forwarding step: sender notifies list.
type task struct {
	sender int
	list   []int
}

var contractions sync.Pool

// getContraction lends a workspace holding the initial contraction
// state of t with values vals; return it with putContraction after the
// last read.
func getContraction(t *tree.Tree, vals []int64) *contraction {
	c, ok := contractions.Get().(*contraction)
	if !ok {
		c = new(contraction)
	}
	n := t.N()
	c.t = t
	c.active = resize(c.active, n)
	c.coin = resize(c.coin, n)
	c.leafNow = resize(c.leafNow, n)
	c.svp = resize(c.svp, n)
	c.kids = resize(c.kids, n-1)
	c.children = resize(c.children, n)
	c.pbu = resize(c.pbu, n)
	c.ptd = resize(c.ptd, n)
	c.abu = resize(c.abu, n)
	c.atd = resize(c.atd, n)
	c.undo = resize(c.undo, n)
	c.log, c.roundEnd = c.log[:0], c.roundEnd[:0]
	c.stats = Stats{}
	off := 0
	for v := 0; v < n; v++ {
		k := copy(c.kids[off:], t.Children(v))
		c.children[v] = c.kids[off : off+k : off+k]
		off += k
		c.active[v] = true
		c.svp[v] = t.Parent(v)
		c.pbu[v] = vals[v]
		c.ptd[v] = vals[v]
	}
	return c
}

// putContraction returns a workspace to the pool, dropping its
// references to the caller's tree, simulator and operator.
func putContraction(c *contraction) {
	c.t, c.s, c.rank, c.op = nil, nil, nil, Op{}
	contractions.Put(c)
}

// resize returns s with length n, reusing its array when it is large
// enough. Contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// BottomUp runs the spatial treefix sum: out[v] = op over the values of
// v's descendants. rank maps vertices to processor ranks (the tree's
// placement; use the light-first layout for the paper's bounds). The
// random-mate coins come from r.
func BottomUp(s *machine.Sim, t *tree.Tree, rank []int, vals []int64, op Op, r *rng.RNG) ([]int64, Stats) {
	bu, _, st := run(s, t, rank, vals, op, r, true, false)
	return bu, st
}

// TopDown runs the spatial top-down treefix (Section V-D): out[v] = op
// along the root-to-v path.
func TopDown(s *machine.Sim, t *tree.Tree, rank []int, vals []int64, op Op, r *rng.RNG) ([]int64, Stats) {
	_, td, st := run(s, t, rank, vals, op, r, false, true)
	return td, st
}

// Both runs one contraction and extracts both treefix directions from
// it; the two results share all structural messages.
func Both(s *machine.Sim, t *tree.Tree, rank []int, vals []int64, op Op, r *rng.RNG) (bottomUp, topDown []int64, st Stats) {
	return run(s, t, rank, vals, op, r, true, true)
}

func run(s *machine.Sim, t *tree.Tree, rank []int, vals []int64, op Op, r *rng.RNG, wantBU, wantTD bool) ([]int64, []int64, Stats) {
	n := t.N()
	if n == 0 {
		return nil, nil, Stats{}
	}
	if len(rank) != n || len(vals) != n {
		panic("treefix: rank/vals length mismatch")
	}
	c := getContraction(t, vals)
	c.s, c.rank, c.op = s, rank, op
	c.contract(r)
	c.uncontract()

	var bu, td []int64
	if wantBU {
		bu = make([]int64, n)
		for v := 0; v < n; v++ {
			bu[v] = op.Combine(c.pbu[v], c.abu[v])
		}
	}
	if wantTD {
		td = make([]int64, n)
		for v := 0; v < n; v++ {
			td[v] = op.Combine(c.atd[v], vals[v])
		}
	}
	st := c.stats
	putContraction(c)
	return bu, td, st
}

// infoPhase charges the messages of one parent-to-children notification
// over the supervertex tree: every supervertex delivers O(1) words to
// each child via binary splitting of its child list (the local-messaging
// discipline of Theorem 3, O(log deg) depth). All supervertices notify
// simultaneously, so the sends are issued in waves — wave k across all
// supervertices forms one oblivious batch; only the forwarding within a
// child list creates genuine dependencies. The information itself
// (branching bit, coin) is read from shared state.
func (c *contraction) infoPhase(svs []int) {
	cur, next := c.tasks[:0], c.nextTasks[:0]
	for _, u := range svs {
		if len(c.children[u]) > 0 {
			cur = append(cur, task{u, c.children[u]})
		}
	}
	for len(cur) > 0 {
		pairs := c.pairs[:0]
		next = next[:0]
		for _, tk := range cur {
			l := tk.list
			pairs = append(pairs, [2]int{c.rank[tk.sender], c.rank[l[0]]})
			if len(l) > 1 {
				m := len(l) / 2
				pairs = append(pairs, [2]int{c.rank[tk.sender], c.rank[l[m]]})
				if m > 1 {
					next = append(next, task{l[0], l[1:m]})
				}
				if m+1 < len(l) {
					next = append(next, task{l[m], l[m+1:]})
				}
			}
		}
		c.s.SendBatch(pairs)
		c.pairs = pairs
		cur, next = next, cur
	}
	c.tasks, c.nextTasks = cur, next
}

// sendBatch charges the given messages as one oblivious batch through
// the reused pairs buffer.
func (c *contraction) sendBatch(pairs ...[2]int) {
	c.pairs = append(c.pairs[:0], pairs...)
	c.s.SendBatch(c.pairs)
}

// splitCast charges a binary fan-out from u over list.
func (c *contraction) splitCast(u int, list []int) {
	if len(list) == 0 {
		return
	}
	c.s.Send(c.rank[u], c.rank[list[0]])
	if len(list) > 1 {
		m := len(list) / 2
		c.s.Send(c.rank[u], c.rank[list[m]])
		c.splitCast(list[0], list[1:m])
		c.splitCast(list[m], list[m+1:])
	}
}

// splitReduce charges a binary fan-in from the non-empty list into
// owner and returns the op-fold of the list's bottom-up partial sums.
func (c *contraction) splitReduce(owner int, l []int) int64 {
	acc := c.pbu[l[0]]
	if len(l) > 1 {
		m := len(l) / 2
		if m > 1 {
			acc = c.op.Combine(acc, c.splitReduce(l[0], l[1:m]))
		}
		sub := c.pbu[l[m]]
		if m+1 < len(l) {
			sub = c.op.Combine(sub, c.splitReduce(l[m], l[m+1:]))
		}
		c.s.Send(c.rank[l[m]], c.rank[l[0]])
		acc = c.op.Combine(acc, sub)
	}
	c.s.Send(c.rank[l[0]], c.rank[owner])
	return acc
}

// contract runs COMPACT rounds until one supervertex remains.
//
// The deactivation log it writes has two invariants the uncontraction
// relies on. Within a round, every compress is logged before every
// rake (steps 3 and 5). And each parent rakes at most once per round,
// logging all its leaves together, so each rake group is a contiguous
// run of entries sharing undo.u.
func (c *contraction) contract(r *rng.RNG) {
	n := c.t.N()
	live := c.live[:0]
	for v := 0; v < n; v++ {
		live = append(live, v)
	}
	for len(live) > 1 {
		c.stats.Rounds++
		round := int32(c.stats.Rounds)

		// Step 1+2 of COMPACT: coins and branching notification.
		for _, v := range live {
			c.coin[v] = r.Bool()
		}
		c.infoPhase(live)

		// Step 3: compress the random-mate independent set.
		for _, v := range live {
			u := c.svp[v]
			if u == -1 || len(c.children[v]) != 1 {
				continue
			}
			if len(c.children[u]) != 1 {
				continue // parent branching
			}
			if !c.coin[v] || c.coin[u] {
				continue
			}
			w := c.children[v][0]
			// v ships its partial sums up; u ships its pre-merge sums
			// down for v's undo record; v points w at its new parent.
			c.sendBatch(
				[2]int{c.rank[v], c.rank[u]},
				[2]int{c.rank[u], c.rank[v]},
				[2]int{c.rank[v], c.rank[w]},
			)
			c.undo[v] = undoRecord{kind: undoCompress, round: round, u: int32(u), pbuU: c.pbu[u], ptdU: c.ptd[u]}
			c.pbu[u] = c.op.Combine(c.pbu[u], c.pbu[v])
			c.ptd[u] = c.op.Combine(c.ptd[u], c.ptd[v])
			c.children[u][0] = w
			c.svp[w] = u
			c.active[v] = false
			c.log = append(c.log, v)
			c.stats.CompressOps++
		}

		// Step 4: refresh leaf knowledge (second notification phase).
		live = c.keepActive(live)
		c.infoPhase(live)

		// Step 5: rake. u may rake all its leaf children when at most
		// one non-leaf child remains. Leaf status is the snapshot the
		// step-4 notification delivered: a vertex whose children were
		// raked away earlier in this same pass is not yet known to its
		// parent as a leaf, so it cannot cascade into a second rake
		// this round. (Cascading is not just unfaithful to the message
		// discipline — it corrupts the undo log: the intermediate's
		// partial sum would be restored by its own group's undo before
		// its parent's undo reads it, silently dropping the raked
		// values. Reachable only when a parent's id exceeds a child's,
		// which delete-renumbered dynamic trees produce routinely.)
		for _, v := range live {
			c.leafNow[v] = len(c.children[v]) == 0
		}
		for _, u := range live {
			if !c.active[u] || len(c.children[u]) == 0 {
				continue
			}
			ch := c.children[u]
			kept, leaves := -1, 0
			for _, v := range ch {
				if c.leafNow[v] {
					leaves++
				} else if kept == -1 {
					kept = v
				} else {
					kept = -2 // two non-leaf children: no rake
					break
				}
			}
			if leaves == 0 || kept == -2 {
				continue
			}
			// Partition ch in place: the leaves keep their order at the
			// front and the kept child, if any, moves behind them.
			j := 0
			for _, v := range ch {
				if c.leafNow[v] {
					ch[j] = v
					j++
				}
			}
			if kept >= 0 {
				ch[j] = kept
			}
			// Leaves fold their P into u (local reduce, Section V-A.2).
			sum := c.splitReduce(u, ch[:j])
			preBU, preTD := c.pbu[u], c.ptd[u]
			c.pbu[u] = c.op.Combine(c.pbu[u], sum)
			// Top-down P is the spine fold; rakes do not extend the
			// spine, so ptd[u] is untouched.
			for _, v := range ch[:j] {
				c.undo[v] = undoRecord{kind: undoRake, round: round, u: int32(u), pbuU: preBU, ptdU: preTD}
				c.active[v] = false
				c.log = append(c.log, v)
			}
			c.children[u] = ch[j:]
			c.stats.RakeOps++
			c.stats.RakedLeaves += j
		}
		live = c.keepActive(live)
		c.roundEnd = append(c.roundEnd, len(c.log))
	}
	c.live = live
}

// keepActive compacts list in place to its still-active vertices.
func (c *contraction) keepActive(list []int) []int {
	kept := list[:0]
	for _, v := range list {
		if c.active[v] {
			kept = append(kept, v)
		}
	}
	return kept
}

// uncontract replays the contraction backwards, maintaining the paper's
// invariants: for bottom-up, sum(u) = P_u ⊕ A_u where A_u folds the
// values below u's current supervertex; for top-down, sum'(u) =
// A'_u ⊕ val(u) where A'_u folds the values strictly above u's
// supervertex spine.
func (c *contraction) uncontract() {
	for v := range c.abu {
		c.abu[v] = c.op.Identity
		c.atd[v] = c.op.Identity
	}
	abu, atd := c.abu, c.atd
	for round := len(c.roundEnd) - 1; round >= 0; round-- {
		start := 0
		if round > 0 {
			start = c.roundEnd[round-1]
		}
		batch := c.log[start:c.roundEnd[round]]
		// By the log's invariants (see contract), the round's
		// compresses are a prefix and its rakes are contiguous
		// per-parent groups after it.
		k := 0
		for k < len(batch) && c.undo[batch[k]].kind == undoCompress {
			k++
		}
		compresses, rakes := batch[:k], batch[k:]
		// Undo rakes first (they were applied after the compresses in
		// the forward round), then compresses. Each group is undone
		// with one broadcast + one reduce over the group (O(log k)
		// depth, as in the forward direction).
		for len(rakes) > 0 {
			u := c.undo[rakes[0]].u
			g := 1
			for g < len(rakes) && c.undo[rakes[g]].u == u {
				g++
			}
			leaves := rakes[:g]
			rakes = rakes[g:]
			// u rebroadcasts its A' and spine fold to the raked leaves
			// (paper: a local broadcast omitting the kept child), and
			// the group refolds its retained P values back into A_u —
			// avoiding inverses, as the leaves kept their P.
			c.splitCast(int(u), leaves)
			for _, v := range leaves {
				atd[v] = c.op.Combine(atd[u], c.ptd[u])
			}
			sum := c.splitReduce(int(u), leaves)
			abu[u] = c.op.Combine(abu[u], sum)
			c.pbu[u] = c.undo[leaves[0]].pbuU
		}
		for i := len(compresses) - 1; i >= 0; i-- {
			v := compresses[i]
			rec := &c.undo[v]
			u := int(rec.u)
			c.sendBatch([2]int{c.rank[u], c.rank[v]}, [2]int{c.rank[v], c.rank[u]})
			abu[v] = abu[u]
			abu[u] = c.op.Combine(abu[u], c.pbu[v])
			atd[v] = c.op.Combine(atd[u], rec.ptdU)
			c.pbu[u] = rec.pbuU
			c.ptd[u] = rec.ptdU
		}
	}
}
