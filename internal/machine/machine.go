// Package machine simulates the spatial computer model of Gianinazzi et
// al. that the paper analyzes its algorithms in (Section II-A): a
// √n × √n grid of processors with O(1) words of memory each, where
// sending a message between processors costs energy equal to their
// Manhattan distance, and the depth of a computation is the longest chain
// of dependent messages (with each processor able to send and receive a
// constant number of messages per time step).
//
// The simulator is a cost recorder: algorithms perform their actual data
// manipulation on host slices indexed by processor rank (respecting the
// O(1)-words-per-processor discipline) and report every message through
// Send. The simulator charges exact energy and maintains per-processor
// dependency clocks, so Energy() and Depth() are exact model costs of the
// executed message schedule, not analytic estimates.
//
// Collectives (broadcast, reduce, all-reduce, prefix sum, range
// broadcast, sorting, permutation) are implemented as explicit message
// patterns on the grid, so their measured costs are emergent.
package machine

import (
	"fmt"

	"spatialtree/internal/sfc"
)

// Sim is a spatial computer: a side×side grid of processors. Processors
// are identified by their rank along a space-filling curve; rank r sits
// at grid point curve.XY(r, side).
type Sim struct {
	curve sfc.Curve
	side  int
	procs int
	x, y  []int16 // grid coordinates per rank
	at    []int32 // rank per grid point, at[y*side+x]: the inverse of x, y
	clock []int64 // per-processor dependency clock (schedule time)

	// departs is SendBatch's per-message departure scratch, reused
	// across batches.
	departs []int64
	// zeros is Barrier's all-zero operand, allocated on the first
	// power-of-two barrier; a sum of zeros leaves it all zero.
	zeros []int64

	energy   int64
	messages int64
	maxClock int64

	// Link-congestion counters (nil unless EnableCongestion was called):
	// hload[y*(side-1)+x] counts messages crossing the horizontal link
	// (x,y)-(x+1,y); vload[x*(side-1)+y] the vertical link (x,y)-(x,y+1).
	// Messages are routed dimension-ordered (X then Y), the standard
	// mesh routing the model's energy metric proxies for (Section II-A:
	// longer distances "indicate potential congestion").
	hload, vload []int64
}

// New returns a simulator whose grid is the smallest legal grid for the
// curve holding at least n processors. All side×side processors exist;
// ranks beyond n are usable (e.g. as scratch for collectives).
func New(n int, curve sfc.Curve) *Sim {
	side := curve.Side(n)
	procs := side * side
	s := &Sim{
		curve: curve,
		side:  side,
		procs: procs,
		x:     make([]int16, procs),
		y:     make([]int16, procs),
		at:    make([]int32, procs),
		clock: make([]int64, procs),
	}
	for r := 0; r < procs; r++ {
		x, y := curve.XY(r, side)
		s.x[r], s.y[r] = int16(x), int16(y)
		s.at[y*side+x] = int32(r)
	}
	return s
}

// Side returns the grid side length.
func (s *Sim) Side() int { return s.side }

// Procs returns the total number of processors (side²).
func (s *Sim) Procs() int { return s.procs }

// Curve returns the placement curve.
func (s *Sim) Curve() sfc.Curve { return s.curve }

// Dist returns the Manhattan distance between the processors of ranks i
// and j.
func (s *Sim) Dist(i, j int) int {
	return sfc.Manhattan(int(s.x[i]), int(s.y[i]), int(s.x[j]), int(s.y[j]))
}

// EnableCongestion turns on per-link traffic counters. Each subsequent
// message increments every mesh link on its dimension-ordered (X-then-Y)
// route. Adds O(distance) bookkeeping per message.
func (s *Sim) EnableCongestion() {
	if s.hload == nil {
		s.hload = make([]int64, s.side*(s.side-1))
		s.vload = make([]int64, s.side*(s.side-1))
	}
}

// route charges the links of the X-then-Y path from src to dst.
func (s *Sim) route(src, dst int) {
	x, y := int(s.x[src]), int(s.y[src])
	tx, ty := int(s.x[dst]), int(s.y[dst])
	for x < tx {
		s.hload[y*(s.side-1)+x]++
		x++
	}
	for x > tx {
		x--
		s.hload[y*(s.side-1)+x]++
	}
	for y < ty {
		s.vload[x*(s.side-1)+y]++
		y++
	}
	for y > ty {
		y--
		s.vload[x*(s.side-1)+y]++
	}
}

// MaxLinkLoad returns the largest per-link message count (0 when
// congestion tracking is off or no messages were sent). A layout with
// the same energy but higher maximum load concentrates traffic and
// would congest a real mesh.
func (s *Sim) MaxLinkLoad() int64 {
	var max int64
	for _, l := range s.hload {
		if l > max {
			max = l
		}
	}
	for _, l := range s.vload {
		if l > max {
			max = l
		}
	}
	return max
}

// Send records one message from rank src to rank dst. Energy grows by
// their Manhattan distance. The schedule is updated per the model: the
// send occupies one time unit at src, the message arrives one unit after
// departure, and the receive occupies one unit at dst — so both fan-out
// and fan-in at a single processor serialize, exactly the constraint that
// makes unbounded-degree trees non-trivial (Section III-D).
func (s *Sim) Send(src, dst int) {
	if src == dst {
		return // local work is free in the model
	}
	s.energy += int64(s.Dist(src, dst))
	s.messages++
	if s.hload != nil {
		s.route(src, dst)
	}
	depart := s.clock[src]
	s.clock[src] = depart + 1
	arrive := depart + 1
	recv := s.clock[dst]
	if arrive > recv {
		recv = arrive
	} else {
		recv++ // dst busy: receive serializes after its last action
	}
	s.clock[dst] = recv
	if recv > s.maxClock {
		s.maxClock = recv
	}
}

// SendBatch records a set of messages forming one oblivious
// communication phase: no send in the batch depends on a receive in the
// same batch, so all departures are scheduled against the clocks as they
// stood when the batch began. Receives still serialize per destination.
// Use this for data-independent patterns (permutation routing, the
// compare-exchange pairs of a sorting network); plain Send would thread
// false dependencies through the issue order.
func (s *Sim) SendBatch(pairs [][2]int) {
	if cap(s.departs) < len(pairs) {
		s.departs = make([]int64, len(pairs))
	}
	departs := s.departs[:len(pairs)]
	for i, p := range pairs {
		if p[0] == p[1] {
			departs[i] = -1
			continue
		}
		departs[i] = s.clock[p[0]]
		s.clock[p[0]]++
	}
	for i, p := range pairs {
		if departs[i] < 0 {
			continue
		}
		src, dst := p[0], p[1]
		s.energy += int64(s.Dist(src, dst))
		s.messages++
		if s.hload != nil {
			s.route(src, dst)
		}
		arrive := departs[i] + 1
		recv := s.clock[dst]
		if arrive > recv {
			recv = arrive
		} else {
			recv++
		}
		s.clock[dst] = recv
		if recv > s.maxClock {
			s.maxClock = recv
		}
	}
}

// Energy returns the total Manhattan distance of all messages so far.
func (s *Sim) Energy() int64 { return s.energy }

// Messages returns the number of messages sent so far.
func (s *Sim) Messages() int64 { return s.messages }

// Depth returns the makespan of the recorded message schedule: the
// longest chain of dependent message steps, including send/receive
// serialization at processors. For the constant-degree message patterns
// the paper designs, this matches its depth measure up to constants.
func (s *Sim) Depth() int64 { return s.maxClock }

// Cost is a snapshot of the simulator's counters.
type Cost struct {
	Energy   int64
	Messages int64
	Depth    int64
}

// Plus returns the component-wise sum of two cost snapshots; depths add
// as if the two runs happened back to back.
func (c Cost) Plus(d Cost) Cost {
	return Cost{
		Energy:   c.Energy + d.Energy,
		Messages: c.Messages + d.Messages,
		Depth:    c.Depth + d.Depth,
	}
}

// Minus returns the component-wise difference c - d: the growth from an
// earlier snapshot d to c (the snapshot-to-snapshot form of Sim.Since,
// usable without the simulator in hand).
func (c Cost) Minus(d Cost) Cost {
	return Cost{
		Energy:   c.Energy - d.Energy,
		Messages: c.Messages - d.Messages,
		Depth:    c.Depth - d.Depth,
	}
}

// Cost returns the current counters.
func (s *Sim) Cost() Cost {
	return Cost{Energy: s.energy, Messages: s.messages, Depth: s.maxClock}
}

// Since returns the counter growth since an earlier snapshot.
func (s *Sim) Since(mark Cost) Cost {
	return Cost{
		Energy:   s.energy - mark.Energy,
		Messages: s.messages - mark.Messages,
		Depth:    s.maxClock - mark.Depth,
	}
}

// Reset clears all counters and clocks.
func (s *Sim) Reset() {
	s.energy, s.messages, s.maxClock = 0, 0, 0
	for i := range s.clock {
		s.clock[i] = 0
	}
}

// String summarizes the simulator state.
func (s *Sim) String() string {
	return fmt.Sprintf("machine.Sim{side=%d curve=%s energy=%d msgs=%d depth=%d}",
		s.side, s.curve.Name(), s.energy, s.messages, s.maxClock)
}
