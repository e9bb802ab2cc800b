// Package tune closes the loop on shadow metering: it folds the
// engine's per-batch profiles (internal/engine.BatchProfile) into
// per-shard workload profiles and periodically re-picks each sim
// shard's layout — space-filling curve × rebuild threshold ε —
// republishing the winner through DynEngine.Retune when the projected
// win beats a hysteresis threshold.
//
// The paper's cost is energy, and its central result is that the
// layout choice swings model energy by large constant factors; the
// engine's meter samples each shard's true model cost, and this
// package is its consumer. Candidate layouts are
// scored with the sfc.Measure* predictors (distance-bound constant ×
// alignment factor, probed on a small fixed grid) calibrated against
// the shard's own sampled energy: the predictors supply only *ratios*
// between curves, and the shard's EWMA of sampled energy per request
// anchors them to reality. The vertex order is not a search axis:
// dynlayout maintains light-first placements exclusively (the order
// the paper's bounds are proven for), so the tuner's space is
// curve × ε. The execution backend is configuration, not a tuning axis:
// it is fixed when a shard is created, and native shards are never
// scored, because native kernels do not read the placement.
//
// Republishes are guarded two ways against thrash. First, hysteresis: a
// candidate must project at least Config.Threshold fractional win over
// the current configuration, so flipping back immediately after a
// switch can never look profitable. Second, backoff: after each
// republish the tuner measures the realized win in sampled model
// energy per request over the next MinSamples metered batches, and a
// republish whose realized win misses half its projection doubles a
// per-shard cooldown that suppresses further republishes — under an
// adversarially alternating workload the cooldown grows geometrically
// and total republishes stay logarithmic in elapsed ticks (see the
// hysteresis property test).
package tune

import (
	"math/bits"
	"sync"

	"spatialtree/internal/engine"
)

// sizeBuckets is the number of power-of-two batch-size histogram
// buckets: bucket i counts batches with 2^(i-1) < size <= ... — in
// practice, bucket = bit length of the batch size, clamped.
const sizeBuckets = 12

// Profile accumulates one shard's workload profile from the engine's
// batch observer: request mix, batch-size histogram, and EWMAs of
// wall-clock and sampled model cost per request. Observe is installed
// as the shard's engine.ProfileFunc and runs on batch goroutines, so it
// takes only its own leaf mutex and stays cheap.
type Profile struct {
	alpha float64 // EWMA smoothing factor in (0, 1]

	mu       sync.Mutex
	batches  uint64
	requests uint64
	bottomUp uint64
	topDown  uint64
	lca      uint64
	minCut   uint64
	expr     uint64
	lcaQs    uint64
	sizeHist [sizeBuckets]uint64

	metered    uint64
	mismatches uint64
	// EWMAs; zero means "no sample yet" (the first sample seeds).
	nsPerReq     float64
	energyPerReq float64
	depthPerReq  float64
}

// NewProfile returns an empty profile with the given EWMA smoothing
// factor (<= 0 or > 1 means DefaultEWMAAlpha).
func NewProfile(alpha float64) *Profile {
	if alpha <= 0 || alpha > 1 {
		alpha = DefaultEWMAAlpha
	}
	return &Profile{alpha: alpha}
}

// Observe folds one dispatched batch into the profile. It is the
// engine.ProfileFunc the tuner installs on adopted shards.
func (p *Profile) Observe(bp engine.BatchProfile) {
	if bp.Requests <= 0 {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.batches++
	p.requests += uint64(bp.Requests)
	p.bottomUp += uint64(bp.BottomUp)
	p.topDown += uint64(bp.TopDown)
	p.lca += uint64(bp.LCA)
	p.minCut += uint64(bp.MinCut)
	p.expr += uint64(bp.Expr)
	p.lcaQs += uint64(bp.LCAQueries)
	b := bits.Len(uint(bp.Requests))
	if b >= sizeBuckets {
		b = sizeBuckets - 1
	}
	p.sizeHist[b]++

	perReq := 1 / float64(bp.Requests)
	p.nsPerReq = p.ewma(p.nsPerReq, float64(bp.Elapsed.Nanoseconds())*perReq)
	if bp.Metered {
		p.metered++
		p.mismatches += bp.Mismatches
		p.energyPerReq = p.ewma(p.energyPerReq, float64(bp.Cost.Energy)*perReq)
		p.depthPerReq = p.ewma(p.depthPerReq, float64(bp.Cost.Depth)*perReq)
	}
}

// ewma folds sample into the running average; a zero average seeds.
func (p *Profile) ewma(avg, sample float64) float64 {
	if avg == 0 {
		return sample
	}
	return avg + p.alpha*(sample-avg)
}

// resetEWMA clears the running cost averages (counters stay). The tuner
// calls it right after a republish so the realized-win measurement is
// not contaminated by pre-republish samples.
func (p *Profile) resetEWMA() {
	p.mu.Lock()
	p.nsPerReq, p.energyPerReq, p.depthPerReq = 0, 0, 0
	p.mu.Unlock()
}

// ProfileSnapshot is a point-in-time copy of a Profile, safe to read
// without synchronization.
type ProfileSnapshot struct {
	// Batches and Requests count dispatched batches and the requests in
	// them; the per-kind counts below sum to Requests.
	Batches  uint64 `json:"batches"`
	Requests uint64 `json:"requests"`
	BottomUp uint64 `json:"bottom_up"`
	TopDown  uint64 `json:"top_down"`
	LCA      uint64 `json:"lca"`
	MinCut   uint64 `json:"min_cut"`
	Expr     uint64 `json:"expr"`
	// LCAQueries counts individual queries inside coalesced LCA runs.
	LCAQueries uint64 `json:"lca_queries"`
	// SizeHist is the batch-size histogram: bucket i counts batches
	// whose size has bit length i (i.e. in [2^(i-1), 2^i)).
	SizeHist []uint64 `json:"size_hist"`
	// Metered counts batches that carried a model-cost sample (every
	// batch on a sim backend, the shadow-sampled ones on native);
	// Mismatches totals their shadow-validation failures.
	Metered    uint64 `json:"metered"`
	Mismatches uint64 `json:"mismatches"`
	// NsPerRequest, EnergyPerRequest and DepthPerRequest are the EWMAs
	// of serving wall-clock and sampled model cost per request.
	NsPerRequest     float64 `json:"ns_per_request"`
	EnergyPerRequest float64 `json:"energy_per_request"`
	DepthPerRequest  float64 `json:"depth_per_request"`
}

// Snapshot copies the profile's current state.
func (p *Profile) Snapshot() ProfileSnapshot {
	p.mu.Lock()
	defer p.mu.Unlock()
	hist := make([]uint64, sizeBuckets)
	copy(hist, p.sizeHist[:])
	return ProfileSnapshot{
		Batches:          p.batches,
		Requests:         p.requests,
		BottomUp:         p.bottomUp,
		TopDown:          p.topDown,
		LCA:              p.lca,
		MinCut:           p.minCut,
		Expr:             p.expr,
		LCAQueries:       p.lcaQs,
		SizeHist:         hist,
		Metered:          p.metered,
		Mismatches:       p.mismatches,
		NsPerRequest:     p.nsPerReq,
		EnergyPerRequest: p.energyPerReq,
		DepthPerRequest:  p.depthPerReq,
	}
}
