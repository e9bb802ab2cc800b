package tune

import (
	"sync"
	"time"

	"spatialtree/internal/engine"
	"spatialtree/internal/exec"
	"spatialtree/internal/sfc"
)

// Tuning defaults; see Config.
const (
	// DefaultInterval is the tick period of the background loop.
	DefaultInterval = 2 * time.Second
	// DefaultThreshold is the hysteresis threshold: the minimum
	// projected fractional win a candidate must beat the current
	// configuration by before the tuner republishes.
	DefaultThreshold = 0.15
	// DefaultMinSamples is the number of profiled batches a shard needs
	// before the tuner scores it, and the number of post-republish
	// batches the realized-win check waits for.
	DefaultMinSamples = 8
	// DefaultEWMAAlpha is the profile's cost-average smoothing factor.
	DefaultEWMAAlpha = 0.25
	// missFraction: a republish whose realized win is below this
	// fraction of its projection counts as a miss and doubles the
	// shard's cooldown.
	missFraction = 0.5
	// driftPenalty scales the projected query-energy degradation of a
	// larger rebuild threshold: parked vertices drift up to eps*n
	// mutations from their light-first slots between rebuilds.
	driftPenalty = 0.5
	// probePoints sizes the fixed grid the curve-quality predictors run
	// on: each curve is probed at its own minimal legal side covering
	// this many points (64 for Hilbert/Moore/Z, 81 for Peano), so
	// predictor cost is independent of shard size.
	probePoints = 4096
)

// DefaultCurves is the candidate curve set: the ISSUE's
// hilbert/moore/peano/zorder/simple axis, with "simple" as the snake
// curve (the continuous baseline; row-major and scatter exist only as
// known-bad baselines and are never candidates — but a shard *starting*
// on one is still scored against these and tuned away).
func DefaultCurves() []string { return []string{"hilbert", "moore", "peano", "zorder", "snake"} }

// DefaultEpsilons is the candidate rebuild-threshold set.
func DefaultEpsilons() []float64 { return []float64{0.1, 0.2, 0.4} }

// Config configures a Tuner. The zero value resolves to the defaults
// above.
type Config struct {
	// Threshold is the hysteresis threshold (<= 0 means
	// DefaultThreshold): minimum projected fractional win to republish.
	Threshold float64
	// MinSamples gates scoring and the realized-win check (<= 0 means
	// DefaultMinSamples).
	MinSamples uint64
	// EWMAAlpha smooths the profiles' cost averages.
	EWMAAlpha float64
	// Curves and Epsilons are the candidate axes (nil means
	// DefaultCurves/DefaultEpsilons).
	Curves   []string
	Epsilons []float64
	// OnRepublish, when non-nil, is invoked after every successful
	// republish, outside all tuner locks — the server uses it to
	// compact the shard's snapshot so the tuned choice survives
	// restarts.
	OnRepublish func(id string, spec engine.RetuneSpec)
}

func (c Config) resolved() Config {
	if c.Threshold <= 0 {
		c.Threshold = DefaultThreshold
	}
	if c.MinSamples == 0 {
		c.MinSamples = DefaultMinSamples
	}
	if c.EWMAAlpha <= 0 || c.EWMAAlpha > 1 {
		c.EWMAAlpha = DefaultEWMAAlpha
	}
	if c.Curves == nil {
		c.Curves = DefaultCurves()
	}
	if c.Epsilons == nil {
		c.Epsilons = DefaultEpsilons()
	}
	return c
}

// Target is the shard surface the tuner drives; *engine.DynEngine
// implements it. The indirection keeps the hysteresis and backoff logic
// testable against scripted fakes.
type Target interface {
	// LayoutConfig reports the current curve/epsilon.
	LayoutConfig() engine.RetuneSpec
	// Backend names the shard's execution backend, fixed at creation.
	// Only sim shards are tuned: native kernels never read the
	// placement, so no layout can move their cost.
	Backend() string
	// Retune republishes the shard on a new configuration behind the
	// engine's own Quiesce barrier. The tuner NEVER holds any of its
	// locks across this call: Retune drains in-flight batches, and a
	// tuner lock held here would couple every shard's profile hot path
	// to one shard's drain.
	Retune(engine.RetuneSpec) error
	// Stats supplies mutation counters for the maintenance-cost model.
	Stats() engine.DynStats
	// SetProfile installs the tuner's batch observer.
	SetProfile(engine.ProfileFunc)
}

// pendingEval is the realized-win check armed by a republish. The
// check measures the quantity the projection promised: the shard's
// sampled model energy per request.
type pendingEval struct {
	baseline  float64 // pre-republish energy/request EWMA
	projected float64 // projected fractional win
	meteredAt uint64  // profile metered-batch count at republish
}

// shardState is the tuner's per-shard bookkeeping; all fields are
// guarded by Tuner.mu except prof, which has its own leaf mutex.
type shardState struct {
	target Target
	prof   *Profile

	cooldown     uint64 // ticks left before scoring resumes
	cooldownBase uint64 // doubling backoff level
	pending      *pendingEval

	scored        uint64
	republishes   uint64
	hits, misses  uint64
	lastProjected float64
	lastRealized  float64
}

// Tuner runs the online layout-tuning loop over a set of adopted
// shards. All methods are safe for concurrent use.
type Tuner struct {
	cfg Config

	qualOnce sync.Once
	qualMu   sync.Mutex
	qual     map[string]float64

	mu     sync.Mutex
	shards map[string]*shardState
	ticks  uint64

	stop chan struct{}
	done chan struct{}
}

// New builds a tuner; call Adopt to hand it shards and either Start for
// the background loop or Tick to drive it manually.
func New(cfg Config) *Tuner {
	return &Tuner{cfg: cfg.resolved(), shards: map[string]*shardState{}}
}

// Adopt registers a shard under id and installs the profile observer on
// it. Re-adopting an id replaces the previous registration.
func (t *Tuner) Adopt(id string, target Target) {
	st := &shardState{target: target, prof: NewProfile(t.cfg.EWMAAlpha)}
	t.mu.Lock()
	t.shards[id] = st
	t.mu.Unlock()
	target.SetProfile(st.prof.Observe)
}

// Release forgets a shard and removes its profile observer.
func (t *Tuner) Release(id string) {
	t.mu.Lock()
	st := t.shards[id]
	delete(t.shards, id)
	t.mu.Unlock()
	if st != nil {
		st.target.SetProfile(nil)
	}
}

// Start runs Tick every interval (<= 0 means DefaultInterval) on a
// background goroutine until Stop. Starting a started tuner is a no-op.
func (t *Tuner) Start(interval time.Duration) {
	if interval <= 0 {
		interval = DefaultInterval
	}
	t.mu.Lock()
	if t.stop != nil {
		t.mu.Unlock()
		return
	}
	stop, done := make(chan struct{}), make(chan struct{})
	t.stop, t.done = stop, done
	t.mu.Unlock()
	go func() {
		defer close(done)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				t.Tick()
			}
		}
	}()
}

// Stop halts the background loop and waits for an in-flight tick to
// finish. Stopping a stopped (or never started) tuner is a no-op.
func (t *Tuner) Stop() {
	t.mu.Lock()
	stop, done := t.stop, t.done
	t.stop, t.done = nil, nil
	t.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
}

// Tick runs one tuning round over every adopted sim shard: resolve pending
// realized-win checks, score candidates, and republish winners beating
// the hysteresis threshold. Republishes happen outside every tuner lock
// — Retune quiesces the shard, and holding a tuner lock across that
// drain would stall profile observers and other shards' ticks on one
// shard's in-flight batches.
func (t *Tuner) Tick() {
	type planned struct {
		id   string
		st   *shardState
		spec engine.RetuneSpec
		win  float64
		base float64
	}
	t.mu.Lock()
	t.ticks++
	snapshot := make(map[string]*shardState, len(t.shards))
	for id, st := range t.shards {
		snapshot[id] = st
	}
	t.mu.Unlock()

	var plans []planned
	for id, st := range snapshot {
		if exec.Normalize(st.target.Backend()) != exec.Sim {
			continue // native kernels never read the placement
		}
		prof := st.prof.Snapshot()
		cur := st.target.LayoutConfig()
		stats := st.target.Stats()

		t.mu.Lock()
		energy := prof.EnergyPerRequest
		if st.pending != nil && prof.Metered >= st.pending.meteredAt+t.cfg.MinSamples && energy > 0 {
			realized := 1 - energy/st.pending.baseline
			st.lastRealized = realized
			if realized < st.pending.projected*missFraction {
				st.misses++
				if st.cooldownBase < 2 {
					st.cooldownBase = 2
				} else if st.cooldownBase < 1<<20 {
					st.cooldownBase *= 2
				}
				st.cooldown = st.cooldownBase
			} else {
				st.hits++
				st.cooldownBase /= 2
			}
			st.pending = nil
		}
		skip := st.pending != nil || st.cooldown > 0 || prof.Metered < t.cfg.MinSamples || energy <= 0
		if st.cooldown > 0 {
			st.cooldown--
		}
		t.mu.Unlock()
		if skip {
			continue
		}

		best, scored := t.score(cur, prof, stats)
		t.mu.Lock()
		st.scored += scored
		win := 0.0
		if best.cost > 0 {
			win = 1 - best.cost/t.project(cur, cur, prof, stats)
		}
		if win > t.cfg.Threshold {
			st.lastProjected = win
			plans = append(plans, planned{id: id, st: st, spec: best.spec, win: win, base: energy})
		}
		t.mu.Unlock()
	}

	for _, pl := range plans {
		if err := pl.st.target.Retune(pl.spec); err != nil {
			continue
		}
		pl.st.prof.resetEWMA()
		t.mu.Lock()
		pl.st.republishes++
		prof := pl.st.prof.Snapshot()
		pl.st.pending = &pendingEval{baseline: pl.base, projected: pl.win, meteredAt: prof.Metered}
		t.mu.Unlock()
		if t.cfg.OnRepublish != nil {
			t.cfg.OnRepublish(pl.id, pl.spec)
		}
	}
}

type candidate struct {
	spec engine.RetuneSpec
	cost float64
}

// score projects every candidate layout's energy per request and
// returns the cheapest, plus how many candidates were scored.
func (t *Tuner) score(cur engine.RetuneSpec, prof ProfileSnapshot, stats engine.DynStats) (candidate, uint64) {
	best := candidate{spec: cur, cost: t.project(cur, cur, prof, stats)}
	for _, c := range t.cfg.Curves {
		for _, eps := range t.cfg.Epsilons {
			spec := engine.RetuneSpec{Curve: c, Epsilon: eps}
			if e := t.project(cur, spec, prof, stats); e < best.cost {
				best = candidate{spec: spec, cost: e}
			}
		}
	}
	return best, uint64(len(t.cfg.Curves) * len(t.cfg.Epsilons))
}

// project estimates cand's model energy per request for the profiled
// workload, anchored at the shard's sampled energy EWMA (the
// calibration: the predictors only ever supply ratios between
// configurations, never absolute costs, and only the ratio of two
// projections is ever used). The anchor scales by the curve-quality
// ratio and the ε drift model, and a mutating shard adds its
// maintenance energy.
func (t *Tuner) project(cur, cand engine.RetuneSpec, prof ProfileSnapshot, stats engine.DynStats) float64 {
	e := prof.EnergyPerRequest * t.curveQuality(cand.Curve) / t.curveQuality(cur.Curve)
	e *= (1 + driftPenalty*cand.Epsilon) / (1 + driftPenalty*cur.Epsilon)
	// Maintenance: rebuild amortization costs O(√n/ε) energy per
	// mutation; the measured per-mutation maintenance energy under the
	// current ε rescales by curε/candε. Shards that never mutate skip
	// the term.
	muts := stats.Inserts + stats.Deletes
	if muts > 0 && stats.Engine.Requests > 0 && cand.Epsilon > 0 && cur.Epsilon > 0 {
		maintPerMut := float64(stats.MigrateEnergy+stats.ParkEnergy) / float64(muts)
		mutRate := float64(muts) / float64(stats.Engine.Requests)
		e += mutRate * maintPerMut * (cur.Epsilon / cand.Epsilon)
	}
	return e
}

// curveQuality returns the memoized quality factor of a curve: the
// sampled distance-bound constant times the alignment factor, probed on
// a fixed small grid (probePoints) so the cost is independent of shard
// size. Lower is better; only ratios between curves are ever used.
// Unknown curve names score +Inf-ishly high via a large sentinel so a
// typo in the candidate set can never win a retune.
func (t *Tuner) curveQuality(name string) float64 {
	t.qualOnce.Do(func() { t.qual = map[string]float64{} })
	t.qualMu.Lock()
	defer t.qualMu.Unlock()
	if q, ok := t.qual[name]; ok {
		return q
	}
	q := 1e18
	if c, err := sfc.ByName(name); err == nil {
		side := c.Side(probePoints)
		q = sfc.MeasureDistanceBoundSampled(c, side).Alpha * sfc.AlignmentFactor(c, side)
	}
	t.qual[name] = q
	return q
}

// Metrics aggregates the tuner's lifetime counters for /metrics.
type Metrics struct {
	// Shards is the number of adopted shards (live profiles).
	Shards int `json:"shards"`
	// CandidatesScored totals candidate configurations projected.
	CandidatesScored uint64 `json:"candidates_scored"`
	// Republishes totals successful Retune republishes; Hits and Misses
	// split the resolved realized-win checks.
	Republishes uint64 `json:"republishes"`
	Hits        uint64 `json:"hits"`
	Misses      uint64 `json:"misses"`
	// ProjectedWin and RealizedWin average the most recent republish's
	// projected and measured fractional win over shards that have
	// republished — the live health check of the projection model.
	ProjectedWin float64 `json:"projected_win"`
	RealizedWin  float64 `json:"realized_win"`
	// Ticks counts tuning rounds.
	Ticks uint64 `json:"ticks"`
}

// Metrics returns the tuner's aggregate counters.
func (t *Tuner) Metrics() Metrics {
	t.mu.Lock()
	defer t.mu.Unlock()
	m := Metrics{Shards: len(t.shards), Ticks: t.ticks}
	republished := 0
	for _, st := range t.shards {
		m.CandidatesScored += st.scored
		m.Republishes += st.republishes
		m.Hits += st.hits
		m.Misses += st.misses
		if st.republishes > 0 {
			republished++
			m.ProjectedWin += st.lastProjected
			m.RealizedWin += st.lastRealized
		}
	}
	if republished > 0 {
		m.ProjectedWin /= float64(republished)
		m.RealizedWin /= float64(republished)
	}
	return m
}

// ShardStatus is one shard's tuner state for status APIs.
type ShardStatus struct {
	// Republishes counts this shard's successful retunes.
	Republishes uint64 `json:"republishes"`
	// CooldownTicks is the backoff currently suppressing retunes.
	CooldownTicks uint64 `json:"cooldown_ticks"`
	// LastProjectedWin and LastRealizedWin compare the most recent
	// republish's projection against what the profile then measured
	// (zero until a republish resolves its check).
	LastProjectedWin float64 `json:"last_projected_win"`
	LastRealizedWin  float64 `json:"last_realized_win"`
	// Profile is the shard's current workload profile.
	Profile ProfileSnapshot `json:"profile"`
}

// Status reports one shard's tuner state.
func (t *Tuner) Status(id string) (ShardStatus, bool) {
	t.mu.Lock()
	st, ok := t.shards[id]
	if !ok {
		t.mu.Unlock()
		return ShardStatus{}, false
	}
	s := ShardStatus{
		Republishes:      st.republishes,
		CooldownTicks:    st.cooldown,
		LastProjectedWin: st.lastProjected,
		LastRealizedWin:  st.lastRealized,
	}
	prof := st.prof
	t.mu.Unlock()
	s.Profile = prof.Snapshot()
	return s, true
}
