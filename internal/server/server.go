// Package server exposes the batched query engines: the serving
// subsystem behind cmd/spatialtreed. It separates request arrival from
// batch execution the way the paper separates layout construction from
// kernel runs — requests enqueue work and wait on futures while a
// per-shard adaptive scheduler (the engines' autoflush: MaxBatch
// requests or a MaxDelay deadline, whichever comes first) decides when
// kernel runs actually happen, so concurrent clients hitting one tree
// coalesce into far fewer runs than requests.
//
// Every query, whichever protocol carried it, runs one request path
// (Server.query) on one request model, wire.Query → wire.Result: admit,
// validate, route, submit, wait. The binary listener (tcp.go) decodes
// frames straight into that model; the HTTP handlers are a thin JSON
// codec onto it (QueryRequest in, QueryResponse out).
//
// Endpoints:
//
//	POST /v1/trees          register an immutable tree → tree_id
//	POST /v1/query          run treefix|topdown|lca|mincut|expr on a tree
//	POST /v1/dyn            create a mutable shard → shard_id
//	GET  /v1/dyn/{id}       shard status: layout config + tuner state
//	POST /v1/dyn/{id}/mutate  insert/delete a leaf
//	POST /v1/dyn/{id}/query   query the mutable shard's current tree
//	GET  /metrics           server + scheduler + engine + cache stats
//	GET  /healthz           liveness (503 while draining)
//
// Immutable traffic is routed per tenant by tree fingerprint through an
// engine.Pool: structurally identical trees share a shard and therefore
// a batch window. Mutable shards are routed by id. Admission control is
// a bounded in-flight queue: when QueueLimit requests are already being
// served, further work is rejected with 429 rather than queued without
// bound. Drain stops admission, waits for in-flight requests and
// flushes every shard, so shutdown never strands a future.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"spatialtree/internal/engine"
	"spatialtree/internal/exec"
	"spatialtree/internal/exprtree"
	"spatialtree/internal/lca"
	"spatialtree/internal/mincut"
	"spatialtree/internal/persist"
	"spatialtree/internal/tree"
	"spatialtree/internal/treefix"
	"spatialtree/internal/tune"
	"spatialtree/internal/wire"
)

// Server serves the engines over HTTP. Construct with New; the zero
// value is not usable.
type Server struct {
	cfg     Config
	pool    *engine.Pool
	engOpts engine.Options // the pool's options (shared cache); used for ephemeral engines
	mux     *http.ServeMux

	// ephem folds the counters of ephemeral engines (ad-hoc query
	// trees served beyond the shard budget), which would otherwise
	// vanish from /metrics.
	ephemMu sync.Mutex
	ephem   engine.Stats

	sem      chan struct{}
	draining atomic.Bool
	accepted atomic.Uint64
	rejected atomic.Uint64

	// flightMu serializes request admission against Drain: enter checks
	// the draining flag and bumps inflight under it, so Drain can set
	// the flag and wait for a moment when inflight is provably zero.
	flightMu  sync.Mutex
	inflight  int
	drainDone chan struct{} // non-nil while a Drain waits; closed at inflight 0

	// journaled counts WAL records appended across all dyn shards.
	journaled atomic.Uint64

	// cluster holds the installed ClusterHooks (see cluster_hooks.go);
	// nil means single-node serving.
	cluster atomic.Pointer[ClusterHooks]

	// tuner is the online layout tuner (nil unless Tuning.Enabled). It
	// adopts every locally served dyn shard and republishes layouts
	// through the engine's Retune path; see internal/tune.
	tuner *tune.Tuner

	// Binary-protocol listener state (tcp.go). wireEnabled flips once
	// ServeBinary runs, making the Wire block appear in /metrics.
	wireEnabled   atomic.Bool
	wireTotal     atomic.Uint64
	wireQueries   atomic.Uint64
	wireErrors    atomic.Uint64
	wireMu        sync.Mutex
	wireConns     map[net.Conn]struct{}
	wireListeners map[net.Listener]struct{}

	mu        sync.Mutex //spatialvet:lockclass routing
	trees     map[string]*tree.Tree
	dyns      map[string]*engine.DynEngine
	logs      map[string]*persist.ShardLog // per-dyn-shard WALs (nil Store: empty)
	adhoc     map[uint64]struct{}          // fingerprints of pool shards auto-created for ad-hoc query trees
	backends  map[string]string            // tree id / dyn shard id -> serving backend
	nextDyn   int
	recovered RecoveryStats
}

// New builds a server; all zero Config fields take the documented
// defaults.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	opts := engine.Options{
		Curve:       cfg.Curve,
		Window:      cfg.Scheduler.MaxBatch,
		Seed:        cfg.Seed,
		Cache:       engine.NewLayoutCache(cfg.Limits.CacheCapacity),
		FlushDelay:  cfg.Scheduler.MaxDelay,
		Backend:     cfg.Backend,
		ShadowMeter: cfg.ShadowMeter,
	}
	s := &Server{
		cfg:      cfg,
		pool:     engine.NewPool(cfg.Scheduler.Workers, opts),
		engOpts:  opts,
		sem:      make(chan struct{}, cfg.Limits.QueueLimit),
		trees:    make(map[string]*tree.Tree),
		dyns:     make(map[string]*engine.DynEngine),
		logs:     make(map[string]*persist.ShardLog),
		adhoc:    make(map[uint64]struct{}),
		backends: make(map[string]string),

		wireConns:     make(map[net.Conn]struct{}),
		wireListeners: make(map[net.Listener]struct{}),
	}
	if cfg.Tuning.Enabled {
		s.tuner = tune.New(tune.Config{
			Threshold:   cfg.Tuning.Threshold,
			OnRepublish: s.persistRetune,
		})
		s.tuner.Start(cfg.Tuning.Interval)
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/trees", s.admitted(s.handleRegister))
	s.mux.HandleFunc("POST /v1/query", s.handleQuery)
	s.mux.HandleFunc("POST /v1/dyn", s.admitted(s.handleDynCreate))
	s.mux.HandleFunc("GET /v1/dyn/{id}", s.handleDynStatus)
	s.mux.HandleFunc("POST /v1/dyn/{id}/mutate", s.admitted(s.handleDynMutate))
	s.mux.HandleFunc("POST /v1/dyn/{id}/query", s.handleQuery)
	s.mux.HandleFunc("GET /v1/cluster/status", s.handleClusterStatus)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	return s
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Pool returns the underlying engine pool (exposed for the daemon's
// preloading and for tests).
func (s *Server) Pool() *engine.Pool { return s.pool }

// Tuner returns the online layout tuner, or nil when Tuning is off
// (exposed so tests can drive Tick deterministically).
func (s *Server) Tuner() *tune.Tuner { return s.tuner }

// Drain performs a graceful shutdown of the serving layer: new requests
// are rejected with 503, in-flight requests are waited for (bounded by
// ctx), and every shard is flushed so that no submitted future is left
// pending. The HTTP listener itself is the caller's to close (see
// cmd/spatialtreed).
func (s *Server) Drain(ctx context.Context) error {
	s.flightMu.Lock()
	s.draining.Store(true)
	var done chan struct{}
	if s.inflight > 0 {
		done = make(chan struct{})
		s.drainDone = done
	}
	s.flightMu.Unlock()
	if done != nil {
		select {
		case <-done:
		case <-ctx.Done():
			return errors.New("server: drain interrupted with requests in flight")
		}
	}
	// Stop the tuner before flushing: a retune in flight quiesces its
	// shard and finishes; no new republish can start mid-shutdown.
	if s.tuner != nil {
		s.tuner.Stop()
	}
	s.pool.FlushAll()
	return nil
}

// enter registers an admitted request; it fails once draining started.
func (s *Server) enter() bool {
	s.flightMu.Lock()
	defer s.flightMu.Unlock()
	if s.draining.Load() {
		return false
	}
	s.inflight++
	return true
}

// exit retires an admitted request, waking a waiting Drain when the
// last one leaves.
func (s *Server) exit() {
	s.flightMu.Lock()
	s.inflight--
	if s.inflight == 0 && s.drainDone != nil {
		close(s.drainDone)
		s.drainDone = nil
	}
	s.flightMu.Unlock()
}

// Admission refusals. Prebuilt: a saturated server refuses without
// allocating.
var (
	errQueueFull = statusErr(StatusTooMany, errors.New("request queue full"))
	errDraining  = statusErr(StatusUnavailable, errors.New("server is draining"))
)

// admit is the bounded-queue admission every client request passes,
// whichever codec carried it: requests beyond QueueLimit are refused
// with StatusTooMany (backpressure the client can see), and once Drain
// started with StatusUnavailable. An admitted request is tracked for
// Drain and must call release when done.
func (s *Server) admit() error {
	select {
	case s.sem <- struct{}{}:
	default:
		s.rejected.Add(1)
		return errQueueFull
	}
	if !s.enter() {
		<-s.sem
		return errDraining
	}
	s.accepted.Add(1)
	return nil
}

// release retires a request admit let in.
func (s *Server) release() {
	<-s.sem
	s.exit()
}

// admitted wraps an HTTP handler in admission control.
func (s *Server) admitted(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if err := s.admit(); err != nil {
			writeErr(w, err)
			return
		}
		defer s.release()
		h(w, r)
	}
}

// errShardLimit reports that MaxShards worth of per-tree serving state
// is already retained.
var errShardLimit = errors.New("shard limit reached (MaxShards): delete load or raise the limit")

// RegisterTree registers t on the server's default backend and returns
// its id, warming the shard (and through it the layout cache). The id
// is stable across servers: it is derived from the structural
// fingerprint. Registration beyond the MaxShards budget fails with
// errShardLimit — unless the tree is already registered, which retains
// nothing new. (The budget check and the shard creation are not atomic;
// concurrent registrations can overshoot by their own count, which is
// why this is a memory admission bound, not an exact quota.)
func (s *Server) RegisterTree(t *tree.Tree) (string, error) {
	return s.registerTree(t, true, "")
}

// RegisterTreeBackend is RegisterTree with an explicit execution
// backend ("" means the server default). Re-registering an existing
// tree with a different backend re-points its queries at a shard on
// that backend (both shards share one cached placement).
func (s *Server) RegisterTreeBackend(t *tree.Tree, backend string) (string, error) {
	return s.registerTree(t, true, backend)
}

// registerTree is RegisterTree with the persistence side controllable:
// Recover re-registers trees that are already on disk (and were
// admitted when first registered, so the budget does not re-apply).
//
//spatialvet:errclass
func (s *Server) registerTree(t *tree.Tree, save bool, backend string) (string, error) {
	if backend == "" {
		backend = s.cfg.Backend
	}
	if !exec.Valid(backend) {
		return "", badRequest(fmt.Errorf("unknown backend %q (want %q or %q)", backend, exec.Native, exec.Sim))
	}
	backend = exec.Normalize(backend)
	fp := engine.Fingerprint(t)
	id := treeID(fp)
	s.mu.Lock()
	_, registered := s.trees[id]
	// known means this registration retains nothing new: a pool shard
	// for (fingerprint, backend) already exists. A re-registration that
	// switches backends creates a fresh shard (the pool keys on the
	// pair), so it must pass the budget check like any first sight —
	// otherwise backend switching would be a MaxShards bypass.
	known := registered && s.backends[id] == backend
	if !registered {
		// A shard auto-created for this structure's ad-hoc traffic
		// already exists (on the default backend); promoting it to a
		// same-backend registration retains only the id mapping.
		_, adhoc := s.adhoc[fp]
		known = adhoc && backend == s.cfg.Backend
	}
	s.mu.Unlock()
	if save && !known && s.pool.Size() >= s.cfg.Limits.MaxShards {
		return "", errShardLimit
	}
	eng, err := s.pool.EngineBackend(t, backend)
	if err != nil {
		return "", err
	}
	// Persist on first registration — including the promotion of an
	// ad-hoc shard, which was never saved when it was auto-created.
	if save && !registered {
		if err := s.persistTree(id, eng); err != nil {
			return "", err
		}
	}
	s.mu.Lock()
	s.trees[id] = t
	s.backends[id] = backend
	// A promoted ad-hoc shard is now accounted as registered; free its
	// slot in the ad-hoc half of the budget.
	delete(s.adhoc, fp)
	s.mu.Unlock()
	return id, nil
}

func treeID(fp uint64) string {
	return "t" + strconv.FormatUint(fp, 16)
}

func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req RegisterRequest
	if !s.decode(w, r, &req) {
		return
	}
	t, err := tree.FromParents(req.Parents)
	if err != nil {
		writeStatus(w, StatusBadRequest, err.Error())
		return
	}
	id, err := s.registerTree(t, true, req.Backend)
	if err != nil {
		writeErr(w, err)
		return
	}
	s.mu.Lock()
	be := s.backends[id]
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, RegisterResponse{ID: id, N: t.N(), Backend: be})
}

// submitter is the Submit surface Engine and DynEngine share; the
// query path is identical for both shard kinds.
type submitter interface {
	SubmitTreefix([]int64, treefix.Op) *engine.Future
	SubmitTopDown([]int64, treefix.Op) *engine.Future
	SubmitLCA([]lca.Query) *engine.Future
	SubmitMinCut([]mincut.Edge) *engine.Future
	SubmitExpr(*exprtree.Expr) *engine.Future
}

// wireScratch holds reusable submission state: the kernel-typed slices
// a wire.Query converts into. Each slot of a binary connection keeps
// one and reuses it query to query — safe because a slot serves one
// query at a time and the engine releases its view of a request's
// inputs when the batch retires.
type wireScratch struct {
	queries []lca.Query
	edges   []mincut.Edge
	kinds   []exprtree.NodeKind
}

// query is the one request path every codec feeds. It admits q,
// validates it, routes it to its shard (or to the cluster peer owning
// it), submits it, waits for the batch and fills res, which then
// answers q.ID. Errors classify through Classify; each codec renders
// them its own way. scratch is the caller's reusable submission state.
//
//spatialvet:errclass
func (s *Server) query(q *wire.Query, res *wire.Result, scratch *wireScratch) error {
	if err := s.admit(); err != nil {
		return err
	}
	defer s.release()
	if err := validate(q); err != nil {
		return err
	}
	sh, retire, err := s.route(q, res)
	if err != nil || sh == nil {
		return err
	}
	defer retire()
	fut, err := submit(sh, q, scratch)
	if err != nil {
		return err
	}
	r := fut.Wait()
	if r.Err != nil {
		return r.Err
	}
	*res = wire.Result{
		ID:   q.ID,
		Kind: q.Kind,
		Cost: wire.Cost{Energy: r.Cost.Energy, Messages: r.Cost.Messages, Depth: r.Cost.Depth},
	}
	switch q.Kind {
	case wire.KindTreefix, wire.KindTopDown:
		res.Sums = r.Sums
	case wire.KindLCA:
		res.Answers = r.Answers
	case wire.KindMinCut:
		res.MinWeight, res.ArgVertex = r.MinCut.MinWeight, r.MinCut.ArgVertex
	case wire.KindExpr:
		res.Value = r.Value
	}
	return nil
}

// validate checks the tree-independent parts of q — kind, operator and
// expr node kinds. It runs before routing, so no node creates shard
// state, spends budget, proxies or redirects for a query it would
// reject itself.
//
//spatialvet:errclass
func validate(q *wire.Query) error {
	switch q.Kind {
	case wire.KindTreefix, wire.KindTopDown:
		_, err := opOf(q)
		return err
	case wire.KindLCA, wire.KindMinCut:
		return nil
	case wire.KindExpr:
		for i, k := range q.ExprKinds {
			if k > uint8(exprtree.Mul) {
				return badRequest(fmt.Errorf("expr_kinds[%d] = %d (want 0=leaf, 1=add or 2=mul)", i, k))
			}
		}
		return nil
	}
	return badRequest(fmt.Errorf("unknown query kind %d (want treefix, topdown, lca, mincut or expr)", q.Kind))
}

// opOf resolves a treefix/topdown query's operator ("" means add).
func opOf(q *wire.Query) (treefix.Op, error) {
	if q.Op == "" {
		return treefix.Add, nil
	}
	return treefix.OpByName(q.Op)
}

// route resolves the shard serving q: a dyn shard by id (through the
// cluster hooks when installed), a registered tree by id, or an ad-hoc
// tree by parents. A nil submitter with a nil error means a cluster
// peer answered q, into res. retire must run once q's future resolves.
//
//spatialvet:errclass
func (s *Server) route(q *wire.Query, res *wire.Result) (sh submitter, retire func(), err error) {
	switch {
	case q.ShardID != "":
		de, _ := s.DynShard(q.ShardID)
		if h := s.clusterHooks(); de == nil && h != nil {
			r, handled, err := h.ShardQuery(q.ShardID, q)
			if err != nil {
				return nil, nil, err
			}
			if handled {
				*res = *r
				res.ID = q.ID
				return nil, nil, nil
			}
			// handled == false: the hook decided the shard is local —
			// possibly promoted from a replica just now — so look again.
			de, _ = s.DynShard(q.ShardID)
		}
		if de == nil {
			return nil, nil, statusErrf(StatusNotFound, "unknown shard_id %s", q.ShardID)
		}
		return de, func() {}, nil
	case q.TreeID != "":
		s.mu.Lock()
		t := s.trees[q.TreeID]
		s.mu.Unlock()
		if t == nil {
			return nil, nil, statusErrf(StatusNotFound, "unknown tree_id %s", q.TreeID)
		}
		return s.engineFor(t)
	case len(q.Parents) > 0:
		t, err := tree.FromParents(q.Parents)
		if err != nil {
			return nil, nil, badRequest(err)
		}
		return s.engineFor(t)
	}
	return nil, nil, badRequest(errors.New("shard_id, tree_id or parents required"))
}

// submit enqueues q on the shard, converting its payload into the
// kernel types through scratch. It never runs kernel work itself
// (beyond the size-trigger dispatch the scheduler may hand the calling
// goroutine) — the returned future resolves when the shard's scheduler
// flushes the batch.
//
//spatialvet:errclass
func submit(sh submitter, q *wire.Query, scratch *wireScratch) (*engine.Future, error) {
	switch q.Kind {
	case wire.KindTreefix, wire.KindTopDown:
		op, err := opOf(q)
		if err != nil {
			return nil, err
		}
		if q.Kind == wire.KindTreefix {
			return sh.SubmitTreefix(q.Vals, op), nil
		}
		return sh.SubmitTopDown(q.Vals, op), nil
	case wire.KindLCA:
		qs := scratch.queries[:0]
		for _, lq := range q.Queries {
			qs = append(qs, lca.Query{U: lq.U, V: lq.V})
		}
		scratch.queries = qs
		return sh.SubmitLCA(qs), nil
	case wire.KindMinCut:
		es := scratch.edges[:0]
		for _, e := range q.Edges {
			es = append(es, mincut.Edge{U: e.U, V: e.V, W: e.W})
		}
		scratch.edges = es
		return sh.SubmitMinCut(es), nil
	case wire.KindExpr:
		// The expression's shape is the shard's tree; a dyn shard
		// snapshots its current one. A snapshot failure is the server's
		// fault, never the client's.
		var t *tree.Tree
		switch sh := sh.(type) {
		case *engine.Engine:
			t = sh.Tree()
		case *engine.DynEngine:
			var err error
			if t, err = sh.Tree(); err != nil {
				return nil, err
			}
		}
		ks := scratch.kinds[:0]
		for _, k := range q.ExprKinds {
			ks = append(ks, exprtree.NodeKind(k))
		}
		scratch.kinds = ks
		// Length and shape invariants (full binary tree, leaf labeling)
		// are SubmitExpr's validation, classified ErrInvalid there.
		return sh.SubmitExpr(&exprtree.Expr{Tree: t, Kind: ks, Val: q.Vals}), nil
	}
	return nil, badRequest(fmt.Errorf("unknown query kind %d", q.Kind))
}

// handleQuery serves POST /v1/query and POST /v1/dyn/{id}/query: the
// JSON codec onto the request path. It decodes a QueryRequest into a
// wire.Query (the dyn endpoint routes by its path id and ignores
// tree_id and parents), runs it, and renders the wire.Result as a
// QueryResponse.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req QueryRequest
	if !s.decode(w, r, &req) {
		return
	}
	q, err := queryFromJSON(&req, r.PathValue("id"))
	if err == nil {
		var res wire.Result
		if err = s.query(q, &res, &wireScratch{}); err == nil {
			writeJSON(w, http.StatusOK, responseFromResult(&res))
			return
		}
	}
	writeErr(w, err)
}

// queryFromJSON is the JSON codec's decode half. shardID is the dyn
// endpoint's path id ("" on /v1/query, which routes by exactly one of
// tree_id and parents).
//
//spatialvet:errclass
func queryFromJSON(req *QueryRequest, shardID string) (*wire.Query, error) {
	kind, ok := wire.KindByName(req.Kind)
	if !ok {
		return nil, badRequest(fmt.Errorf("unknown kind %q (want treefix, topdown, lca, mincut or expr)", req.Kind))
	}
	q := &wire.Query{Kind: kind, ShardID: shardID, Op: req.Op, Vals: req.Vals}
	if shardID == "" {
		// The API contract is "exactly one of tree_id / parents";
		// silently preferring one would mask a client bug where the two
		// disagree.
		if req.TreeID != "" && len(req.Parents) > 0 {
			return nil, badRequest(errors.New("exactly one of tree_id and parents may be set"))
		}
		q.TreeID, q.Parents = req.TreeID, req.Parents
	}
	q.Queries = make([]wire.LCAQuery, len(req.Queries))
	for i, lq := range req.Queries {
		q.Queries[i] = wire.LCAQuery{U: lq.U, V: lq.V}
	}
	q.Edges = make([]wire.Edge, len(req.Edges))
	for i, e := range req.Edges {
		q.Edges[i] = wire.Edge{U: e.U, V: e.V, W: e.W}
	}
	q.ExprKinds = make([]uint8, len(req.ExprKinds))
	for i, k := range req.ExprKinds {
		if k < 0 || k > math.MaxUint8 {
			return nil, badRequest(fmt.Errorf("expr_kinds[%d] = %d (want 0=leaf, 1=add or 2=mul)", i, k))
		}
		q.ExprKinds[i] = uint8(k)
	}
	return q, nil
}

// responseFromResult is the JSON codec's encode half: exactly the
// field matching the result kind is populated.
func responseFromResult(res *wire.Result) QueryResponse {
	resp := QueryResponse{
		Sums:    res.Sums,
		Answers: res.Answers,
		Cost:    Cost{Energy: res.Cost.Energy, Messages: res.Cost.Messages, Depth: res.Cost.Depth},
	}
	switch res.Kind {
	case wire.KindMinCut:
		resp.MinCut = &MinCutResult{MinWeight: res.MinWeight, ArgVertex: res.ArgVertex}
	case wire.KindExpr:
		v := res.Value
		resp.Value = &v
	}
	return resp
}

// engineFor resolves the shard serving an ad-hoc query tree. Known
// trees (registered, or ad-hoc structures already given a shard) join
// their pooled shard — equal fingerprints coalesce into one batch
// window, and a registered tree's traffic runs on whatever backend it
// was registered with (ad-hoc structures use the server default). New
// ad-hoc structures get a pooled shard only while the ad-hoc half of
// the MaxShards budget lasts; the other half stays reserved for
// explicit registration, so unauthenticated one-off traffic can bound
// neither memory nor the registration API. Beyond the budget the tree
// is served from an ephemeral engine (the shared layout cache still
// catches repeated structures). retire must run after the request's
// future resolves — for an ephemeral engine it folds the counters into
// /metrics.
func (s *Server) engineFor(t *tree.Tree) (*engine.Engine, func(), error) {
	fp := engine.Fingerprint(t)
	id := treeID(fp)
	// Sample the pool size before taking the routing lock: Size takes
	// the pool's own routing lock, and s.mu must never nest over
	// another lock (the /metrics deadlock class). The value is a budget
	// heuristic — concurrent registrations already race it regardless
	// of where it is read.
	poolSize := s.pool.Size()
	s.mu.Lock()
	backend := s.cfg.Backend
	_, known := s.trees[id]
	if known {
		if be, ok := s.backends[id]; ok {
			backend = be
		}
	} else {
		_, known = s.adhoc[fp]
		if !known && len(s.adhoc) < s.cfg.Limits.MaxShards/2 && poolSize < s.cfg.Limits.MaxShards {
			s.adhoc[fp] = struct{}{}
			known = true
		}
	}
	s.mu.Unlock()
	if known {
		eng, err := s.pool.EngineBackend(t, backend)
		return eng, func() {}, err
	}
	opts := s.engOpts
	// No scheduler on a single-request engine: nothing can ever join
	// its batch, so Wait should flush at once instead of sleeping out
	// the MaxDelay deadline. No shadow metering either — a fresh
	// engine's first batch is always sampled, which would shadow-run
	// the simulator on every over-budget request; pool shards carry the
	// sampling instead.
	opts.FlushDelay = 0
	opts.ShadowMeter = 0
	eng, err := engine.New(t, opts)
	if err != nil {
		return nil, nil, err
	}
	return eng, func() {
		st := eng.Stats()
		st.Cache = engine.CacheStats{} // shared-cache counters stay with the pool's
		s.ephemMu.Lock()
		s.ephem.Add(st)
		s.ephemMu.Unlock()
	}, nil
}

func (s *Server) handleDynCreate(w http.ResponseWriter, r *http.Request) {
	var req DynCreateRequest
	if !s.decode(w, r, &req) {
		return
	}
	res, err := s.dynCreate(req.Parents, req.Epsilon, req.Backend)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, DynCreateResponse{ID: res.ID, N: res.N, Backend: res.Backend})
}

func (s *Server) handleDynMutate(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var req MutateRequest
	if !s.decode(w, r, &req) {
		return
	}
	var op uint8
	var arg int
	switch req.Op {
	case "insert":
		op, arg = wire.OpInsert, req.Parent
	case "delete":
		op, arg = wire.OpDelete, req.Leaf
	default:
		writeStatus(w, StatusBadRequest, "unknown op "+strconv.Quote(req.Op)+" (want insert or delete)")
		return
	}
	res, err := s.mutate(id, op, arg)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, MutateResponse{Vertex: res.Vertex, Moved: res.Moved, Epoch: res.Epoch, N: res.N})
}

// handleDynStatus reports a locally served shard's current layout
// configuration and, when tuning is on, its tuner state (profile,
// cooldown, last projected-vs-realized win). It is a local view: in
// cluster mode non-owners answer 404 rather than proxy — status is an
// operator surface, not a routed data path.
func (s *Server) handleDynStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	de := s.dyns[id]
	s.mu.Unlock()
	if de == nil {
		writeStatus(w, StatusNotFound, "unknown shard_id "+id)
		return
	}
	spec := de.LayoutConfig()
	ds := de.Stats()
	resp := DynStatusResponse{
		ID:      id,
		N:       de.N(),
		Epoch:   ds.Epoch,
		Backend: de.Backend(),
		Curve:   spec.Curve,
		Epsilon: spec.Epsilon,
		Retunes: ds.Retunes,
	}
	if s.tuner != nil {
		if st, ok := s.tuner.Status(id); ok {
			resp.Tuner = &st
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// persistRetune is the tuner's OnRepublish hook: the tuned curve and ε
// are already part of the shard's durable state (engine.DynState), so a
// compaction right after the republish folds them into the snapshot and
// the next boot warm-starts on the tuned layout instead of replaying to
// the untuned one. Best-effort like maybeCompact.
func (s *Server) persistRetune(id string, _ engine.RetuneSpec) {
	s.mu.Lock()
	de := s.dyns[id]
	log := s.logs[id]
	s.mu.Unlock()
	if de == nil || log == nil {
		return
	}
	_ = log.Compact(DynSnapshotFromState(de.State()))
}

// Metrics snapshots every layer's counters (also served as /metrics).
func (s *Server) Metrics() MetricsResponse {
	st := s.pool.Stats()
	s.ephemMu.Lock()
	st.Add(s.ephem)
	s.ephemMu.Unlock()
	// Copy the shard list under s.mu, then aggregate without it:
	// DynEngine.Stats blocks on the shard's mutation lock, which a slow
	// mutation can hold through a drain and a layout rebuild — routing
	// must not queue behind a metrics scrape for that long.
	s.mu.Lock()
	trees, shards := len(s.trees), len(s.dyns)
	dynList := make([]*engine.DynEngine, 0, len(s.dyns))
	for _, de := range s.dyns {
		dynList = append(dynList, de)
	}
	logList := make([]*persist.ShardLog, 0, len(s.logs))
	for _, l := range s.logs {
		logList = append(logList, l)
	}
	recovered := s.recovered
	backendShards := map[string]int{}
	for _, be := range s.backends {
		backendShards[be]++
	}
	// Ad-hoc pool shards were created on the default backend.
	backendShards[s.cfg.Backend] += len(s.adhoc)
	s.mu.Unlock()
	var pm *PersistMetrics
	if s.cfg.Durability.Store != nil {
		pm = &PersistMetrics{
			Enabled:         true,
			JournalRecords:  s.journaled.Load(),
			RecoveredTrees:  recovered.Trees,
			RecoveredShards: recovered.DynShards,
			ReplayedRecords: recovered.Records,
		}
		for _, l := range logList {
			pm.Compactions += l.Compactions()
			pm.WALRecords += l.RecordsSinceSnapshot()
		}
	}
	var dyn DynMetrics
	dyn.Shards = shards
	for _, de := range dynList {
		ds := de.Stats()
		dyn.Epoch += ds.Epoch
		dyn.Inserts += ds.Inserts
		dyn.Deletes += ds.Deletes
		dyn.Rebuilds += ds.Rebuilds
		dyn.Refreshes += ds.Refreshes
	}
	batches := st.Batches
	perBatch := 0.0
	if batches > 0 {
		perBatch = float64(st.Requests) / float64(batches)
	}
	var tm *TunerMetrics
	if s.tuner != nil {
		m := s.tuner.Metrics()
		tm = &m
	}
	var wm *WireMetrics
	if s.wireEnabled.Load() {
		s.wireMu.Lock()
		active := len(s.wireConns)
		s.wireMu.Unlock()
		wm = &WireMetrics{
			Conns:       s.wireTotal.Load(),
			ActiveConns: active,
			Queries:     s.wireQueries.Load(),
			Errors:      s.wireErrors.Load(),
		}
	}
	return MetricsResponse{
		Server: ServerMetrics{
			Accepted:  s.accepted.Load(),
			Rejected:  s.rejected.Load(),
			InFlight:  len(s.sem),
			Draining:  s.draining.Load(),
			Trees:     trees,
			DynShards: shards,
		},
		Scheduler: SchedulerMetrics{
			MaxBatch:         s.cfg.Scheduler.MaxBatch,
			MaxDelayMillis:   float64(s.cfg.Scheduler.MaxDelay) / float64(time.Millisecond),
			Batches:          st.Batches,
			Requests:         st.Requests,
			SizeFlushes:      st.SizeFlushes,
			DeadlineFlushes:  st.DeadlineFlushes,
			RequestsPerBatch: perBatch,
		},
		Engine: EngineMetrics{
			LCAQueries: st.LCAQueries,
			LCARuns:    st.LCARuns,
			Cost:       Cost{Energy: st.Cost.Energy, Messages: st.Cost.Messages, Depth: st.Cost.Depth},
		},
		Cache: CacheMetrics{
			Hits:      st.Cache.Hits,
			Misses:    st.Cache.Misses,
			Evictions: st.Cache.Evictions,
			Builds:    st.Cache.Builds,
			Coalesced: st.Cache.Coalesced,
			Size:      st.Cache.Size,
			Capacity:  st.Cache.Capacity,
			HitRate:   st.Cache.HitRate(),
		},
		Backends: BackendMetrics{
			Default:          s.cfg.Backend,
			ShadowMeter:      s.cfg.ShadowMeter,
			Shards:           backendShards,
			ShadowBatches:    st.ShadowBatches,
			ShadowMismatches: st.ShadowMismatches,
		},
		Dyn:     dyn,
		Tuner:   tm,
		Wire:    wm,
		Persist: pm,
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Metrics())
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, HealthResponse{OK: false, Draining: true})
		return
	}
	writeJSON(w, http.StatusOK, HealthResponse{OK: true})
}

// decode parses the JSON body, bounded by BodyLimit, into v, replying
// 400 (or 413 for an oversized body) itself on failure.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.Limits.BodyLimit)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeStatus(w, StatusTooLarge, err.Error())
			return false
		}
		writeStatus(w, StatusBadRequest, "invalid request body: "+err.Error())
		return false
	}
	if dec.More() {
		writeStatus(w, StatusBadRequest, "trailing data after request body")
		return false
	}
	_, _ = io.Copy(io.Discard, r.Body)
	return true
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
