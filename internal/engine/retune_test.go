package engine

import (
	"sync"
	"testing"

	"spatialtree/internal/exec"
	"spatialtree/internal/lca"
	"spatialtree/internal/rng"
	"spatialtree/internal/tree"
	"spatialtree/internal/treefix"
)

// TestDynRetune asserts the tuner-facing republish path: a retune
// switches curve/ε, republishes through the epoch machinery
// WITHOUT advancing the epoch (epochs count mutations — the WAL and
// replication contracts depend on them staying consecutive), and the
// retuned shard keeps serving correct results.
func TestDynRetune(t *testing.T) {
	r := rng.New(21)
	base := tree.RandomAttachment(150, r)
	de, err := NewDyn(base, DynOptions{Options: Options{Window: 32, Seed: 3}, Epsilon: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		mutate(t, de, r)
	}
	epoch := de.Epoch()
	if got := de.LayoutConfig(); got.Curve != "hilbert" || got.Epsilon != 0.2 || de.Backend() != exec.Sim {
		t.Fatalf("pre-retune LayoutConfig = %+v on %q", got, de.Backend())
	}

	if err := de.Retune(RetuneSpec{Curve: "zorder", Epsilon: 0.35}); err != nil {
		t.Fatal(err)
	}
	if de.Epoch() != epoch {
		t.Fatalf("retune advanced the epoch %d -> %d; epochs must count mutations only", epoch, de.Epoch())
	}
	if got := de.LayoutConfig(); got.Curve != "zorder" || got.Epsilon != 0.35 {
		t.Fatalf("post-retune LayoutConfig = %+v", got)
	}
	if st := de.Stats(); st.Retunes != 1 {
		t.Fatalf("Retunes = %d, want 1", st.Retunes)
	}

	// Differential: the retuned shard answers exactly like a fresh
	// static engine on the same tree.
	cur, err := de.Tree()
	if err != nil {
		t.Fatal(err)
	}
	static, err := New(cur, Options{Window: 32, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]int64, cur.N())
	for i := range vals {
		vals[i] = int64(i%7) - 3
	}
	queries := make([]lca.Query, 30)
	for i := range queries {
		queries[i] = lca.Query{U: r.Intn(cur.N()), V: r.Intn(cur.N())}
	}
	got, want := de.SubmitTreefix(vals, treefix.Add).Wait(), static.SubmitTreefix(vals, treefix.Add).Wait()
	if got.Err != nil || want.Err != nil {
		t.Fatalf("treefix errs: %v / %v", got.Err, want.Err)
	}
	for v := range want.Sums {
		if got.Sums[v] != want.Sums[v] {
			t.Fatalf("sum[%d] = %d after retune, want %d", v, got.Sums[v], want.Sums[v])
		}
	}
	ga, wa := de.SubmitLCA(queries).Wait(), static.SubmitLCA(queries).Wait()
	if ga.Err != nil || wa.Err != nil {
		t.Fatalf("lca errs: %v / %v", ga.Err, wa.Err)
	}
	for i := range wa.Answers {
		if ga.Answers[i] != wa.Answers[i] {
			t.Fatalf("lca[%d] = %d after retune, want %d", i, ga.Answers[i], wa.Answers[i])
		}
	}

	// Mutations keep working after a retune, on the tuned curve.
	for i := 0; i < 20; i++ {
		mutate(t, de, r)
	}
	if got := de.LayoutConfig(); got.Curve != "zorder" {
		t.Fatalf("mutations reverted the tuned curve to %q", got.Curve)
	}
}

func TestDynRetuneNoopAndErrors(t *testing.T) {
	de, err := NewDyn(tree.RandomAttachment(40, rng.New(4)), DynOptions{Options: Options{}, Epsilon: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	// A spec matching the current configuration is a no-op: no drain, no
	// republish, no Retunes tick.
	if err := de.Retune(de.LayoutConfig()); err != nil {
		t.Fatal(err)
	}
	if st := de.Stats(); st.Retunes != 0 {
		t.Fatalf("no-op retune counted: Retunes = %d", st.Retunes)
	}
	if err := de.Retune(RetuneSpec{Curve: "no-such-curve"}); err == nil {
		t.Fatal("unknown curve accepted")
	}
	if got := de.LayoutConfig(); got.Curve != "hilbert" {
		t.Fatalf("failed retunes mutated the config: %+v", got)
	}
}

// TestDynProfileHook asserts the tuner's observation channel: an
// installed ProfileFunc sees every dispatched batch with its kernel mix
// and timing, keeps reporting across mutation-driven engine refreshes,
// and a sim-backend shard's profiles carry metered model cost.
func TestDynProfileHook(t *testing.T) {
	r := rng.New(6)
	de, err := NewDyn(tree.RandomAttachment(80, r), DynOptions{Options: Options{Backend: exec.Sim, Window: 4}, Epsilon: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var got []BatchProfile
	de.SetProfile(func(bp BatchProfile) {
		mu.Lock()
		got = append(got, bp)
		mu.Unlock()
	})
	vals := make([]int64, de.N())
	if res := de.SubmitTreefix(vals, treefix.Add).Wait(); res.Err != nil {
		t.Fatal(res.Err)
	}
	// Force a refresh: the profile hook must ride onto the new inner
	// engine.
	if _, err := de.InsertLeaf(0); err != nil {
		t.Fatal(err)
	}
	vals = append(vals, 0)
	if res := de.SubmitLCA([]lca.Query{{U: 1, V: 2}, {U: 2, V: 3}}).Wait(); res.Err != nil {
		t.Fatal(res.Err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) < 2 {
		t.Fatalf("profile saw %d batches, want >= 2 (hook lost across refresh?)", len(got))
	}
	first, last := got[0], got[len(got)-1]
	if first.Requests != 1 || first.BottomUp != 1 {
		t.Fatalf("first batch profile = %+v, want 1 bottom-up request", first)
	}
	if last.LCA != 1 || last.LCAQueries != 2 {
		t.Fatalf("last batch profile = %+v, want 1 LCA request with 2 queries", last)
	}
	for i, bp := range got {
		if bp.Elapsed <= 0 {
			t.Fatalf("batch %d: no elapsed time recorded", i)
		}
		if !bp.Metered {
			t.Fatalf("batch %d: sim backend batch not metered", i)
		}
		if bp.Cost.Energy <= 0 {
			t.Fatalf("batch %d: metered batch has no energy", i)
		}
	}
	// Uninstall: no further observations.
	de.SetProfile(nil)
	n := len(got)
	mu.Unlock()
	if res := de.SubmitTreefix(vals, treefix.Add).Wait(); res.Err != nil {
		t.Fatal(res.Err)
	}
	mu.Lock()
	if len(got) != n {
		t.Fatal("profile hook still firing after SetProfile(nil)")
	}
}

// TestShadowMeterCallerBufferReuse pins the satellite contract behind
// the binary listener's scratch reuse: with shadow metering on, the
// engine copies a sampled batch's inputs out before the future
// resolves, so a caller may overwrite its slices the moment Wait
// returns. Run under -race this fails if the shadow run reads the
// caller's buffer after the reply.
func TestShadowMeterCallerBufferReuse(t *testing.T) {
	de, err := NewDyn(tree.RandomAttachment(64, rng.New(7)),
		DynOptions{Options: Options{Backend: exec.Native, ShadowMeter: 1, Window: 1}, Epsilon: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]int64, de.N())
	queries := make([]lca.Query, 8)
	for i := 0; i < 50; i++ {
		for j := range vals {
			vals[j] = int64(i + j)
		}
		if res := de.SubmitTreefix(vals, treefix.Add).Wait(); res.Err != nil {
			t.Fatal(res.Err)
		}
		for j := range queries {
			queries[j] = lca.Query{U: (i + j) % de.N(), V: j % de.N()}
		}
		if res := de.SubmitLCA(queries).Wait(); res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	st := de.Stats()
	if st.Engine.ShadowBatches == 0 {
		t.Fatal("shadow meter sampled nothing; the reuse contract went untested")
	}
	if st.Engine.ShadowMismatches != 0 {
		t.Fatalf("%d shadow mismatches: the shadow run saw overwritten inputs", st.Engine.ShadowMismatches)
	}
}
