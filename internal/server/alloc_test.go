package server

import (
	"testing"

	"spatialtree/internal/tree"
	"spatialtree/internal/wire"
)

// TestBinaryQueryAllocs pins the allocations of one locally served
// binary query — Server.query plus the result encode, exactly what a
// connection's slot worker and writer run per query frame — on a
// registered n=2¹⁰ tree with the native backend. MaxBatch 1 dispatches
// every query on submission, so the count covers the whole request
// without a scheduler wait. What is left is routing's tree id and the
// engine's future, batch and kernel output; the decoded query, result
// and submission scratch live in a reused slot, and the writer reuses
// its reply buffer, so they must stay out of the count.
// The ceilings carry one allocation of slack over the go1.24 counts (9
// and 8) for escape-analysis differences between toolchains.
func TestBinaryQueryAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector instruments allocations")
	}
	s := New(Config{Scheduler: Scheduler{MaxBatch: 1}, Backend: "native"})
	const n = 1 << 10
	tr, err := tree.FromParents(testParents(n, 3))
	if err != nil {
		t.Fatal(err)
	}
	id, err := s.RegisterTree(tr)
	if err != nil {
		t.Fatal(err)
	}
	var (
		res     wire.Result
		scratch wireScratch
		out     []byte
	)
	serve := func(q *wire.Query) {
		if err := s.query(q, &res, &scratch); err != nil {
			t.Fatal(err)
		}
		out = wire.AppendResult(out[:0], &res)
	}
	cases := []struct {
		name    string
		q       wire.Query
		ceiling float64
	}{
		{"treefix", wire.Query{ID: 1, Kind: wire.KindTreefix, TreeID: id, Vals: make([]int64, n)}, 10},
		{"lca", wire.Query{ID: 2, Kind: wire.KindLCA, TreeID: id,
			Queries: []wire.LCAQuery{{U: 3, V: 900}, {U: 5, V: 7}}}, 9},
	}
	for _, c := range cases {
		serve(&c.q) // warm the layout, scratch and response buffer
		got := testing.AllocsPerRun(200, func() { serve(&c.q) })
		t.Logf("%s: %.1f allocs per query", c.name, got)
		if got > c.ceiling {
			t.Errorf("%s: %.1f allocs per query, want <= %.0f", c.name, got, c.ceiling)
		}
	}
}
