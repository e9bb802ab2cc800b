package treefix

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"spatialtree/internal/machine"
	"spatialtree/internal/rng"
	"spatialtree/internal/sfc"
	"spatialtree/internal/tree"
)

// TestBottomUpAllocs pins the allocations of a warmed spatial BottomUp
// at n = 4096: the contraction workspace is pooled and the simulator
// reuses its batch scratch, so what is left is the returned slice. The
// ceiling carries a little slack for escape-analysis differences
// between toolchains; the unpooled contraction made tens of thousands.
func TestBottomUpAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector instruments allocations")
	}
	const n = 4096
	tr := tree.RandomAttachment(n, rng.New(1))
	rank := lfRanks(tr)
	vals := randomVals(n, rng.New(2))
	s := machine.New(n, sfc.Hilbert{})
	r := rng.New(3)
	BottomUp(s, tr, rank, vals, Add, r)
	allocs := testing.AllocsPerRun(20, func() {
		BottomUp(s, tr, rank, vals, Add, r)
	})
	if allocs > 4 {
		t.Fatalf("warmed BottomUp made %.1f allocations per call, want <= 4", allocs)
	}
}

// TestConcurrentContractions runs spatial contractions on distinct
// simulators from several goroutines, so pooled workspaces move between
// goroutines, and checks every result against the sequential oracle.
// Run it under -race.
func TestConcurrentContractions(t *testing.T) {
	const workers, runs = 8, 6
	trees := []*tree.Tree{
		tree.RandomAttachment(700, rng.New(5)),
		tree.Star(300),
		tree.Caterpillar(257),
		tree.PerfectKAry(3, 6),
	}
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rng.New(uint64(100 + w))
			for i := 0; i < runs; i++ {
				tr := trees[(w+i)%len(trees)]
				vals := randomVals(tr.N(), r)
				s := machine.New(tr.N(), sfc.Hilbert{})
				got, _ := BottomUp(s, tr, lfRanks(tr), vals, Add, r)
				if want := SequentialBottomUp(tr, vals, Add); !reflect.DeepEqual(got, want) {
					errs <- fmt.Errorf("worker %d run %d (n=%d): bottom-up disagrees with the oracle", w, i, tr.N())
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
