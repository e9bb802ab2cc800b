// Command spatialserve is a load generator for a running spatialtreed:
// it replays mixed treefix / LCA / min-cut traffic over the
// length-prefixed binary protocol (internal/wire, docs/protocol.md)
// against a -tcp-addr listener and prints throughput, modeling the
// serving shape the daemon targets: many clients issuing small batches
// against a forest of long-lived trees.
//
// Each round, every client picks a tree from the forest and issues one
// treefix plus the round's LCA sub-batches on its own pipelined
// connection, routing every query by the tree's parent array (the
// daemon's ad-hoc path, so its layout cache is exercised the way a
// deserializing server exercises it); one round in -mincut-share is a
// min-cut request instead. Backpressure answers are counted rather than
// fatal, so the generator can be pointed at a saturated daemon.
//
// In-process comparisons are benchmarks, not modes of this tool:
// engine vs per-call (BenchmarkE13EngineThroughput), dyn churn vs
// rebuild-per-mutation (BenchmarkE14DynChurn), and native vs sim
// backends (BenchmarkE16NativeBackend).
//
// Usage:
//
//	spatialtreed -tcp-addr localhost:8373 &
//	spatialserve -tcp localhost:8373
//	spatialserve -tcp localhost:8373 -n 16384 -trees 8 -clients 16 -rounds 128
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"sync"
	"time"

	"spatialtree/internal/lca"
	"spatialtree/internal/mincut"
	"spatialtree/internal/rng"
	"spatialtree/internal/tree"
	"spatialtree/internal/wire"
)

func fatal(args ...any) {
	fmt.Fprintln(os.Stderr, append([]any{"spatialserve:"}, args...)...)
	os.Exit(1)
}

func main() {
	var (
		n       = flag.Int("n", 1<<12, "vertices per tree")
		trees   = flag.Int("trees", 4, "distinct trees in the forest")
		clients = flag.Int("clients", 8, "concurrent clients, one connection each")
		rounds  = flag.Int("rounds", 64, "request rounds per client")
		queries = flag.Int("queries", 256, "LCA queries per round")
		subs    = flag.Int("sub-batches", 4, "LCA sub-batches the queries arrive in")
		seed    = flag.Uint64("seed", 42, "workload seed")
		cutSh   = flag.Int("mincut-share", 8, "1 in k rounds is a min-cut request (0 = none)")
		tcp     = flag.String("tcp", "", "address of a spatialtreed binary-protocol listener (required)")
	)
	flag.Parse()
	if *tcp == "" {
		fatal("-tcp is required: the address of a spatialtreed -tcp-addr listener")
	}
	if *subs < 1 {
		*subs = 1
	}
	runRemote(*tcp, *n, *trees, *clients, *rounds, *queries, *subs, *cutSh, *seed)
}

// runRemote replays the forest traffic against a spatialtreed
// binary-protocol listener: every client holds one pipelined
// connection, routes each query by its tree's parent array and issues
// one treefix plus the round's LCA sub-batches per round. Backpressure
// answers (StatusTooMany, StatusUnavailable) are counted as lost
// rather than fatal.
func runRemote(addr string, n, trees, clients, rounds, nq, subs, cutSh int, seed uint64) {
	parents := make([][]int, trees)
	edgesOf := make([][]wire.Edge, trees)
	for i := range parents {
		t := tree.RandomAttachment(n, rng.New(seed+uint64(i)))
		parents[i] = append([]int(nil), t.Parents()...)
		for _, e := range mincut.RandomGraph(t, n/4, 10, rng.New(seed+100+uint64(i))) {
			edgesOf[i] = append(edgesOf[i], wire.Edge{U: e.U, V: e.V, W: e.W})
		}
	}

	var (
		mu       sync.Mutex
		queriesN int64
		rejected int64
	)
	conns := make([]*wire.Client, clients)
	for c := range conns {
		cl, err := wire.Dial(addr, wire.DialOptions{DialTimeout: 5 * time.Second})
		if err != nil {
			fatal(err)
		}
		defer cl.Close()
		conns[c] = cl
	}

	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := conns[c]
			r := rng.New(seed ^ uint64(c)*0x9e3779b97f4a7c15)
			var served, lost int64
			do := func(q *wire.Query) int {
				_, err := cl.Do(q)
				var we *wire.Error
				switch {
				case err == nil:
					return 1
				case errors.As(err, &we) && (we.Status == wire.StatusTooMany || we.Status == wire.StatusUnavailable):
					lost++
					return 0
				default:
					fatal(err)
					return 0
				}
			}
			for round := 0; round < rounds; round++ {
				ti := r.Intn(trees)
				if cutSh > 0 && (c+round)%cutSh == 0 {
					q := wire.Query{Kind: wire.KindMinCut, Parents: parents[ti], Edges: edgesOf[ti]}
					served += int64(do(&q) * len(edgesOf[ti]))
					continue
				}
				vals := make([]int64, n)
				for i := range vals {
					vals[i] = int64(r.Intn(1000))
				}
				q := wire.Query{Kind: wire.KindTreefix, Parents: parents[ti], Op: "add", Vals: vals}
				served += int64(do(&q) * n)
				for _, qs := range splitQueries(r, nq, subs, n) {
					wqs := make([]wire.LCAQuery, len(qs))
					for i, lq := range qs {
						wqs[i] = wire.LCAQuery{U: lq.U, V: lq.V}
					}
					q := wire.Query{Kind: wire.KindLCA, Parents: parents[ti], Queries: wqs}
					served += int64(do(&q) * len(wqs))
				}
			}
			mu.Lock()
			queriesN += served
			rejected += lost
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)

	fmt.Printf("mode=remote addr=%s trees=%d n=%d clients=%d rounds=%d sub-batches=%d\n",
		addr, trees, n, clients, rounds, subs)
	fmt.Printf("wall=%v  rounds/s=%.1f  queries/s=%.1f  backpressured=%d\n",
		elapsed.Round(time.Millisecond),
		float64(int64(clients)*int64(rounds))/elapsed.Seconds(),
		float64(queriesN)/elapsed.Seconds(),
		rejected)
}

// splitQueries draws nq random LCA queries over [0, idRange) in subs
// sub-batches.
func splitQueries(r *rng.RNG, nq, subs, idRange int) [][]lca.Query {
	batches := make([][]lca.Query, subs)
	per := (nq + subs - 1) / subs
	for b := range batches {
		m := per
		if (b+1)*per > nq {
			m = nq - b*per
		}
		if m < 0 {
			m = 0
		}
		qs := make([]lca.Query, m)
		for i := range qs {
			qs[i] = lca.Query{U: r.Intn(idRange), V: r.Intn(idRange)}
		}
		batches[b] = qs
	}
	return batches
}
