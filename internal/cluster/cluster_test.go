package cluster

// In-process cluster tests: real servers, real binary-protocol
// listeners, real replication — only the processes are shared. The
// chaos test is the tentpole guarantee: killing a shard's owner
// mid-churn loses zero acked mutations.

import (
	"net"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"spatialtree/internal/persist"
	"spatialtree/internal/server"
	"spatialtree/internal/wire"
)

// testNode is one in-process cluster member.
type testNode struct {
	addr string
	dir  string
	ln   net.Listener
	st   *persist.Store
	srv  *server.Server
	node *Node

	closeOnce sync.Once
}

// kill tears the member down the way a crash would be observed by its
// peers: listener and connections die, then local state is released.
func (tn *testNode) kill() {
	tn.closeOnce.Do(func() {
		tn.srv.CloseBinary()
		_ = tn.node.Close()
		_ = tn.st.Close()
	})
}

// startMember boots one member of the cluster on a pre-bound listener
// (so every member knows the full address list before any one starts).
func startMember(t *testing.T, ln net.Listener, addrs []string, self int, dir string, replicas int) *testNode {
	t.Helper()
	return startMemberMode(t, ln, addrs, self, dir, replicas, false)
}

// startMemberMode is startMember with the routing mode explicit:
// redirect makes the member answer requests for shards it does not own
// with the owner's address instead of proxying them.
func startMemberMode(t *testing.T, ln net.Listener, addrs []string, self int, dir string, replicas int, redirect bool) *testNode {
	t.Helper()
	st, err := persist.Open(persist.Options{Dir: filepath.Join(dir, "data")})
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	srv := server.New(server.Config{
		Durability: server.Durability{Store: st},
		Timeouts:   server.Timeouts{TCPIdle: -1},
		Cluster: server.Cluster{
			Self:     addrs[self],
			Peers:    addrs,
			Replicas: replicas,
			Redirect: redirect,
		},
	})
	if _, err := srv.Recover(); err != nil {
		t.Fatalf("recover: %v", err)
	}
	n, err := New(srv, Options{
		ReplicaDir: filepath.Join(dir, "replicas"),
		DownFor:    100 * time.Millisecond,
		Dial:       wire.DialOptions{DialTimeout: time.Second},
	})
	if err != nil {
		t.Fatalf("cluster.New: %v", err)
	}
	go srv.ServeBinary(ln)
	tn := &testNode{addr: addrs[self], dir: dir, ln: ln, st: st, srv: srv, node: n}
	t.Cleanup(tn.kill)
	return tn
}

// startCluster boots size members with fresh stores and tempdirs.
func startCluster(t *testing.T, size, replicas int) []*testNode {
	t.Helper()
	return startClusterMode(t, size, replicas, false)
}

// startClusterMode is startCluster with the routing mode explicit (see
// startMemberMode).
func startClusterMode(t *testing.T, size, replicas int, redirect bool) []*testNode {
	t.Helper()
	lns := make([]net.Listener, size)
	addrs := make([]string, size)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	nodes := make([]*testNode, size)
	for i := range nodes {
		nodes[i] = startMemberMode(t, lns[i], addrs, i, t.TempDir(), replicas, redirect)
	}
	return nodes
}

// chainParents builds an n-leaf chain tree (distinct n ⇒ distinct
// fingerprint ⇒ different ring position).
func chainParents(n int) []int {
	p := make([]int, n)
	p[0] = -1
	for i := 1; i < n; i++ {
		p[i] = i - 1
	}
	return p
}

// byAddr finds the member serving addr.
func byAddr(t *testing.T, nodes []*testNode, addr string) *testNode {
	t.Helper()
	for _, tn := range nodes {
		if tn.addr == addr {
			return tn
		}
	}
	t.Fatalf("no member at %s", addr)
	return nil
}

// ownerAndSuccessors resolves a cluster shard id to its ring walk.
func ownerAndSuccessors(t *testing.T, tn *testNode, id string) []string {
	t.Helper()
	key, ok := shardKey(id)
	if !ok {
		t.Fatalf("shard id %q is not a cluster id", id)
	}
	return tn.node.ring.Successors(key, len(tn.node.ring.nodes), nil)
}

// TestClusterFailoverNoAckedLoss is the chaos test: three members,
// full replication, concurrent mutation churn through both non-owners,
// and the owner killed mid-churn. Every acked mutation must survive
// into the promoted copy, and churn must keep acking after the kill.
func TestClusterFailoverNoAckedLoss(t *testing.T) {
	nodes := startCluster(t, 3, 2)

	res, err := nodes[0].node.DynCreate(chainParents(8), 0, "")
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	id, n0 := res.ID, res.N
	walk := ownerAndSuccessors(t, nodes[0], id)
	owner := byAddr(t, nodes, walk[0])
	var survivors []*testNode
	for _, tn := range nodes {
		if tn != owner {
			survivors = append(survivors, tn)
		}
	}

	var mu sync.Mutex
	var ackedEpochs []uint64
	killed := make(chan struct{})
	done := make(chan struct{})
	var churn sync.WaitGroup
	const preKill, postKill = 20, 40

	for _, tn := range survivors {
		churn.Add(1)
		go func(tn *testNode) {
			defer churn.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				r, err := tn.node.Mutate(id, wire.OpInsert, 0)
				if err != nil {
					// Unavailability while routing converges on the
					// successor is the allowed failure mode. An unacked
					// mutation carries no guarantee either way.
					time.Sleep(5 * time.Millisecond)
					continue
				}
				mu.Lock()
				ackedEpochs = append(ackedEpochs, r.Epoch)
				n := len(ackedEpochs)
				mu.Unlock()
				if n == preKill {
					close(killed)
				}
				if n >= preKill+postKill {
					select {
					case <-done:
					default:
						close(done)
					}
					return
				}
			}
		}(tn)
	}

	<-killed
	owner.kill() // the chaos event: the shard's owner dies mid-churn

	select {
	case <-done:
	case <-time.After(30 * time.Second):
		close(done)
		churn.Wait()
		mu.Lock()
		defer mu.Unlock()
		t.Fatalf("churn stalled after owner kill: %d/%d mutations acked", len(ackedEpochs), preKill+postKill)
	}
	churn.Wait()

	var maxAcked uint64
	for _, e := range ackedEpochs {
		if e > maxAcked {
			maxAcked = e
		}
	}

	// Exactly one survivor — the ring successor — now serves the shard.
	succ := byAddr(t, nodes, walk[1])
	de, ok := succ.srv.DynShard(id)
	if !ok {
		t.Fatalf("ring successor %s does not serve %s after owner death", succ.addr, id)
	}
	for _, tn := range survivors {
		if tn != succ {
			if _, also := tn.srv.DynShard(id); also {
				t.Fatalf("both survivors serve %s", id)
			}
		}
	}

	// Zero acked loss: epochs are sequential per shard, so the promoted
	// copy containing epoch maxAcked contains every acked mutation.
	if got := de.Epoch(); got < maxAcked {
		t.Fatalf("promoted shard at epoch %d, but epoch %d was acked — acked mutations lost", got, maxAcked)
	}
	// Inserts only: the leaf count must account for exactly every
	// applied mutation (acked or in-flight at the kill), no more.
	if got, want := de.N(), n0+int(de.Epoch()); got != want {
		t.Fatalf("promoted shard has %d leaves, want %d (n0 %d + %d applied mutations)", got, want, n0, de.Epoch())
	}
	mu.Lock()
	acked := len(ackedEpochs)
	mu.Unlock()
	if int(de.Epoch()) < acked {
		t.Fatalf("promoted shard applied %d mutations, but %d were acked", de.Epoch(), acked)
	}

	// The cluster still takes writes for the shard through any survivor.
	for _, tn := range survivors {
		r, err := tn.node.Mutate(id, wire.OpInsert, 0)
		if err != nil {
			t.Fatalf("post-failover mutate via %s: %v", tn.addr, err)
		}
		if r.Epoch <= maxAcked {
			t.Fatalf("post-failover epoch %d did not advance past %d", r.Epoch, maxAcked)
		}
		maxAcked = r.Epoch
	}
}

// TestReplicationTargetsRingSuccessors: with R = 1 on three members,
// the shard's one replica lives exactly at the ring successor — the
// node a failover would promote — and nowhere else.
func TestReplicationTargetsRingSuccessors(t *testing.T) {
	nodes := startCluster(t, 3, 1)
	res, err := nodes[0].node.DynCreate(chainParents(5), 0, "")
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	id := res.ID
	walk := ownerAndSuccessors(t, nodes[0], id)
	ownerTN, follower, bystander := byAddr(t, nodes, walk[0]), byAddr(t, nodes, walk[1]), byAddr(t, nodes, walk[2])

	const muts = 5
	var last server.MutateResult
	for i := 0; i < muts; i++ {
		if last, err = ownerTN.node.Mutate(id, wire.OpInsert, 0); err != nil {
			t.Fatalf("mutate %d: %v", i, err)
		}
	}
	if cur := follower.node.Status().ReplicaCursors[id]; cur != last.Epoch {
		t.Fatalf("follower cursor %d, want %d", cur, last.Epoch)
	}
	if cur, has := bystander.node.Status().ReplicaCursors[id]; has {
		t.Fatalf("bystander %s holds a replica at cursor %d; R=1 should ship only to the successor", bystander.addr, cur)
	}
}

// TestReplicaBootRecovery: a follower restarted from disk comes back
// with its replica cursor intact, and can still be promoted — the
// restart loses nothing the owner acked.
func TestReplicaBootRecovery(t *testing.T) {
	nodes := startCluster(t, 3, 1)
	res, err := nodes[0].node.DynCreate(chainParents(4), 0, "")
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	id, n0 := res.ID, res.N
	walk := ownerAndSuccessors(t, nodes[0], id)
	ownerTN, follower := byAddr(t, nodes, walk[0]), byAddr(t, nodes, walk[1])

	const muts = 5
	var last server.MutateResult
	for i := 0; i < muts; i++ {
		if last, err = ownerTN.node.Mutate(id, wire.OpInsert, 0); err != nil {
			t.Fatalf("mutate %d: %v", i, err)
		}
	}
	if cur := follower.node.Status().ReplicaCursors[id]; cur != last.Epoch {
		t.Fatalf("follower cursor %d before restart, want %d", cur, last.Epoch)
	}

	// Restart the follower on the same directories and address.
	idx := -1
	addrs := make([]string, len(nodes))
	for i, tn := range nodes {
		addrs[i] = tn.addr
		if tn == follower {
			idx = i
		}
	}
	follower.kill()
	ln, err := net.Listen("tcp", follower.addr)
	if err != nil {
		t.Fatalf("rebind %s: %v", follower.addr, err)
	}
	follower = startMember(t, ln, addrs, idx, follower.dir, 1)
	nodes[idx] = follower

	if cur := follower.node.Status().ReplicaCursors[id]; cur != last.Epoch {
		t.Fatalf("follower cursor %d after restart, want %d", cur, last.Epoch)
	}

	// Kill the owner; the restarted follower must promote its recovered
	// replica and continue the epoch sequence without a gap.
	ownerTN.kill()
	r, err := follower.node.Mutate(id, wire.OpInsert, 0)
	if err != nil {
		t.Fatalf("post-restart failover mutate: %v", err)
	}
	if r.Epoch != last.Epoch+1 {
		t.Fatalf("failover epoch %d, want %d", r.Epoch, last.Epoch+1)
	}
	if want := n0 + int(r.Epoch); r.N != want {
		t.Fatalf("failover leaf count %d, want %d", r.N, want)
	}
}

// TestRoutedCreateAndQuery: creations route to the hash-chosen owner no
// matter which member takes the request, and every member answers
// queries for every shard (proxying when it is not the owner).
func TestRoutedCreateAndQuery(t *testing.T) {
	nodes := startCluster(t, 3, 1)
	// Create via every member; ownership must follow the ring, not the
	// receiving member.
	for i, tn := range nodes {
		res, err := tn.node.DynCreate(chainParents(6+i), 0, "")
		if err != nil {
			t.Fatalf("create via %s: %v", tn.addr, err)
		}
		walk := ownerAndSuccessors(t, tn, res.ID)
		ownerTN := byAddr(t, nodes, walk[0])
		if _, ok := ownerTN.srv.DynShard(res.ID); !ok {
			t.Fatalf("shard %s not served by its ring owner %s", res.ID, ownerTN.addr)
		}
		for _, other := range nodes {
			if other != ownerTN {
				if _, ok := other.srv.DynShard(res.ID); ok {
					t.Fatalf("shard %s also served by non-owner %s", res.ID, other.addr)
				}
			}
		}
		// A mutation through each member lands on the same single copy.
		for j, via := range nodes {
			r, err := via.node.Mutate(res.ID, wire.OpInsert, 0)
			if err != nil {
				t.Fatalf("mutate %s via %s: %v", res.ID, via.addr, err)
			}
			if r.Epoch != uint64(j+1) {
				t.Fatalf("mutate %s via %s: epoch %d, want %d", res.ID, via.addr, r.Epoch, j+1)
			}
		}
	}
}

// TestNonClusterIDsStayLocal: ids without the cluster prefix never
// route — each member serves (and fails) them locally.
func TestNonClusterIDsStayLocal(t *testing.T) {
	nodes := startCluster(t, 2, 1)
	if _, err := nodes[0].node.Mutate("d1", wire.OpInsert, 0); err == nil {
		t.Fatal("mutate of unknown local id succeeded")
	} else if server.Classify(err) != server.StatusNotFound {
		t.Fatalf("unknown local id classified %v, want %v", server.Classify(err), server.StatusNotFound)
	}
}
