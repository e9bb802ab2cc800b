package cluster

// Queries through a cluster member that does not own the shard: in
// proxy mode both codecs (HTTP/JSON and binary) must answer exactly
// what the owner answers locally; in redirect mode both must name the
// owner; and in either mode a malformed query is the edge's own 400,
// never a proxy hop or a redirect.

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"spatialtree/internal/exprtree"
	"spatialtree/internal/rng"
	"spatialtree/internal/server"
	"spatialtree/internal/wire"
)

// queryFixture is a 3-member cluster serving one dyn shard over an
// expression tree (so every query kind, expr included, applies to it).
type queryFixture struct {
	owner, edge *testNode // the shard's owner and a member that is not
	id          string
	ex          *exprtree.Expr
}

func newQueryFixture(t *testing.T, redirect bool) *queryFixture {
	t.Helper()
	nodes := startClusterMode(t, 3, 1, redirect)
	ex := exprtree.Random(64, rng.New(7))
	// In redirect mode only the ring owner creates; try each member.
	var res server.DynCreateResult
	var err error
	for _, tn := range nodes {
		if res, err = tn.node.DynCreate(ex.Tree.Parents(), 0, ""); err == nil {
			break
		}
	}
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	f := &queryFixture{id: res.ID, ex: ex}
	f.owner = byAddr(t, nodes, ownerAndSuccessors(t, nodes[0], res.ID)[0])
	for _, tn := range nodes {
		if tn != f.owner {
			f.edge = tn
			break
		}
	}
	if _, served := f.edge.srv.DynShard(f.id); served {
		t.Fatalf("non-owner %s serves %s", f.edge.addr, f.id)
	}
	return f
}

// dial opens a binary client to tn that surfaces redirects. A reply
// that never arrives — or arrives under an id the client did not send —
// fails the call at the read timeout instead of hanging the test.
func dial(t *testing.T, tn *testNode) *wire.Client {
	t.Helper()
	c, err := wire.Dial(tn.addr, wire.DialOptions{DialTimeout: time.Second, ReadTimeout: 10 * time.Second})
	if err != nil {
		t.Fatalf("dial %s: %v", tn.addr, err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// postQuery sends req to tn's dyn query endpoint for shard id.
func postQuery(t *testing.T, tn *testNode, id string, req server.QueryRequest) *httptest.ResponseRecorder {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	tn.srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/dyn/"+id+"/query", bytes.NewReader(body)))
	return rec
}

// wireQueries reads tn's count of binary query frames answered.
func wireQueries(tn *testNode) uint64 { return tn.srv.Metrics().Wire.Queries }

// queryPair is one query in both codecs' request models.
type queryPair struct {
	name string
	bin  wire.Query
	json server.QueryRequest
}

// queryMix builds a treefix, topdown, lca, mincut and expr query
// against the fixture's shard.
func (f *queryFixture) queryMix() []queryPair {
	n := f.ex.Tree.N()
	r := rng.New(99)
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(r.Intn(2000) - 1000)
	}
	var lcaBin []wire.LCAQuery
	var lcaJSON []server.LCAQuery
	var edgesBin []wire.Edge
	var edgesJSON []server.GraphEdge
	for i := 0; i < 16; i++ {
		u, v, w := r.Intn(n), r.Intn(n), int64(r.Intn(50)+1)
		lcaBin, lcaJSON = append(lcaBin, wire.LCAQuery{U: u, V: v}), append(lcaJSON, server.LCAQuery{U: u, V: v})
		if u != v {
			edgesBin, edgesJSON = append(edgesBin, wire.Edge{U: u, V: v, W: w}), append(edgesJSON, server.GraphEdge{U: u, V: v, W: w})
		}
	}
	kindsBin := make([]uint8, n)
	kindsJSON := make([]int, n)
	for i, k := range f.ex.Kind {
		kindsBin[i], kindsJSON[i] = uint8(k), int(k)
	}
	return []queryPair{
		{"treefix", wire.Query{ShardID: f.id, Kind: wire.KindTreefix, Op: "max", Vals: vals},
			server.QueryRequest{Kind: "treefix", Op: "max", Vals: vals}},
		{"topdown", wire.Query{ShardID: f.id, Kind: wire.KindTopDown, Vals: vals},
			server.QueryRequest{Kind: "topdown", Vals: vals}},
		{"lca", wire.Query{ShardID: f.id, Kind: wire.KindLCA, Queries: lcaBin},
			server.QueryRequest{Kind: "lca", Queries: lcaJSON}},
		{"mincut", wire.Query{ShardID: f.id, Kind: wire.KindMinCut, Edges: edgesBin},
			server.QueryRequest{Kind: "mincut", Edges: edgesJSON}},
		{"expr", wire.Query{ShardID: f.id, Kind: wire.KindExpr, ExprKinds: kindsBin, Vals: f.ex.Val},
			server.QueryRequest{Kind: "expr", ExprKinds: kindsJSON, Vals: f.ex.Val}},
	}
}

// TestProxiedQueryParity: every query kind sent to a non-owner, over
// either codec, is proxied to the owner and answers exactly what the
// owner answers locally.
func TestProxiedQueryParity(t *testing.T) {
	f := newQueryFixture(t, false)
	ownerCl, edgeCl := dial(t, f.owner), dial(t, f.edge)
	// Shift this client's request ids away from those of the edge's own
	// client to the owner: the edge must answer with the id it was sent,
	// not the proxy hop's.
	for i := 0; i < 8; i++ {
		if err := edgeCl.Ping(); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range f.queryMix() {
		q := p.bin
		want, err := ownerCl.Do(&q)
		if err != nil {
			t.Fatalf("%s at the owner: %v", p.name, err)
		}
		rec := postQuery(t, f.owner, f.id, p.json)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s over HTTP at the owner: %d %s", p.name, rec.Code, rec.Body)
		}
		var wantJSON server.QueryResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &wantJSON); err != nil {
			t.Fatal(err)
		}

		before := wireQueries(f.owner)
		q = p.bin
		got, err := edgeCl.Do(&q)
		if err != nil {
			t.Fatalf("%s over binary via non-owner: %v", p.name, err)
		}
		got.ID, want.ID = 0, 0
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s over binary via non-owner = %+v, owner answers %+v", p.name, got, want)
		}

		rec = postQuery(t, f.edge, f.id, p.json)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s over HTTP via non-owner: %d %s", p.name, rec.Code, rec.Body)
		}
		var gotJSON server.QueryResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &gotJSON); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotJSON, wantJSON) {
			t.Errorf("%s over HTTP via non-owner = %+v, owner answers %+v", p.name, gotJSON, wantJSON)
		}
		// Both codecs reached the owner as one proxied binary frame each.
		if hops := wireQueries(f.owner) - before; hops != 2 {
			t.Errorf("%s: owner answered %d proxied frames, want 2", p.name, hops)
		}
	}
}

// TestRedirectQueryParity: in redirect mode a non-owner answers every
// query kind, over either codec, with a redirect naming the owner.
func TestRedirectQueryParity(t *testing.T) {
	f := newQueryFixture(t, true)
	edgeCl := dial(t, f.edge)
	for _, p := range f.queryMix() {
		q := p.bin
		_, err := edgeCl.Do(&q)
		var we *wire.Error
		if !errors.As(err, &we) || we.Status != wire.StatusRedirect || we.Msg != f.owner.addr {
			t.Errorf("%s over binary via non-owner = %v, want a redirect to %s", p.name, err, f.owner.addr)
		}
		rec := postQuery(t, f.edge, f.id, p.json)
		var er server.ErrorResponse
		_ = json.Unmarshal(rec.Body.Bytes(), &er)
		if rec.Code != http.StatusMisdirectedRequest || er.Owner != f.owner.addr ||
			rec.Header().Get("X-Spatialtree-Owner") != f.owner.addr {
			t.Errorf("%s over HTTP via non-owner = %d %s, want 421 naming %s", p.name, rec.Code, rec.Body, f.owner.addr)
		}
	}
}

// TestMalformedQueryAtNonOwner: a query the owner would reject is
// rejected by the non-owner that received it — 400 over both codecs,
// in proxy and redirect mode alike — without a hop to the owner.
func TestMalformedQueryAtNonOwner(t *testing.T) {
	for _, mode := range []struct {
		name     string
		redirect bool
	}{{"proxy", false}, {"redirect", true}} {
		t.Run(mode.name, func(t *testing.T) {
			f := newQueryFixture(t, mode.redirect)
			edgeCl := dial(t, f.edge)
			n := f.ex.Tree.N()
			badKinds := make([]uint8, n)
			badKinds[0] = 3
			badJSON := make([]int, n)
			badJSON[0] = 3
			cases := []queryPair{
				{"bad op", wire.Query{ShardID: f.id, Kind: wire.KindTreefix, Op: "bogus", Vals: make([]int64, n)},
					server.QueryRequest{Kind: "treefix", Op: "bogus", Vals: make([]int64, n)}},
				{"expr kind 3", wire.Query{ShardID: f.id, Kind: wire.KindExpr, ExprKinds: badKinds, Vals: make([]int64, n)},
					server.QueryRequest{Kind: "expr", ExprKinds: badJSON, Vals: make([]int64, n)}},
			}
			before := wireQueries(f.owner)
			for _, c := range cases {
				q := c.bin
				_, err := edgeCl.Do(&q)
				var we *wire.Error
				if !errors.As(err, &we) || we.Status != wire.StatusBadRequest {
					t.Errorf("%s over binary via non-owner = %v, want StatusBadRequest", c.name, err)
				}
				if rec := postQuery(t, f.edge, f.id, c.json); rec.Code != http.StatusBadRequest {
					t.Errorf("%s over HTTP via non-owner = %d %s, want 400", c.name, rec.Code, rec.Body)
				}
			}
			if after := wireQueries(f.owner); after != before {
				t.Errorf("owner answered %d query frames for malformed queries, want 0", after-before)
			}
		})
	}
}
