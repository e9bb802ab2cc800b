package server

// Tests of the pipelined binary connection: the query window is real
// and bounded, control frames stay ordered while queries are in
// flight, and shutdown and protocol errors leave no query unanswered
// and no serving goroutine behind. CI runs them repeatedly under the
// race detector (-run 'TestBinaryPipelin'): they are the hammer on the
// reader/writer hand-off.

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"runtime"
	"runtime/pprof"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spatialtree/internal/tree"
	"spatialtree/internal/treefix"
	"spatialtree/internal/wire"
)

// sumTree registers a treefix shard on s and returns its id, a value
// vector and the reference subtree sums for it.
func sumTree(t *testing.T, s *Server, n int) (id string, vals, want []int64) {
	t.Helper()
	tr, err := tree.FromParents(testParents(n, 17))
	if err != nil {
		t.Fatal(err)
	}
	if id, err = s.RegisterTree(tr); err != nil {
		t.Fatal(err)
	}
	vals = make([]int64, n)
	for i := range vals {
		vals[i] = int64(i%97) - 40
	}
	return id, vals, treefix.SequentialBottomUp(tr, vals, treefix.Add)
}

// listenRaw starts s's binary listener and returns a raw connection to
// it, for tests that write frames the client would never send.
func listenRaw(t *testing.T, s *Server) net.Conn {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = s.ServeBinary(ln) }()
	t.Cleanup(s.CloseBinary)
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

// settledInFlight waits until at least one request is admitted, then
// until the admitted count holds still for 100ms, and returns it. It
// fails the test if the count ever exceeds limit.
func settledInFlight(t *testing.T, s *Server, limit int) int {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	last, still := -1, 0
	for time.Now().Before(deadline) {
		got := s.Metrics().Server.InFlight
		if got > limit {
			t.Fatalf("%d requests in flight, want at most %d", got, limit)
		}
		if got > 0 && got == last {
			if still++; still == 20 {
				return got
			}
		} else {
			last, still = got, 0
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("in-flight count never settled (last %d)", last)
	return 0
}

// TestBinaryPipelineWindow: one connection fills a batch. 3×window
// concurrent treefix queries over one wire.Client, against a scheduler
// that holds each batch for 500ms, put exactly window of them in
// flight — more than one (the reader keeps reading) and no more (the
// window bounds it) — and each window then coalesces into one batch.
func TestBinaryPipelineWindow(t *testing.T) {
	s, _ := newTestServer(t, Config{Scheduler: Scheduler{MaxBatch: 64, MaxDelay: 500 * time.Millisecond}})
	id, vals, want := sumTree(t, s, 256)
	cl := newWireServer(t, s)

	const calls = 3 * window
	var wg sync.WaitGroup
	errs := make([]error, calls)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := cl.Do(&wire.Query{Kind: wire.KindTreefix, TreeID: id, Vals: vals})
			if err == nil && !slices.Equal(res.Sums, want) {
				err = fmt.Errorf("call %d: sums differ from the reference", i)
			}
			errs[i] = err
		}(i)
	}
	if got := settledInFlight(t, s, window); got != window {
		t.Fatalf("one connection holds %d queries in flight, want the window %d", got, window)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	m := s.Metrics().Scheduler
	if m.Requests != calls {
		t.Fatalf("scheduler saw %d requests, want %d", m.Requests, calls)
	}
	if per := float64(m.Requests) / float64(m.Batches); per < 4 {
		t.Fatalf("%d requests in %d batches (%.2f per batch), want >= 4: one connection did not fill batches",
			m.Requests, m.Batches, per)
	}
}

// readFrame reads one frame from rd and decodes it into a Result,
// Mutated or Error.
func readFrame(t *testing.T, rd *wire.Reader) any {
	t.Helper()
	kind, payload, err := rd.Next()
	if err != nil {
		t.Fatalf("reading a reply: %v", err)
	}
	var msg interface{ Decode([]byte) error }
	switch kind {
	case wire.FrameResult:
		msg = new(wire.Result)
	case wire.FrameMutated:
		msg = new(wire.Mutated)
	case wire.FrameError:
		msg = new(wire.Error)
	default:
		t.Fatalf("unexpected reply frame kind %d", kind)
	}
	if err := msg.Decode(payload); err != nil {
		t.Fatal(err)
	}
	return msg
}

// TestBinaryPipelineOrdering: mutate frames interleaved with queries on
// one connection still apply in send order. Their acks arrive in send
// order with strictly increasing epochs, while the queries between them
// run concurrently and answer correctly.
func TestBinaryPipelineOrdering(t *testing.T) {
	s, _ := newTestServer(t, Config{Scheduler: Scheduler{MaxBatch: 64, MaxDelay: 20 * time.Millisecond}})
	id, vals, want := sumTree(t, s, 300)
	dyn, err := s.dynCreate(testParents(64, 5), 0, "")
	if err != nil {
		t.Fatal(err)
	}
	conn := listenRaw(t, s)

	const pairs = 24
	var frames []byte
	for i := uint64(0); i < pairs; i++ {
		frames = wire.AppendQuery(frames, &wire.Query{ID: 2*i + 1, Kind: wire.KindTreefix, TreeID: id, Vals: vals})
		frames = wire.AppendMutate(frames, &wire.Mutate{ID: 2*i + 2, ShardID: dyn.ID, Op: wire.OpInsert, Arg: 0})
	}
	go func() { _, _ = conn.Write(frames) }()

	rd := wire.NewReader(conn, 1<<20)
	var ackIDs, resultIDs []uint64
	var lastEpoch uint64
	for len(ackIDs)+len(resultIDs) < 2*pairs {
		switch m := readFrame(t, rd).(type) {
		case *wire.Mutated:
			if m.Epoch <= lastEpoch {
				t.Fatalf("mutation %d acked at epoch %d after epoch %d", m.ID, m.Epoch, lastEpoch)
			}
			lastEpoch = m.Epoch
			ackIDs = append(ackIDs, m.ID)
		case *wire.Result:
			if !slices.Equal(m.Sums, want) {
				t.Fatalf("query %d: sums differ from the reference", m.ID)
			}
			resultIDs = append(resultIDs, m.ID)
		case *wire.Error:
			t.Fatalf("error reply %+v", m)
		}
	}
	for i, got := range ackIDs {
		if want := uint64(2*i + 2); got != want {
			t.Fatalf("mutation acks arrived as %v, want send order", ackIDs)
		}
	}
	slices.Sort(resultIDs)
	for i, got := range resultIDs {
		if want := uint64(2*i + 1); got != want {
			t.Fatalf("query results %v: want each query answered once", resultIDs)
		}
	}
}

// TestBinaryPipelineCloseBinary: CloseBinary with a full window in
// flight returns every client call, and once the held batch resolves no
// serving goroutine is left: the reader waited for its slots and
// closed the writer.
func TestBinaryPipelineCloseBinary(t *testing.T) {
	s := New(Config{Scheduler: Scheduler{MaxBatch: 64, MaxDelay: 300 * time.Millisecond}})
	id, vals, want := sumTree(t, s, 128)
	// One query first, so whatever the shard starts lazily is running
	// before the baseline count.
	var res wire.Result
	if err := s.query(&wire.Query{Kind: wire.KindTreefix, TreeID: id, Vals: vals}, &res, &wireScratch{}); err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = s.ServeBinary(ln) }()
	cl, err := wire.Dial(ln.Addr().String(), wire.DialOptions{DialTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	// A call may fail (its connection is closed under it) but must
	// return, and must never answer wrongly.
	var wg sync.WaitGroup
	var wrong atomic.Int32
	for i := 0; i < window; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := cl.Do(&wire.Query{Kind: wire.KindTreefix, TreeID: id, Vals: vals})
			if err == nil && !slices.Equal(res.Sums, want) {
				wrong.Add(1)
			}
		}()
	}
	if got := settledInFlight(t, s, window); got != window {
		t.Fatalf("%d queries in flight, want %d", got, window)
	}
	s.CloseBinary()
	wg.Wait()
	if n := wrong.Load(); n > 0 {
		t.Fatalf("%d calls answered with sums that differ from the reference", n)
	}
	cl.Close()

	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			var dump bytes.Buffer
			_ = pprof.Lookup("goroutine").WriteTo(&dump, 1)
			t.Fatalf("%d goroutines left, want %d:\n%s", runtime.NumGoroutine(), before, dump.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestBinaryPipelineCorruptFrame: a corrupt frame behind a window of
// in-flight queries still gets its connection-level error — after
// every query before it is answered — and then the server hangs up.
func TestBinaryPipelineCorruptFrame(t *testing.T) {
	s, _ := newTestServer(t, Config{Scheduler: Scheduler{MaxBatch: 64, MaxDelay: 50 * time.Millisecond}})
	id, vals, want := sumTree(t, s, 200)
	conn := listenRaw(t, s)

	var frames []byte
	for i := uint64(1); i <= window; i++ {
		frames = wire.AppendQuery(frames, &wire.Query{ID: i, Kind: wire.KindTreefix, TreeID: id, Vals: vals})
	}
	// Exactly one header's worth of garbage, so the server has read
	// every byte sent when it hangs up.
	frames = append(frames, "GET / HTTP/1.1"...)
	go func() { _, _ = conn.Write(frames) }()

	_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	rd := wire.NewReader(conn, 1<<20)
	seen := make(map[uint64]bool)
	for len(seen) < window {
		m, ok := readFrame(t, rd).(*wire.Result)
		if !ok {
			t.Fatalf("reply %d is %+v, want a result", len(seen)+1, m)
		}
		if seen[m.ID] || !slices.Equal(m.Sums, want) {
			t.Fatalf("query %d: duplicate or wrong result", m.ID)
		}
		seen[m.ID] = true
	}
	we, ok := readFrame(t, rd).(*wire.Error)
	if !ok || we.ID != 0 || we.Status != wire.StatusBadRequest {
		t.Fatalf("reply after the queries = %+v, want a connection-level StatusBadRequest", we)
	}
	if _, _, err := rd.Next(); err != io.EOF {
		t.Fatalf("after the error frame: %v, want the server to hang up", err)
	}
	if s.Metrics().Wire.Errors == 0 {
		t.Fatal("the corrupt frame did not advance the wire error counter")
	}
}
