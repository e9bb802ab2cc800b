package server

// The binary-protocol listener: a codec onto the same request path as
// the HTTP handlers. A query frame decodes straight into the wire.Query
// that Server.query runs — the same admission, validation, routing
// (cluster hooks included), submission and error classification — and
// its wire.Result encodes straight back. A connection is a pipeline:
// the reader hands each query frame to a slot's worker goroutine and
// keeps reading, up to window queries in flight, so one connection's
// queries coalesce into shared batches as many connections' do; a
// single writer per connection streams the replies in completion
// order, one write per burst. Control frames (mutate, dyn-create,
// replication, handback) stay serial on the reader, in arrival order.
// Each in-flight query owns a reused slot — decoded query, result,
// submission scratch — so what a locally served query still allocates
// is routing's (the tree id engineFor formats) and the engine's
// (future, batch, kernel output); TestBinaryQueryAllocs pins the count.

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"time"

	"spatialtree/internal/wire"
)

// ServeBinary accepts binary-protocol connections from ln until the
// listener is closed (by the caller or by CloseBinary) and serves each
// on its own goroutine. Like http.Server.Serve, it always returns a
// non-nil error; net.ErrClosed is the clean-shutdown one.
func (s *Server) ServeBinary(ln net.Listener) error {
	s.wireEnabled.Store(true)
	s.wireMu.Lock()
	s.wireListeners[ln] = struct{}{}
	s.wireMu.Unlock()
	defer func() {
		s.wireMu.Lock()
		delete(s.wireListeners, ln)
		s.wireMu.Unlock()
	}()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		s.wireTotal.Add(1)
		s.wireMu.Lock()
		s.wireConns[conn] = struct{}{}
		s.wireMu.Unlock()
		go func() {
			defer func() {
				s.wireMu.Lock()
				delete(s.wireConns, conn)
				s.wireMu.Unlock()
				conn.Close()
			}()
			s.serveConn(conn)
		}()
	}
}

// CloseBinary closes every binary-protocol listener registered by
// ServeBinary and every open connection. Call it after Drain: draining
// already makes every connection answer StatusUnavailable, so closing
// here cuts off clients that never read their responses.
func (s *Server) CloseBinary() {
	s.wireMu.Lock()
	lns := make([]net.Listener, 0, len(s.wireListeners))
	for ln := range s.wireListeners {
		lns = append(lns, ln)
	}
	conns := make([]net.Conn, 0, len(s.wireConns))
	for c := range s.wireConns {
		conns = append(conns, c)
	}
	s.wireMu.Unlock()
	for _, ln := range lns {
		_ = ln.Close()
	}
	for _, c := range conns {
		_ = c.Close()
	}
}

// window caps the query frames one connection has in flight. Once it
// is full the reader stops reading, so further frames wait in the
// socket and TCP backpressure holds the client. Eight already saturate
// the batch scheduler on a 2-CPU host; deeper windows only add memory.
const window = 8

// flushAt is the reply-buffer size at which the writer writes without
// waiting for its queue to empty.
const flushAt = 64 << 10

// slot is one in-flight query frame's connection-local state: its
// decoded query, result and submission scratch, reused query to query.
type slot struct {
	q       wire.Query
	res     wire.Result
	scratch wireScratch
	err     error
	run     chan struct{} // one send per query; closed when the slot is dropped
}

// reply is one item for a connection's writer: a finished query slot,
// or an encoded frame.
type reply struct {
	sl    *slot
	frame []byte
}

// serveConn runs one connection: this goroutine reads frames, decodes
// each query frame into a free slot whose worker goroutine serves it,
// and one writer goroutine sends every reply. The reader only waits
// for a slot when window queries are in flight. Every other frame is
// served inline, in arrival order: the per-shard ack gate depends on
// mutations and replication ships applying in the order they were
// sent. When the reader stops, it waits for its in-flight queries,
// sends its last frame (the connection-level error, if any) and closes
// the writer.
func (s *Server) serveConn(conn net.Conn) {
	rd := wire.NewReader(bufio.NewReader(conn), int(s.cfg.Limits.BodyLimit))
	replies := make(chan reply, window+1) // room for every slot's reply and one of the reader's
	free := make(chan *slot, window)      // holds every slot at once
	written := make(chan struct{})
	go func() {
		defer close(written)
		s.writeReplies(conn, replies, free)
	}()

	var (
		idle  []*slot // free slots, the most recently freed last
		slots int     // slots made so far, at most window
		last  []byte  // the connection-level error that ends the conversation
	)
	// acquire returns a slot, waiting while window queries are in
	// flight. It reuses the most recently freed slot, and when nothing
	// is in flight it drops the others: an idle or lightly loaded
	// connection holds one warm slot's buffers, not window's.
	acquire := func() *slot {
		for len(free) > 0 {
			idle = append(idle, <-free)
		}
		if n := len(idle); n > 0 {
			sl := idle[n-1]
			if n == slots {
				for _, cold := range idle[:n-1] {
					close(cold.run)
				}
				clear(idle)
				idle, slots = idle[:0], 1
			} else {
				idle = idle[:n-1]
			}
			return sl
		}
		if slots < window {
			slots++
			sl := &slot{run: make(chan struct{})}
			go s.serveSlot(sl, replies)
			return sl
		}
		return <-free
	}

read:
	for {
		if t := s.cfg.Timeouts.TCPIdle; t > 0 {
			// The deadline covers the whole frame read: it doubles as
			// the slow-write guard HTTP gets from ReadTimeout, so a
			// client trickling a frame byte-by-byte cannot hold the
			// connection past the idle budget.
			_ = conn.SetReadDeadline(time.Now().Add(t))
		}
		kind, payload, err := rd.Next()
		switch {
		case err == nil:
		case errors.Is(err, wire.ErrTooLarge):
			// The reader discarded the payload, so the stream is still
			// framed; the query id was in the discarded bytes, hence the
			// connection-level id 0.
			replies <- reply{frame: wire.AppendError(nil, &wire.Error{Status: wire.StatusTooLarge, Msg: err.Error()})}
			continue
		case errors.Is(err, wire.ErrCorrupt), errors.Is(err, wire.ErrVersion):
			// The stream cannot be resynchronized: answer once at the
			// connection level and hang up.
			s.wireErrors.Add(1)
			last = wire.AppendError(nil, &wire.Error{Status: wire.StatusBadRequest, Msg: err.Error()})
			break read
		default:
			// io.EOF (clean close), deadline expiry, reset: nothing to say.
			break read
		}

		var out []byte
		switch kind {
		case wire.FramePing:
			out = wire.AppendPong(nil)
		case wire.FrameQuery:
			// A slot's decode scratch is reused even under shadow
			// metering: the engine copies a sampled batch's inputs out
			// before any future resolves (engine.copyShadowInputs), so
			// no engine-side read of these buffers survives the reply.
			sl := acquire()
			if err = sl.q.Decode(payload); err == nil {
				s.wireQueries.Add(1)
				sl.run <- struct{}{}
				continue
			}
			idle = append(idle, sl)
		case wire.FrameDynCreate:
			var dc wire.DynCreate
			if err = dc.Decode(payload); err == nil {
				out = s.serveWireDynCreate(&dc)
			}
		case wire.FrameMutate:
			var m wire.Mutate
			if err = m.Decode(payload); err == nil {
				out = s.serveWireMutate(&m)
			}
		case wire.FrameRepSnapshot:
			var rs wire.RepSnapshot
			if err = rs.Decode(payload); err == nil {
				out = s.serveWireRep(rs.ID, rs.ShardID, func(h ClusterHooks) (uint64, uint8, string) {
					return h.ApplySnapshot(rs.ShardID, rs.Blob)
				})
			}
		case wire.FrameRepRecords:
			var rr wire.RepRecords
			if err = rr.Decode(payload); err == nil {
				out = s.serveWireRep(rr.ID, rr.ShardID, func(h ClusterHooks) (uint64, uint8, string) {
					return h.ApplyRecords(rr.ShardID, rr.Recs)
				})
			}
		case wire.FrameHandbackOffer:
			var ho wire.HandbackOffer
			if err = ho.Decode(payload); err == nil {
				out = s.serveWireHandback(&ho)
			}
		default:
			err = fmt.Errorf("unexpected frame kind %d", kind)
		}
		if err != nil {
			// The stream is framed but the peer is speaking garbage:
			// answer at the connection level and hang up.
			s.wireErrors.Add(1)
			last = wire.AppendError(nil, &wire.Error{Status: wire.StatusBadRequest, Msg: err.Error()})
			break read
		}
		replies <- reply{frame: out}
	}

	for n := slots - len(idle); n > 0; n-- {
		idle = append(idle, <-free)
	}
	for _, sl := range idle {
		close(sl.run)
	}
	if last != nil {
		replies <- reply{frame: last}
	}
	close(replies)
	<-written
}

// serveSlot is sl's worker goroutine: it serves each query the reader
// decodes into sl and hands sl to the writer. A long-lived worker keeps
// its grown stack, where a goroutine per query would grow a fresh one
// every time.
func (s *Server) serveSlot(sl *slot, replies chan<- reply) {
	for range sl.run {
		sl.err = s.query(&sl.q, &sl.res, &sl.scratch)
		replies <- reply{sl: sl}
	}
}

// writeReplies is a connection's only writer. It appends each reply to
// one buffer, returns an encoded slot to free, and writes the buffer
// once no reply is queued or it reaches flushAt, so a burst of replies
// costs one write. A write error closes the connection, which stops the
// reader; the writer then keeps taking replies, discarding them, so no
// slot is stranded, until the reader closes replies.
func (s *Server) writeReplies(conn net.Conn, replies <-chan reply, free chan<- *slot) {
	var buf []byte
	broken := false
	for r := range replies {
		if sl := r.sl; sl != nil {
			if sl.err != nil {
				buf = appendWireErr(buf, sl.q.ID, sl.err)
			} else {
				buf = wire.AppendResult(buf, &sl.res)
			}
			// A free slot must not pin its last kernel output.
			sl.res = wire.Result{}
			free <- sl
		} else {
			buf = append(buf, r.frame...)
		}
		if len(replies) > 0 && len(buf) < flushAt {
			continue
		}
		if !broken {
			if t := s.cfg.Timeouts.TCPWrite; t > 0 {
				_ = conn.SetWriteDeadline(time.Now().Add(t))
			}
			if _, err := conn.Write(buf); err != nil {
				broken = true
				_ = conn.Close()
			}
		}
		buf = buf[:0]
	}
}

// serveWireDynCreate serves one FrameDynCreate: the binary twin of
// POST /v1/dyn, routed through the cluster hooks exactly as the HTTP
// handler is. A frame naming its shard id is the cluster owner path —
// the proxying peer already routed the id here, so it must be created
// locally (re-routing would bounce between skewed ring views).
func (s *Server) serveWireDynCreate(dc *wire.DynCreate) []byte {
	s.wireQueries.Add(1)
	if err := s.admit(); err != nil {
		return appendWireErr(nil, dc.ID, err)
	}
	defer s.release()
	var res DynCreateResult
	var err error
	if dc.ShardID != "" {
		res, err = s.DynCreateLocal(dc.ShardID, dc.Parents, dc.Epsilon, dc.Backend)
	} else {
		res, err = s.dynCreate(dc.Parents, dc.Epsilon, dc.Backend)
	}
	if err != nil {
		return appendWireErr(nil, dc.ID, err)
	}
	return wire.AppendDynCreated(nil, &wire.DynCreated{ID: dc.ID, ShardID: res.ID, N: res.N, Backend: res.Backend})
}

// serveWireMutate serves one FrameMutate: the binary twin of
// POST /v1/dyn/{id}/mutate, routed through the cluster hooks.
func (s *Server) serveWireMutate(m *wire.Mutate) []byte {
	s.wireQueries.Add(1)
	if err := s.admit(); err != nil {
		return appendWireErr(nil, m.ID, err)
	}
	defer s.release()
	res, err := s.mutate(m.ShardID, m.Op, m.Arg)
	if err != nil {
		return appendWireErr(nil, m.ID, err)
	}
	return wire.AppendMutated(nil, &wire.Mutated{ID: m.ID, Vertex: res.Vertex, Moved: res.Moved, Epoch: res.Epoch, N: res.N})
}

// serveWireRep serves one replication frame (FrameRepSnapshot or
// FrameRepRecords), answering with a RepAck. Replication deliberately
// bypasses the admission queue: an owner's mutation holds an admission
// slot while it waits for follower acks, so a follower whose apply had
// to queue behind that same bounded queue could deadlock the cluster at
// saturation. Replication traffic is peer-originated and bounded by the
// peer count, not by untrusted clients.
func (s *Server) serveWireRep(id uint64, shardID string, apply func(ClusterHooks) (uint64, uint8, string)) []byte {
	h := s.clusterHooks()
	if h == nil {
		return wire.AppendError(nil, &wire.Error{ID: id, Status: wire.StatusBadRequest, Msg: "not a cluster node"})
	}
	cursor, code, msg := apply(h)
	return wire.AppendRepAck(nil, &wire.RepAck{ID: id, ShardID: shardID, Cursor: cursor, Code: code, Msg: msg})
}

// serveWireHandback serves one FrameHandbackOffer, answering with a
// HandbackGrant. Like replication, handback bypasses the admission
// queue: it is peer-originated, bounded by the peer count, and must
// make progress while client traffic saturates the bounded queue — a
// rejoiner proxying its clients' requests here depends on it.
func (s *Server) serveWireHandback(ho *wire.HandbackOffer) []byte {
	h := s.clusterHooks()
	if h == nil {
		return wire.AppendError(nil, &wire.Error{ID: ho.ID, Status: wire.StatusBadRequest, Msg: "not a cluster node"})
	}
	g := h.Handback(ho)
	g.ID, g.ShardID = ho.ID, ho.ShardID
	return wire.AppendHandbackGrant(nil, g)
}
