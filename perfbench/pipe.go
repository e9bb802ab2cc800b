package main

import (
	"net"
	"sync"
)

// pipeListener is an in-memory net.Listener: Dial hands the server one
// end of a net.Pipe, so ServeBinary runs with no socket underneath.
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func newPipeListener() *pipeListener {
	return &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
}

// Accept waits for the next Dial.
func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

// Close stops Accept; connections already handed out stay open.
func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

// Dial returns the client end of a new in-memory connection.
func (l *pipeListener) Dial() (net.Conn, error) {
	client, srv := net.Pipe()
	select {
	case l.conns <- srv:
		return client, nil
	case <-l.done:
		client.Close()
		srv.Close()
		return nil, net.ErrClosed
	}
}

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }
