package transport

import (
	"bufio"
	"encoding/gob"
	"fmt"
	"io"
	"log"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// dialTimeout bounds one connection attempt, so a send to an unreachable
// peer fails (transiently — the retry layer redials) instead of waiting out
// the kernel's connect timeout.
const dialTimeout = 3 * time.Second

// TCPEndpoint is a transport endpoint backed by real TCP sockets, for
// running master and workers as separate OS processes (cmd/treeserver).
//
// Every connection is one long-lived, one-directional gob stream — the design
// codecPair gives the in-memory fabric. The dialer owns a persistent
// gob.Encoder over a buffered writer on the socket; the accepting side's
// readLoop owns the matching gob.Decoder. The stream's first value is the
// sender's endpoint name (a string); every value after it is one wire{}
// message, flushed to the socket in one write. gob sends each type's
// definition once per stream, so only the first message of a kind pays for
// it. There is no other framing.
//
// A stream is matched for life and abandoned on any error: an encode, flush
// or decode failure closes that connection (its two codecs may disagree about
// which types were defined), the sender drops it from its table, and the next
// Send dials a fresh connection that starts a fresh stream. A message caught
// by a failure is lost, like a frame on a dead NIC; the cluster's task-retry
// layer heals that.
type TCPEndpoint struct {
	name     string
	listener net.Listener
	peers    map[string]string // name -> address
	box      *mailbox

	connMu sync.Mutex
	conns  map[string]*tcpConn

	msgsSent, msgsRecvd   atomic.Int64
	bytesSent, bytesRecvd atomic.Int64

	closeOnce sync.Once
	closed    atomic.Bool
	wg        sync.WaitGroup
}

// tcpConn is the sending half of one stream. mu serialises whole messages:
// one Encode plus one Flush per Send.
type tcpConn struct {
	mu  sync.Mutex
	c   net.Conn
	bw  *bufio.Writer
	enc *gob.Encoder
	msg wire // reused so Encode's argument does not allocate per Send
}

// countedWriter and countedReader sit between the buffers and the socket, so
// the Stats byte counters are the bytes the stream really carried.
type countedWriter struct {
	w io.Writer
	n *atomic.Int64
}

func (c countedWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n.Add(int64(n))
	return n, err
}

type countedReader struct {
	r io.Reader
	n *atomic.Int64
}

func (c countedReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n.Add(int64(n))
	return n, err
}

// ListenTCP starts an endpoint listening on addr ("host:port", empty port
// for ephemeral). peers maps every other endpoint name to its address; the
// map may be extended before the first Send to a given peer.
func ListenTCP(name, addr string, peers map[string]string) (*TCPEndpoint, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	ep := &TCPEndpoint{
		name:     name,
		listener: ln,
		peers:    map[string]string{},
		box:      newMailbox(),
		conns:    map[string]*tcpConn{},
	}
	for k, v := range peers {
		ep.peers[k] = v
	}
	ep.wg.Add(1)
	go ep.acceptLoop()
	return ep, nil
}

// Addr returns the endpoint's listening address.
func (e *TCPEndpoint) Addr() string { return e.listener.Addr().String() }

// AddPeer registers (or updates) a peer address.
func (e *TCPEndpoint) AddPeer(name, addr string) {
	e.connMu.Lock()
	e.peers[name] = addr
	e.connMu.Unlock()
}

// RepointPeer re-homes a peer name to a new address and drops any cached
// connection to the old one, so the next Send dials fresh. Workers use it
// when a promoted standby master announces its address in the rejoin
// handshake.
func (e *TCPEndpoint) RepointPeer(name, addr string) {
	e.connMu.Lock()
	if tc, ok := e.conns[name]; ok {
		tc.c.Close()
		delete(e.conns, name)
	}
	e.peers[name] = addr
	e.connMu.Unlock()
}

// Name implements Endpoint.
func (e *TCPEndpoint) Name() string { return e.name }

func (e *TCPEndpoint) acceptLoop() {
	defer e.wg.Done()
	for {
		c, err := e.listener.Accept()
		if err != nil {
			return
		}
		e.wg.Add(1)
		go e.readLoop(c)
	}
}

// readLoop decodes one inbound stream until it ends. bufio.Reader is an
// io.ByteReader, so gob reads through it without adding a buffer of its own.
func (e *TCPEndpoint) readLoop(c net.Conn) {
	defer e.wg.Done()
	defer c.Close()
	dec := gob.NewDecoder(bufio.NewReader(countedReader{c, &e.bytesRecvd}))
	var from string
	var msg wire
	err := dec.Decode(&from)
	for err == nil {
		if err = dec.Decode(&msg); err == nil {
			e.msgsRecvd.Add(1)
			if !e.box.put(Envelope{From: from, Payload: msg.Payload}) {
				return
			}
			msg.Payload = nil // do not pin a bulk payload while the stream idles
		}
	}
	// A clean EOF between messages is the peer hanging up. Anything else
	// abandons the stream, and whatever was in flight on it is lost.
	if err != io.EOF && !e.closed.Load() {
		log.Printf("transport: %q: abandoning stream from %q (%s): %v", e.name, from, c.RemoteAddr(), err)
	}
}

// conn returns the stream to a peer, dialling it if there is none. The dial
// happens outside connMu so an unreachable peer cannot stall sends to the
// others; when two senders race, the first connection stored wins and the
// loser's is closed unused.
func (e *TCPEndpoint) conn(to string) (*tcpConn, error) {
	e.connMu.Lock()
	tc, ok := e.conns[to]
	addr, known := e.peers[to]
	e.connMu.Unlock()
	if ok {
		return tc, nil
	}
	if !known {
		return nil, fmt.Errorf("transport: %w: peer %q", ErrUnknownEndpoint, to)
	}
	c, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %q at %s: %w", to, addr, err)
	}
	tc = &tcpConn{c: c, bw: bufio.NewWriter(countedWriter{c, &e.bytesSent})}
	tc.enc = gob.NewEncoder(tc.bw)
	if err := tc.enc.Encode(e.name); err != nil { // buffered; leaves with the first message
		c.Close()
		return nil, fmt.Errorf("transport: open stream to %q: %w", to, err)
	}

	e.connMu.Lock()
	defer e.connMu.Unlock()
	if first, raced := e.conns[to]; raced {
		c.Close()
		return first, nil
	}
	if e.closed.Load() { // Close has swept conns already and would miss this one
		c.Close()
		return nil, fmt.Errorf("transport: endpoint %q: %w", e.name, ErrClosed)
	}
	if e.peers[to] != addr { // RepointPeer ran while we were dialling the old address
		c.Close()
		return nil, fmt.Errorf("transport: peer %q moved from %s while dialling", to, addr)
	}
	e.conns[to] = tc
	return tc, nil
}

// Send implements Endpoint.
func (e *TCPEndpoint) Send(to string, payload any) error {
	if e.closed.Load() {
		return fmt.Errorf("transport: endpoint %q: %w", e.name, ErrClosed)
	}
	tc, err := e.conn(to)
	if err != nil {
		return err
	}
	tc.mu.Lock()
	tc.msg.Payload = payload
	err = tc.enc.Encode(&tc.msg)
	tc.msg.Payload = nil
	if err == nil {
		err = tc.bw.Flush()
	}
	tc.mu.Unlock()
	if err != nil {
		// Abandon the stream so the next Send redials a fresh one.
		e.connMu.Lock()
		if e.conns[to] == tc {
			delete(e.conns, to)
		}
		e.connMu.Unlock()
		tc.c.Close()
		return fmt.Errorf("transport: send to %q: %w", to, err)
	}
	e.msgsSent.Add(1)
	return nil
}

// Recv implements Endpoint.
func (e *TCPEndpoint) Recv() (Envelope, bool) { return e.box.get() }

// Close implements Endpoint.
func (e *TCPEndpoint) Close() error {
	e.closeOnce.Do(func() {
		e.closed.Store(true)
		e.listener.Close()
		e.connMu.Lock()
		for _, tc := range e.conns {
			tc.c.Close()
		}
		e.connMu.Unlock()
		e.box.close()
	})
	return nil
}

// Stats implements Endpoint. Bytes are counted at the socket, so they include
// each stream's one-off sender name and type definitions.
func (e *TCPEndpoint) Stats() Stats {
	return Stats{
		MsgsSent:      e.msgsSent.Load(),
		MsgsReceived:  e.msgsRecvd.Load(),
		BytesSent:     e.bytesSent.Load(),
		BytesReceived: e.bytesRecvd.Load(),
	}
}
