// Package transport provides the message fabric the TreeServer cluster runs
// on: named endpoints exchanging gob-serialised payloads. Two realisations
// share one interface — an in-memory network (every message still passes
// through a gob encode/decode round-trip, so nothing is ever shared by
// pointer between "machines", and per-endpoint byte counters plus an
// optional bandwidth model reproduce network saturation) and a real TCP
// network for multi-process deployments.
//
// Both carry messages on long-lived gob streams: a pooled encoder/decoder
// pair in memory (codecPair), one stream per connection over TCP
// (TCPEndpoint). gob sends a type's definition once per stream and caches the
// compiled codec at both ends, so a stream must stay matched for life and is
// abandoned on any error — the pair is dropped, the connection closed and
// redialled — because its two ends may no longer agree on what was defined.
//
// The paper's two channel classes (Task Comm. master<->worker and Data
// Comm. worker<->worker, Fig. 6) are both carried over this fabric; byte
// accounting is separated per destination so experiments can report them
// independently.
package transport

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Sentinel error conditions shared by every fabric. Callers classify send
// failures with errors.Is (or the Transient helper): closed, unknown and
// crashed endpoints are permanent — retrying cannot help — while everything
// else (TCP dial/write hiccups, injected chaos faults, attempt timeouts) is
// transient and worth a bounded retry.
var (
	// ErrClosed marks sends through or to an endpoint that has shut down.
	ErrClosed = errors.New("endpoint closed")
	// ErrUnknownEndpoint marks sends to a name no fabric member registered.
	ErrUnknownEndpoint = errors.New("unknown endpoint")
	// ErrCrashed marks sends from an endpoint that crashed (or was killed by
	// a chaos plan).
	ErrCrashed = errors.New("endpoint crashed")
	// ErrInjected marks a transient send failure injected by a ChaosNetwork.
	ErrInjected = errors.New("injected transient send failure")
	// ErrAttemptTimeout marks one send attempt exceeding its per-attempt
	// budget (see RetryPolicy.AttemptTimeout).
	ErrAttemptTimeout = errors.New("send attempt timed out")
)

// Transient reports whether a send error is worth retrying. Closed, unknown
// and crashed endpoints are permanent; everything else is assumed to be a
// fabric hiccup.
func Transient(err error) bool {
	return err != nil &&
		!errors.Is(err, ErrClosed) &&
		!errors.Is(err, ErrUnknownEndpoint) &&
		!errors.Is(err, ErrCrashed)
}

// Envelope is one delivered message.
type Envelope struct {
	From    string
	Payload any
}

// Endpoint is a named participant on a network.
type Endpoint interface {
	// Name returns the endpoint's registered name.
	Name() string
	// Send delivers payload to the named endpoint. It never blocks on the
	// receiver (mailboxes are unbounded); it returns an error if the target
	// is unknown or the network is closed.
	Send(to string, payload any) error
	// Recv blocks for the next message; ok is false once the endpoint is
	// closed and drained.
	Recv() (env Envelope, ok bool)
	// Close shuts the endpoint down, waking any blocked Recv.
	Close() error
	// Stats returns the endpoint's traffic counters.
	Stats() Stats
}

// Stats counts an endpoint's traffic. Bytes measure the gob-encoded payload
// size as a long-lived connection carries it: type definitions are counted
// when a type first crosses a stream and amortise to zero after. The TCP
// fabric counts at the socket, so its totals also include each stream's
// one-off sender name.
type Stats struct {
	MsgsSent      int64
	MsgsReceived  int64
	BytesSent     int64
	BytesReceived int64
}

// mailbox is an unbounded FIFO with blocking receive. Unboundedness is a
// deliberate choice: handlers may send while processing a receive, and a
// bounded channel there can deadlock two mutually-sending endpoints.
type mailbox struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queue  []Envelope
	closed bool
}

func newMailbox() *mailbox {
	m := &mailbox{}
	m.cond = sync.NewCond(&m.mu)
	return m
}

func (m *mailbox) put(env Envelope) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return false
	}
	m.queue = append(m.queue, env)
	m.cond.Signal()
	return true
}

func (m *mailbox) get() (Envelope, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for len(m.queue) == 0 && !m.closed {
		m.cond.Wait()
	}
	if len(m.queue) == 0 {
		return Envelope{}, false
	}
	env := m.queue[0]
	m.queue = m.queue[1:]
	return env, true
}

func (m *mailbox) close() {
	m.mu.Lock()
	m.closed = true
	m.cond.Broadcast()
	m.mu.Unlock()
}

// wire wraps the payload so gob can encode arbitrary registered types.
type wire struct {
	Payload any
}

// EncodePayload gob-encodes a payload into a self-contained frame (type
// definitions included), for callers that need one value as bytes. Neither
// fabric ships this format: building a stream per frame is expensive, so the
// in-memory fabric uses the pooled codec pairs below and the TCP fabric one
// stream per connection.
func EncodePayload(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&wire{Payload: v}); err != nil {
		return nil, fmt.Errorf("transport: encode: %w", err)
	}
	return buf.Bytes(), nil
}

// DecodePayload reverses EncodePayload.
func DecodePayload(data []byte) (any, error) {
	var w wire
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&w); err != nil {
		return nil, fmt.Errorf("transport: decode: %w", err)
	}
	return w.Payload, nil
}

// codecPair is a matched gob encoder/decoder joined by one buffer — the
// stream state of a single long-lived connection. gob transmits each type's
// definition once per stream, then compiles and caches the codec machinery;
// building a fresh Encoder/Decoder per message re-pays that setup on every
// send, which profiles as the dominant cost of the in-memory fabric. A pair
// must stay matched for life: the decoder only understands types whose
// definitions its own encoder already emitted.
type codecPair struct {
	buf bytes.Buffer
	enc *gob.Encoder
	dec *gob.Decoder
}

var codecPool = sync.Pool{New: func() any {
	p := &codecPair{}
	p.enc = gob.NewEncoder(&p.buf)
	p.dec = gob.NewDecoder(&p.buf)
	return p
}}

// roundTripPayload deep-copies v through a pooled gob stream, returning the
// decoded copy and its encoded size. The size is what a persistent connection
// would carry: type definitions count the first time a type crosses a given
// pair, then amortise to zero. On error the pair is abandoned (its stream may
// be desynchronised mid-message); a bytes.Buffer is an io.ByteReader, so a
// successful decode always drains the buffer completely and the pair re-pools
// clean.
func roundTripPayload(v any) (any, int, error) {
	p := codecPool.Get().(*codecPair)
	if err := p.enc.Encode(&wire{Payload: v}); err != nil {
		return nil, 0, fmt.Errorf("transport: encode: %w", err)
	}
	size := p.buf.Len()
	var w wire
	if err := p.dec.Decode(&w); err != nil {
		return nil, 0, fmt.Errorf("transport: decode: %w", err)
	}
	codecPool.Put(p)
	return w.Payload, size, nil
}

// countingWriter measures bytes without retaining them.
type countingWriter struct{ n int64 }

func (c *countingWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

// sizeCodec is a persistent encoder used only for measurement.
type sizeCodec struct {
	cw  countingWriter
	enc *gob.Encoder
}

var sizePool = sync.Pool{New: func() any {
	s := &sizeCodec{}
	s.enc = gob.NewEncoder(&s.cw)
	return s
}}

// PayloadSize returns the encoded size of a payload on a long-lived stream
// (amortised type definitions), without materialising the bytes. It is the
// cheap sizing hook for telemetry decorators; 0 means the payload failed to
// encode.
func PayloadSize(v any) int {
	s := sizePool.Get().(*sizeCodec)
	before := s.cw.n
	if err := s.enc.Encode(&wire{Payload: v}); err != nil {
		return 0 // abandoned: the stream may be desynchronised
	}
	size := int(s.cw.n - before)
	sizePool.Put(s)
	return size
}

// MemNetwork is the in-memory fabric. The zero value is not usable; call
// NewMemNetwork.
type MemNetwork struct {
	mu        sync.Mutex
	endpoints map[string]*MemEndpoint
	closed    bool

	// BandwidthBps, when > 0, models a per-endpoint full-duplex link: each
	// endpoint's sends are paced to this many bytes per second, reproducing
	// the 1 GigE saturation of the paper's Table VI.
	BandwidthBps float64
	// Passthrough skips the gob round-trip, delivering payloads by
	// reference. Only safe when callers promise not to mutate shared data;
	// used by benchmarks isolating protocol overhead from codec cost.
	Passthrough bool
}

// NewMemNetwork creates an empty in-memory network.
func NewMemNetwork() *MemNetwork {
	return &MemNetwork{endpoints: map[string]*MemEndpoint{}}
}

// Endpoint registers (or returns the existing) endpoint with the name.
func (n *MemNetwork) Endpoint(name string) *MemEndpoint {
	n.mu.Lock()
	defer n.mu.Unlock()
	if ep, ok := n.endpoints[name]; ok {
		return ep
	}
	ep := &MemEndpoint{name: name, net: n, box: newMailbox()}
	n.endpoints[name] = ep
	return ep
}

// Reset discards the named endpoint — closing its mailbox and marking it
// crashed so any goroutine still holding the old handle gets permanent send
// errors — and registers a fresh endpoint under the same name. It is the
// restart hook for crash-recovery: a killed machine's replacement rejoins the
// fabric with an empty mailbox and clean counters, while traffic addressed to
// the name flows to the new instance.
func (n *MemNetwork) Reset(name string) *MemEndpoint {
	n.mu.Lock()
	defer n.mu.Unlock()
	if old, ok := n.endpoints[name]; ok {
		old.crashed.Store(true)
		old.box.close()
	}
	ep := &MemEndpoint{name: name, net: n, box: newMailbox()}
	n.endpoints[name] = ep
	return ep
}

// Close shuts down every endpoint.
func (n *MemNetwork) Close() {
	n.mu.Lock()
	n.closed = true
	eps := make([]*MemEndpoint, 0, len(n.endpoints))
	for _, ep := range n.endpoints {
		eps = append(eps, ep)
	}
	n.mu.Unlock()
	for _, ep := range eps {
		ep.box.close()
	}
}

func (n *MemNetwork) lookup(name string) (*MemEndpoint, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, fmt.Errorf("transport: network: %w", ErrClosed)
	}
	ep, ok := n.endpoints[name]
	if !ok {
		return nil, fmt.Errorf("transport: %w: %q", ErrUnknownEndpoint, name)
	}
	return ep, nil
}

// MemEndpoint is one participant on a MemNetwork.
type MemEndpoint struct {
	name string
	net  *MemNetwork
	box  *mailbox

	msgsSent, msgsRecvd   atomic.Int64
	bytesSent, bytesRecvd atomic.Int64

	paceMu   sync.Mutex
	paceFree time.Time // when the modelled link next becomes idle

	crashed atomic.Bool
}

// Name implements Endpoint.
func (e *MemEndpoint) Name() string { return e.name }

// Crash makes the endpoint drop all traffic in both directions without
// closing cleanly — the fault-injection hook for worker-failure tests.
func (e *MemEndpoint) Crash() {
	e.crashed.Store(true)
	e.box.close()
}

// Crashed reports whether Crash was called.
func (e *MemEndpoint) Crashed() bool { return e.crashed.Load() }

// Send implements Endpoint.
func (e *MemEndpoint) Send(to string, payload any) error {
	if e.crashed.Load() {
		return fmt.Errorf("transport: endpoint %q: %w", e.name, ErrCrashed)
	}
	target, err := e.net.lookup(to)
	if err != nil {
		return err
	}
	size := 0
	delivered := payload
	if !e.net.Passthrough {
		var err error
		delivered, size, err = roundTripPayload(payload)
		if err != nil {
			return err
		}
	}
	e.pace(size)
	e.msgsSent.Add(1)
	e.bytesSent.Add(int64(size))
	if target.crashed.Load() {
		// A crashed machine silently swallows traffic, like a dead NIC.
		return nil
	}
	if !target.box.put(Envelope{From: e.name, Payload: delivered}) {
		return fmt.Errorf("transport: endpoint %q: %w", to, ErrClosed)
	}
	target.msgsRecvd.Add(1)
	target.bytesRecvd.Add(int64(size))
	return nil
}

// pace models the send-side bandwidth limit by reserving link time.
func (e *MemEndpoint) pace(size int) {
	bw := e.net.BandwidthBps
	if bw <= 0 || size == 0 {
		return
	}
	cost := time.Duration(float64(size) / bw * float64(time.Second))
	e.paceMu.Lock()
	now := time.Now()
	if e.paceFree.Before(now) {
		e.paceFree = now
	}
	e.paceFree = e.paceFree.Add(cost)
	wait := e.paceFree.Sub(now)
	e.paceMu.Unlock()
	if wait > 0 {
		time.Sleep(wait)
	}
}

// Recv implements Endpoint.
func (e *MemEndpoint) Recv() (Envelope, bool) { return e.box.get() }

// Close implements Endpoint.
func (e *MemEndpoint) Close() error {
	e.box.close()
	return nil
}

// Stats implements Endpoint.
func (e *MemEndpoint) Stats() Stats {
	return Stats{
		MsgsSent:      e.msgsSent.Load(),
		MsgsReceived:  e.msgsRecvd.Load(),
		BytesSent:     e.bytesSent.Load(),
		BytesReceived: e.bytesRecvd.Load(),
	}
}
