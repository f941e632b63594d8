package obs

import (
	"fmt"
	"reflect"

	"treeserver/internal/transport"
)

// Endpoint decorates a transport.Endpoint with per-link and per-message-type
// accounting, the same decorator shape as transport.ChaosNetwork.Wrap. It
// also implements transport.RetryReporter, so SendWithRetry re-attempts on a
// wrapped endpoint land in the link's retry counter.
type Endpoint struct {
	inner transport.Endpoint
	reg   *Registry
}

// Wrap decorates ep with the registry's accounting. A nil registry returns
// ep unchanged, so the disabled path has zero indirection.
func (r *Registry) Wrap(ep transport.Endpoint) transport.Endpoint {
	if r == nil {
		return ep
	}
	return &Endpoint{inner: ep, reg: r}
}

// Name implements transport.Endpoint.
func (e *Endpoint) Name() string { return e.inner.Name() }

// Send implements transport.Endpoint: successful sends are counted on the
// from→to link under the payload's concrete type. Byte sizes come from a
// second, measurement-only gob encode over a pooled persistent stream
// (transport.PayloadSize) — telemetry-enabled runs accept that cost; disabled
// runs never construct an obs.Endpoint at all. The measurement encode happens
// BEFORE the inner send: a passthrough fabric delivers the payload pointer
// itself, so once the inner Send returns the receiver may already be
// mutating it (e.g. the master grafting a subtree result).
func (e *Endpoint) Send(to string, payload any) error {
	size := transport.PayloadSize(payload)
	err := e.inner.Send(to, payload)
	if err == nil {
		e.reg.CountSend(e.inner.Name(), to, e.reg.typeLabel(payload), size)
	}
	return err
}

// typeLabel is fmt's %T of the payload, formatted once per concrete type:
// the protocol has a few dozen message types and sends millions of messages.
func (r *Registry) typeLabel(payload any) string {
	t := reflect.TypeOf(payload)
	if label, ok := r.labels.Load(t); ok {
		return label.(string)
	}
	label := fmt.Sprintf("%T", payload)
	r.labels.Store(t, label)
	return label
}

// Recv implements transport.Endpoint. Deliveries are not re-counted (the
// sender's decorator already accounted the link); Recv passes through so
// wrapping is transparent to the receive loops.
func (e *Endpoint) Recv() (transport.Envelope, bool) { return e.inner.Recv() }

// Close implements transport.Endpoint.
func (e *Endpoint) Close() error { return e.inner.Close() }

// Stats implements transport.Endpoint.
func (e *Endpoint) Stats() transport.Stats { return e.inner.Stats() }

// SendRetried implements transport.RetryReporter: SendWithRetry calls it
// before each re-attempt.
func (e *Endpoint) SendRetried(to string) { e.reg.CountRetry(e.inner.Name(), to) }

// Unwrap exposes the decorated endpoint so callers can reach optional
// capabilities of the underlying fabric (e.g. TCP peer repointing).
func (e *Endpoint) Unwrap() transport.Endpoint { return e.inner }

var _ transport.Endpoint = (*Endpoint)(nil)
var _ transport.RetryReporter = (*Endpoint)(nil)
