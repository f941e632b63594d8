package transport

import (
	"bytes"
	"encoding/gob"
	"errors"
	"log"
	"math/rand"
	"net"
	"os"
	"strings"
	"sync"
	"testing"
	"time"
)

// otherMsg is a second registered payload type, for putting a type on a
// stream that the stream has not carried before.
type otherMsg struct {
	Tag  string
	Vals []float64
}

func init() { gob.Register(otherMsg{}) }

func listenTCPForTest(t *testing.T, name, addr string, peers map[string]string) *TCPEndpoint {
	t.Helper()
	ep, err := ListenTCP(name, addr, peers)
	if err != nil {
		t.Fatalf("listen %s: %v", name, err)
	}
	t.Cleanup(func() { ep.Close() })
	return ep
}

// recvWithin is Recv with a deadline, so a lost message fails the test
// instead of hanging it.
func recvWithin(t *testing.T, ep *TCPEndpoint, d time.Duration) Envelope {
	t.Helper()
	got := make(chan Envelope, 1)
	go func() {
		if env, ok := ep.Recv(); ok {
			got <- env
		}
	}()
	select {
	case env := <-got:
		return env
	case <-time.After(d):
		t.Fatalf("%s received nothing within %v", ep.Name(), d)
		return Envelope{}
	}
}

// streamTo returns the cached sending stream for a peer (nil if none).
func (e *TCPEndpoint) streamTo(name string) *tcpConn {
	e.connMu.Lock()
	defer e.connMu.Unlock()
	return e.conns[name]
}

// TestTCPConcurrentSendersKeepFramesWhole: many goroutines share one stream
// to one peer (and race the first dial). Every message must arrive intact and
// in its sender's order, whether it fits the write buffer or bypasses it.
func TestTCPConcurrentSendersKeepFramesWhole(t *testing.T) {
	dst := listenTCPForTest(t, "dst", "127.0.0.1:0", nil)
	src := listenTCPForTest(t, "src", "127.0.0.1:0", map[string]string{"dst": dst.Addr()})
	const senders, each = 8, 150
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				body := bytes.Repeat([]byte{byte(s)}, 1+(i*613+s*11)%9000)
				if err := src.Send("dst", testMsg{ID: s*each + i, Body: body}); err != nil {
					t.Errorf("sender %d message %d: %v", s, i, err)
					return
				}
			}
		}(s)
	}
	next := make([]int, senders)
	for n := 0; n < senders*each; n++ {
		env := recvWithin(t, dst, 10*time.Second)
		msg, ok := env.Payload.(testMsg)
		if !ok || env.From != "src" {
			t.Fatalf("message %d: got %T from %q", n, env.Payload, env.From)
		}
		s, i := msg.ID/each, msg.ID%each
		if i != next[s] {
			t.Fatalf("sender %d: message %d arrived where %d was due", s, i, next[s])
		}
		next[s]++
		if want := 1 + (i*613+s*11)%9000; len(msg.Body) != want || bytes.Count(msg.Body, []byte{byte(s)}) != want {
			t.Fatalf("sender %d message %d: body damaged (len %d, want %d bytes of %d)", s, i, len(msg.Body), want, s)
		}
	}
	wg.Wait()
	if got := dst.Stats().MsgsReceived; got != senders*each {
		t.Fatalf("receiver counted %d messages, want %d", got, senders*each)
	}
}

// TestTCPStreamAbandonedThenRedialled pins the lifecycle rule: a stream dies
// with its connection, and the replacement starts from nothing — a type the
// old stream had already defined must be defined again on the new one.
func TestTCPStreamAbandonedThenRedialled(t *testing.T) {
	t.Run("relisten", func(t *testing.T) {
		old := listenTCPForTest(t, "dst", "127.0.0.1:0", nil)
		addr := old.Addr()
		src := listenTCPForTest(t, "src", "127.0.0.1:0", map[string]string{"dst": addr})
		if err := src.Send("dst", testMsg{ID: 1}); err != nil {
			t.Fatal(err)
		}
		if env := recvWithin(t, old, 5*time.Second); env.Payload.(testMsg).ID != 1 {
			t.Fatalf("first incarnation received %+v", env)
		}
		old.Close()
		reborn := listenTCPForTest(t, "dst", addr, nil)

		// The old incarnation hangs up when traffic reaches its closed
		// mailbox; sends vanish until the sender's socket notices.
		deadline := time.Now().Add(10 * time.Second)
		for src.Send("dst", testMsg{ID: -1}) == nil {
			if time.Now().After(deadline) {
				t.Fatal("sends into a closed endpoint never failed")
			}
			time.Sleep(time.Millisecond)
		}
		if src.streamTo("dst") != nil {
			t.Fatal("failed Send left the dead stream cached")
		}
		if err := src.Send("dst", testMsg{ID: 2, Body: []byte("again")}); err != nil {
			t.Fatalf("retried send: %v", err)
		}
		if err := src.Send("dst", otherMsg{Tag: "new", Vals: []float64{1.5}}); err != nil {
			t.Fatalf("send of a second type: %v", err)
		}
		env := recvWithin(t, reborn, 5*time.Second)
		if msg, ok := env.Payload.(testMsg); !ok || msg.ID != 2 || string(msg.Body) != "again" || env.From != "src" {
			t.Fatalf("new incarnation received %+v", env)
		}
		if msg, ok := recvWithin(t, reborn, 5*time.Second).Payload.(otherMsg); !ok || msg.Tag != "new" || msg.Vals[0] != 1.5 {
			t.Fatalf("second type arrived as %+v", msg)
		}
	})
	t.Run("repoint", func(t *testing.T) {
		first := listenTCPForTest(t, "dst", "127.0.0.1:0", nil)
		second := listenTCPForTest(t, "dst", "127.0.0.1:0", nil)
		src := listenTCPForTest(t, "src", "127.0.0.1:0", map[string]string{"dst": first.Addr()})
		if err := src.Send("dst", testMsg{ID: 1}); err != nil {
			t.Fatal(err)
		}
		recvWithin(t, first, 5*time.Second)
		src.RepointPeer("dst", second.Addr())
		if err := src.Send("dst", testMsg{ID: 2}); err != nil {
			t.Fatalf("send after repoint: %v", err)
		}
		if env := recvWithin(t, second, 5*time.Second); env.Payload.(testMsg).ID != 2 || env.From != "src" {
			t.Fatalf("repointed peer received %+v", env)
		}
		if got := first.Stats().MsgsReceived; got != 1 {
			t.Fatalf("old address received %d messages, want 1", got)
		}
	})
}

// lockedBuffer lets the test read what readLoop goroutines logged.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestTCPGarbageKillsOnlyThatConnection: bytes that are not a gob stream end
// the connection they arrived on — logged once, naming the remote address —
// and leave every other stream into the endpoint alone.
func TestTCPGarbageKillsOnlyThatConnection(t *testing.T) {
	var logged lockedBuffer
	log.SetOutput(&logged)
	defer log.SetOutput(os.Stderr)

	dst := listenTCPForTest(t, "dst", "127.0.0.1:0", nil)
	src := listenTCPForTest(t, "src", "127.0.0.1:0", map[string]string{"dst": dst.Addr()})
	if err := src.Send("dst", testMsg{ID: 1}); err != nil {
		t.Fatal(err)
	}
	recvWithin(t, dst, 5*time.Second)
	stream := src.streamTo("dst")

	raw, err := net.Dial("tcp", dst.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	garbage := make([]byte, 1024)
	rand.New(rand.NewSource(5)).Read(garbage)
	if _, err := raw.Write(garbage); err != nil {
		t.Fatal(err)
	}
	raw.(*net.TCPConn).CloseWrite() // whatever length the garbage claims, the stream ends short of it
	raw.SetReadDeadline(time.Now().Add(5 * time.Second))
	// EOF or a reset, depending on whether the receiver had read everything.
	if _, err := raw.Read(make([]byte, 1)); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("receiver did not hang up on the garbage connection: %v", err)
	}

	if err := src.Send("dst", testMsg{ID: 2}); err != nil {
		t.Fatalf("send on the healthy stream: %v", err)
	}
	if env := recvWithin(t, dst, 5*time.Second); env.Payload.(testMsg).ID != 2 {
		t.Fatalf("healthy stream delivered %+v", env)
	}
	if src.streamTo("dst") != stream {
		t.Fatal("healthy stream was replaced")
	}
	out := logged.String()
	if n := strings.Count(out, "abandoning stream"); n != 1 || !strings.Contains(out, raw.LocalAddr().String()) {
		t.Fatalf("want one log line naming %s, got %d:\n%s", raw.LocalAddr(), n, out)
	}
}

// TestTCPStatsCountStreamBytes: the byte counters are the socket's, so both
// ends agree, and a message costs less once its type has crossed the stream.
func TestTCPStatsCountStreamBytes(t *testing.T) {
	dst := listenTCPForTest(t, "dst", "127.0.0.1:0", nil)
	src := listenTCPForTest(t, "src", "127.0.0.1:0", map[string]string{"dst": dst.Addr()})
	var first, last int64
	for i := 0; i < 100; i++ {
		before := src.Stats().BytesSent
		if err := src.Send("dst", testMsg{ID: 7, Body: []byte("confirm")}); err != nil {
			t.Fatal(err)
		}
		recvWithin(t, dst, 5*time.Second)
		sent := src.Stats().BytesSent
		if got := dst.Stats().BytesReceived; got != sent {
			t.Fatalf("after message %d: sender counted %d bytes, receiver %d", i, sent, got)
		}
		if last = sent - before; i == 0 {
			first = last
		}
	}
	if last <= 0 || last >= first {
		t.Fatalf("message 1 cost %d bytes, message 100 cost %d; want the 100th cheaper", first, last)
	}
}

// TestTCPSmallMessageAllocs guards the point of the persistent stream: a small
// message must not rebuild codec state. The parent of this change spent 138
// allocations per message; the stream path measures 9 (sender and receiver
// together), and the bound leaves slack for the runtime's own.
func TestTCPSmallMessageAllocs(t *testing.T) {
	dst := listenTCPForTest(t, "dst", "127.0.0.1:0", nil)
	src := listenTCPForTest(t, "src", "127.0.0.1:0", map[string]string{"dst": dst.Addr()})
	msg := testMsg{ID: 7, Body: []byte("confirm")}
	round := func() {
		if err := src.Send("dst", msg); err != nil {
			t.Fatal(err)
		}
		if _, ok := dst.Recv(); !ok {
			t.Fatal("receiver closed")
		}
	}
	round() // dial, sender name, type definitions
	if n := testing.AllocsPerRun(200, round); n > 12 {
		t.Fatalf("small-message Send+Recv allocates %v per message, want <= 12", n)
	}
}
