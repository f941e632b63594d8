package transport

import (
	"net"
	"syscall"
	"testing"
	"time"
)

// blackholeAddr returns a loopback address where a TCP connect neither
// succeeds nor fails: a listener that never accepts, with its backlog shrunk
// to nothing and filled, so the kernel drops further SYNs. The filler
// connections stay open until the test ends.
func blackholeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	sc, err := ln.(*net.TCPListener).SyscallConn()
	if err != nil {
		t.Fatal(err)
	}
	var lerr error
	if err := sc.Control(func(fd uintptr) { lerr = syscall.Listen(int(fd), 0) }); err != nil || lerr != nil {
		t.Fatalf("shrink backlog: %v / %v", err, lerr)
	}
	for i := 0; i < 16; i++ {
		c, err := net.DialTimeout("tcp", ln.Addr().String(), 200*time.Millisecond)
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				return ln.Addr().String()
			}
			t.Fatalf("filling the backlog: %v", err)
		}
		t.Cleanup(func() { c.Close() })
	}
	t.Skip("this kernel kept accepting connections past a zero backlog; no blackhole available")
	return ""
}

// TestTCPSendNotStalledByPendingDial: a dial to an unreachable peer must not
// hold up traffic to the reachable ones (it used to run under the lock that
// guards the whole connection table, for as long as the kernel kept trying).
func TestTCPSendNotStalledByPendingDial(t *testing.T) {
	hole := blackholeAddr(t)
	live := listenTCPForTest(t, "live", "127.0.0.1:0", nil)
	src := listenTCPForTest(t, "src", "127.0.0.1:0", map[string]string{"live": live.Addr(), "hole": hole})

	started := make(chan struct{})
	holeErr := make(chan error, 1)
	go func() {
		close(started)
		holeErr <- src.Send("hole", testMsg{ID: 1})
	}()
	<-started
	// The first send to "live" needs a dial of its own; the rest reuse it.
	// All of them overlap the blackholed dial, which is checked afterwards.
	for i := 0; i < 200; i++ {
		done := make(chan error, 1)
		go func() { done <- src.Send("live", testMsg{ID: i}) }()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("send %d to the live peer: %v", i, err)
			}
		case <-time.After(dialTimeout / 2):
			t.Fatalf("send %d to the live peer stalled behind the pending dial", i)
		}
		if got := recvWithin(t, live, 5*time.Second).Payload.(testMsg).ID; got != i {
			t.Fatalf("live peer received message %d, want %d", got, i)
		}
	}
	select {
	case err := <-holeErr:
		t.Fatalf("the blackholed dial was not pending during the live sends: returned %v", err)
	default:
	}
}
