package transport

import (
	"testing"
)

// BenchmarkMemSendSmall measures small control messages (plans, confirms).
func BenchmarkMemSendSmall(b *testing.B) {
	net := NewMemNetwork()
	defer net.Close()
	a, c := net.Endpoint("a"), net.Endpoint("c")
	done := make(chan struct{})
	go func() {
		for {
			if _, ok := c.Recv(); !ok {
				close(done)
				return
			}
		}
	}()
	msg := testMsg{ID: 7, Body: []byte("confirm")}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := a.Send("c", msg); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	net.Close()
	<-done
}

// BenchmarkMemSendColumnShard measures a 64 KB data payload — the size
// class of column shards between workers.
func BenchmarkMemSendColumnShard(b *testing.B) {
	net := NewMemNetwork()
	defer net.Close()
	a, c := net.Endpoint("a"), net.Endpoint("c")
	done := make(chan struct{})
	go func() {
		for {
			if _, ok := c.Recv(); !ok {
				close(done)
				return
			}
		}
	}()
	msg := testMsg{ID: 1, Body: make([]byte, 64<<10)}
	b.SetBytes(64 << 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := a.Send("c", msg); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	net.Close()
	<-done
}

// BenchmarkTCPSend measures the loopback TCP path, one long-lived gob stream,
// for both frame classes: control messages that fit the write buffer (plans,
// confirms) and bulk frames that bypass it (column shards, SetTarget).
func BenchmarkTCPSend(b *testing.B) {
	for _, bc := range []struct {
		name string
		body int
	}{{"small", 8}, {"4KB", 4 << 10}, {"1MB", 1 << 20}} {
		b.Run(bc.name, func(b *testing.B) {
			dst, err := ListenTCP("dst", "127.0.0.1:0", nil)
			if err != nil {
				b.Fatal(err)
			}
			defer dst.Close()
			src, err := ListenTCP("src", "127.0.0.1:0", map[string]string{"dst": dst.Addr()})
			if err != nil {
				b.Fatal(err)
			}
			defer src.Close()
			done := make(chan struct{})
			go func() {
				for {
					if _, ok := dst.Recv(); !ok {
						close(done)
						return
					}
				}
			}()
			msg := testMsg{ID: 1, Body: make([]byte, bc.body)}
			b.SetBytes(int64(bc.body))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := src.Send("dst", msg); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			dst.Close()
			<-done
		})
	}
}
