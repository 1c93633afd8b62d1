package mux

import (
	"context"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"lsl/internal/metrics"
	"lsl/internal/wire"
)

// muxEchoServer accepts trunks and echoes every stream.
func muxEchoServer(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			go func(nc net.Conn) {
				l, err := Server(nc, LinkConfig{})
				if err != nil {
					nc.Close()
					return
				}
				for {
					s, err := l.AcceptStream()
					if err != nil {
						return
					}
					go func(s *Stream) {
						defer s.Close()
						io.Copy(s, s)
						s.CloseWrite()
					}(s)
				}
			}(nc)
		}
	}()
	return ln.Addr().String()
}

// classicServer accepts plain connections and echoes them — it does not
// speak the trunk protocol, so pool dials must fall back.
func classicServer(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			go func(nc net.Conn) {
				defer nc.Close()
				// A classic peer reads an open header, sees trunk magic,
				// and hangs up — that is the probe failure path.
				hdr := make([]byte, 4)
				if _, err := io.ReadFull(nc, hdr); err != nil {
					return
				}
				if wire.IsMuxMagic(hdr) {
					return // close: "bad magic"
				}
				rest := make([]byte, 1024)
				n, _ := nc.Read(rest)
				nc.Write(hdr)
				nc.Write(rest[:n])
				io.Copy(nc, nc)
			}(nc)
		}
	}()
	return ln.Addr().String()
}

func poolMetrics(t *testing.T) (*PoolMetrics, *metrics.Registry) {
	t.Helper()
	reg := metrics.NewRegistry()
	return &PoolMetrics{
		LinkOpened:      reg.Counter("lsl_link_opened_total", "t"),
		LinkReused:      reg.Counter("lsl_link_reused_total", "t"),
		LinkClosed:      reg.Counter("lsl_link_closed_total", "t"),
		Streams:         reg.Gauge("lsl_mux_streams", "t"),
		StreamHighWater: reg.Gauge("lsl_mux_stream_high_water", "t"),
	}, reg
}

func roundTrip(t *testing.T, c net.Conn, msg string) {
	t.Helper()
	if _, err := c.Write([]byte(msg)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(msg))
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadFull(c, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != msg {
		t.Fatalf("echo mismatch: %q", buf)
	}
}

func TestPoolReusesTrunk(t *testing.T) {
	addr := muxEchoServer(t)
	met, _ := poolMetrics(t)
	p := NewPool(PoolConfig{Metrics: met})
	defer p.Close()
	ctx := context.Background()

	for i := 0; i < 5; i++ {
		c, err := p.DialContext(ctx, "tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		roundTrip(t, c, "ping")
		c.Close()
	}
	if got := met.LinkOpened.Value(); got != 1 {
		t.Fatalf("expected 1 trunk, opened %d", got)
	}
	if got := met.LinkReused.Value(); got != 4 {
		t.Fatalf("expected 4 reuses, got %d", got)
	}
	if p.Links() != 1 {
		t.Fatalf("expected 1 live link, got %d", p.Links())
	}
}

func TestPoolMaxStreamsOpensSecondTrunk(t *testing.T) {
	addr := muxEchoServer(t)
	met, _ := poolMetrics(t)
	p := NewPool(PoolConfig{Metrics: met, MaxStreamsPerLink: 2})
	defer p.Close()
	ctx := context.Background()

	var conns []net.Conn
	for i := 0; i < 5; i++ {
		c, err := p.DialContext(ctx, "tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		conns = append(conns, c)
	}
	if got := met.LinkOpened.Value(); got != 3 { // ceil(5/2)
		t.Fatalf("expected 3 trunks for 5 concurrent streams at max 2, got %d", got)
	}
	for _, c := range conns {
		roundTrip(t, c, "hi")
		c.Close()
	}
}

func TestPoolFallsBackToClassic(t *testing.T) {
	addr := classicServer(t)
	met, _ := poolMetrics(t)
	p := NewPool(PoolConfig{Metrics: met, ProbeTimeout: 2 * time.Second})
	defer p.Close()
	ctx := context.Background()

	for i := 0; i < 3; i++ {
		c, err := p.DialContext(ctx, "tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := c.(*Stream); ok {
			t.Fatal("got a mux stream from a non-mux peer")
		}
		roundTrip(t, c, "classic session")
		c.Close()
	}
	if got := met.LinkOpened.Value(); got != 0 {
		t.Fatalf("no trunks should open against a classic peer, got %d", got)
	}
	// Only the first dial pays the probe; the negative cache covers the
	// rest (observable as exactly one probe conn at the server would
	// require server-side counting; here we at least assert behavior
	// stayed classic and functional).
}

func TestPoolIdleTimeoutClosesTrunk(t *testing.T) {
	addr := muxEchoServer(t)
	met, _ := poolMetrics(t)
	p := NewPool(PoolConfig{Metrics: met, IdleTimeout: 100 * time.Millisecond})
	defer p.Close()
	ctx := context.Background()

	c, err := p.DialContext(ctx, "tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	roundTrip(t, c, "one")
	c.Close()

	// Links drops a trunk as soon as it starts draining; the close is
	// counted once the link has fully shut down, a moment later.
	deadline := time.Now().Add(5 * time.Second)
	for p.Links() != 0 || met.LinkClosed.Value() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("idle trunk never closed: %d live, %d closes counted, want 0 and 1", p.Links(), met.LinkClosed.Value())
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The next session transparently opens a fresh trunk.
	c2, err := p.DialContext(ctx, "tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	roundTrip(t, c2, "two")
	c2.Close()
	if met.LinkOpened.Value() != 2 {
		t.Fatalf("expected a second trunk after idle close, got %d opens", met.LinkOpened.Value())
	}
}

// TestPoolReplacesDeadTrunk kills the TCP conn under a warm trunk and
// checks the next dial gets a fresh working link instead of the corpse.
func TestPoolReplacesDeadTrunk(t *testing.T) {
	addr := muxEchoServer(t)
	var mu sync.Mutex
	var raw []net.Conn
	dial := func(ctx context.Context, network, a string) (net.Conn, error) {
		var d net.Dialer
		nc, err := d.DialContext(ctx, network, a)
		if err == nil {
			mu.Lock()
			raw = append(raw, nc)
			mu.Unlock()
		}
		return nc, err
	}
	met, _ := poolMetrics(t)
	p := NewPool(PoolConfig{Metrics: met, Dial: dial})
	defer p.Close()
	ctx := context.Background()

	c, err := p.DialContext(ctx, "tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	roundTrip(t, c, "before")
	c.Close()

	mu.Lock()
	raw[0].Close() // the trunk dies
	mu.Unlock()

	// The pool may hand us the dead link once before noticing; retry as
	// a resilient caller would.
	var c2 net.Conn
	deadline := time.Now().Add(5 * time.Second)
	for {
		c2, err = p.DialContext(ctx, "tcp", addr)
		if err == nil {
			if _, werr := c2.Write([]byte("after")); werr == nil {
				buf := make([]byte, 5)
				c2.SetReadDeadline(time.Now().Add(2 * time.Second))
				if _, rerr := io.ReadFull(c2, buf); rerr == nil {
					break
				}
			}
			c2.Close()
		}
		if time.Now().After(deadline) {
			t.Fatalf("never recovered a working trunk: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	c2.Close()
	if met.LinkOpened.Value() < 2 {
		t.Fatalf("expected a replacement trunk, opens=%d", met.LinkOpened.Value())
	}
}

func TestPoolCloseFailsDials(t *testing.T) {
	addr := muxEchoServer(t)
	p := NewPool(PoolConfig{})
	c, err := p.DialContext(context.Background(), "tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	p.Close()
	if _, err := p.DialContext(context.Background(), "tcp", addr); err != ErrPoolClosed {
		t.Fatalf("expected ErrPoolClosed, got %v", err)
	}
}
