package depot

import (
	"bytes"
	"context"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"lsl/internal/core"
	"lsl/internal/mux"
	"lsl/internal/xfer"
)

// Tests for the trunk relay's fast paths: a trunk stream hands its
// queued buffers to the next hop (xfer.HandOff), the gossip probe's
// prefixConn keeps that path, and an accept-side trunk writes to the
// accepted TCP conn itself, so its frames keep the kernel's writev.

// TestAdminShowsLiveSessionOverTrunks is TestAdminShowsLiveSession over
// mux trunks with gossip on, so each depot's relay reads a trunk stream
// wrapped by the gossip probe: bytes a still-open session has sent must
// show in every depot's live entry before EOF.
func TestAdminShowsLiveSessionOverTrunks(t *testing.T) {
	targetAddr, _ := startTarget(t)
	gossipOn := func(c net.Conn) { c.Close() }
	d2, addr2 := runDepot(t, Config{Mux: true, OnGossip: gossipOn})
	d1, addr1 := runDepot(t, Config{Mux: true, OnGossip: gossipOn})
	pool := mux.NewPool(mux.PoolConfig{})
	defer pool.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	c, err := core.Dial(ctx, core.Route{Via: []string{addr1, addr2}, Target: targetAddr}, core.WithMux(pool))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := io.WriteString(c, "hello trunk"); err != nil {
		t.Fatal(err)
	}
	for i, d := range []*Depot{d1, d2} {
		deadline := time.Now().Add(5 * time.Second)
		for {
			snap := d.Sessions()
			if len(snap.Live) == 1 && snap.Live[0].BytesForward > 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("depot %d: live trunked session never showed forward bytes: %+v", i+1, snap)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	if links := d1.linkOpened.With("accept").Value(); links != 1 {
		t.Fatalf("depot 1 accepted %d trunks, want the session on one", links)
	}
}

// TestPrefixConnForwardsHandOff: the gossip probe's wrapper keeps a trunk
// stream's hand-off — replaying the probed bytes first — and does not
// claim one for a conn that has none.
func TestPrefixConnForwardsHandOff(t *testing.T) {
	a, b := net.Pipe()
	srvCh := make(chan *mux.Link, 1)
	go func() {
		l, err := mux.Server(b, mux.LinkConfig{})
		if err != nil {
			b.Close()
		}
		srvCh <- l
	}()
	client, err := mux.Client(a, mux.LinkConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	srv := <-srvCh
	if srv == nil {
		t.Fatal("server link never established")
	}
	defer srv.Close()
	cs, err := client.OpenStream()
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()
	go func() {
		cs.Write([]byte(" and the rest"))
		cs.CloseWrite()
	}()
	st, err := srv.AcceptStream()
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	wrapped := newPrefixConn(st, []byte("LSL1"))
	if _, ok := wrapped.(xfer.HandOff); !ok {
		t.Fatal("prefixConn hides the trunk stream's hand-off")
	}
	var got bytes.Buffer
	var live atomic.Uint64
	n, err := xfer.CopyCounted(&got, wrapped, nil, xfer.CopyConfig{Counters: []xfer.Adder{xfer.AtomicAdder{U: &live}}})
	if err != nil || got.String() != "LSL1 and the rest" || n != int64(got.Len()) || live.Load() != uint64(n) {
		t.Fatalf("relayed %q (n=%d, counted %d, err %v), want the prefix then the stream", got.String(), n, live.Load(), err)
	}
	if _, ok := newPrefixConn(a, []byte("LSL1")).(xfer.HandOff); ok {
		t.Fatal("prefixConn over a plain conn claims a hand-off it cannot make")
	}
}

// writeCountingConn is an accepted TCP conn that counts plain Write
// calls. It embeds *net.TCPConn, so net.Buffers still reaches its
// writev, which the count does not see.
type writeCountingConn struct {
	*net.TCPConn
	writes *atomic.Int64
}

func (c writeCountingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.TCPConn.Write(p)
}

type writeCountingListener struct {
	net.Listener
	writes atomic.Int64
}

func (l *writeCountingListener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return writeCountingConn{nc.(*net.TCPConn), &l.writes}, nil
}

// TestTrunkAcceptSideKeepsWritev: after the probe reads the trunk magic,
// the accept-side link must write to the accepted conn itself. Behind a
// wrapper replaying the magic, net.Buffers cannot find the conn's writev
// and sends every frame header and payload as its own write: two
// syscalls, and two segments under TCP_NODELAY. Only the hello may be a
// plain write.
func TestTrunkAcceptSideKeepsWritev(t *testing.T) {
	targetAddr, received := startTarget(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	counting := &writeCountingListener{Listener: ln}
	d := New(Config{Mux: true})
	go d.Serve(counting)
	t.Cleanup(func() { d.Close() })

	pool := mux.NewPool(mux.PoolConfig{})
	defer pool.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	c, err := core.Dial(ctx, core.Route{Via: []string{ln.Addr().String()}, Target: targetAddr}, core.WithMux(pool))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	payload := bytes.Repeat([]byte("w"), 300<<10) // several WINDOW grants back
	if _, err := c.Write(payload); err != nil {
		t.Fatal(err)
	}
	c.CloseWrite()
	expectPayload(t, received, payload)
	c.SetDeadline(time.Now().Add(5 * time.Second))
	io.Copy(io.Discard, c) // the session unwinds back over the trunk
	if n := counting.writes.Load(); n != 1 {
		t.Fatalf("accept-side trunk made %d plain writes, want 1 (the hello); every frame must go out by writev", n)
	}
}
