package mux

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lsl/internal/wire"
	"lsl/internal/xfer"
)

// Contract tests for Stream.HandOff, the relay's zero-copy path: queued
// DATA buffers leave the stream in a batch, go straight to the next hop,
// and return to the pool after the write. Every test runs its links on
// an auditPool, so a buffer returned twice or never fails the test
// directly instead of surfacing as corruption somewhere else. The relays
// run through xfer.CopyCounted with a nil relay-buffer pool: the
// hand-off path must not borrow one.

// auditPool lends DATA buffers from dataPool and checks that each comes
// back exactly once.
type auditPool struct {
	mu  sync.Mutex
	out map[*[]byte]bool
	bad []string
}

func newAuditPool() *auditPool { return &auditPool{out: map[*[]byte]bool{}} }

func (a *auditPool) Get() *[]byte {
	b := dataPool.Get()
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.out[b] {
		a.bad = append(a.bad, "a buffer still lent out was lent again")
	}
	a.out[b] = true
	return b
}

func (a *auditPool) Put(b *[]byte) {
	if b == nil {
		return
	}
	a.mu.Lock()
	lent := a.out[b]
	delete(a.out, b)
	if !lent {
		a.bad = append(a.bad, "a buffer came back twice (or was never lent)")
	}
	a.mu.Unlock()
	if lent {
		dataPool.Put(b) // a second Put must not poison the shared pool
	}
}

func (a *auditPool) outstanding() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.out)
}

// check waits for every lent buffer to come back, then fails the test
// on any buffer still out or returned twice. Call it once every stream
// on the audited links is closed.
func (a *auditPool) check(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for a.outstanding() > 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.out) > 0 {
		t.Errorf("%d pooled buffers never returned", len(a.out))
	}
	for _, msg := range a.bad {
		t.Error(msg)
	}
}

// relayThrough moves src to dst the way the depot does, through
// xfer.CopyCounted with a live counter, and checks the counter agrees
// with the bytes moved.
func relayThrough(dst io.Writer, src *Stream) (int64, error) {
	var live atomic.Uint64
	n, err := xfer.CopyCounted(dst, src, nil, xfer.CopyConfig{Counters: []xfer.Adder{xfer.AtomicAdder{U: &live}}})
	if got := live.Load(); got != uint64(n) {
		return n, fmt.Errorf("counter credited %d bytes, relay moved %d", got, n)
	}
	return n, err
}

// tcpPair returns both ends of one loopback TCP connection.
func tcpPair(t *testing.T) (*net.TCPConn, *net.TCPConn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	a, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	b, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close(); b.Close() })
	return a.(*net.TCPConn), b.(*net.TCPConn)
}

// gateWriter blocks its first Write until open is closed, then appends
// everything to got. entered closes when the first Write arrives.
type gateWriter struct {
	open, entered chan struct{}
	once          sync.Once
	got           bytes.Buffer
}

func newGateWriter() *gateWriter {
	return &gateWriter{open: make(chan struct{}), entered: make(chan struct{})}
}

func (g *gateWriter) Write(p []byte) (int, error) {
	g.once.Do(func() { close(g.entered) })
	<-g.open
	return g.got.Write(p)
}

// failAfterWriter accepts its first Write whole and fails every later
// one with err.
type failAfterWriter struct {
	first int
	err   error
}

func (w *failAfterWriter) Write(p []byte) (int, error) {
	if w.first > 0 {
		return 0, w.err
	}
	w.first = len(p)
	return len(p), nil
}

type maxGauge struct{ v int64 }

func (g *maxGauge) SetMax(v int64) { g.v = max(g.v, v) }

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestHandOffRelaysByteExact: several streams relayed side by side, each
// to a stream on a second trunk or to its own TCP conn, with random
// write sizes and a window small enough that credit spans split queued
// chunks. Every byte arrives in order and every buffer comes home once.
func TestHandOffRelaysByteExact(t *testing.T) {
	for _, toTCP := range []bool{false, true} {
		name := map[bool]string{false: "stream-to-stream", true: "stream-to-TCP"}[toTCP]
		t.Run(name, func(t *testing.T) {
			audit := newAuditPool()
			cfg := LinkConfig{Window: 96 << 10, pool: audit}
			upC, upS := linkPair(t, cfg)
			downC, downS := linkPair(t, cfg)
			const streams, size = 6, 600 << 10
			errs := make(chan error, 4*streams)
			var wg sync.WaitGroup
			var all []*Stream
			for i := 0; i < streams; i++ {
				seed := int64(i + 1)
				want := pattern(seed, size)
				cs, err := upC.OpenStream()
				if err != nil {
					t.Fatal(err)
				}
				go func() {
					err := writeChunked(cs, want, seed)
					if err == nil {
						err = cs.CloseWrite()
					}
					if err != nil {
						errs <- err
					}
				}()
				src := acceptOne(t, upS)
				all = append(all, cs, src)
				var dst io.Writer
				var sink io.Reader
				var finish func() error
				if toTCP {
					a, b := tcpPair(t)
					dst, sink, finish = a, b, a.CloseWrite
				} else {
					ds, err := downC.OpenStream()
					if err != nil {
						t.Fatal(err)
					}
					all = append(all, ds)
					dst, finish = ds, ds.CloseWrite
				}
				wg.Add(2)
				go func() {
					defer wg.Done()
					n, err := relayThrough(dst, src)
					if err == nil && n != size {
						err = fmt.Errorf("relay moved %d bytes, want %d", n, size)
					}
					if err == nil {
						err = finish()
					}
					if err != nil {
						errs <- fmt.Errorf("relay %d: %w", seed, err)
					}
				}()
				if sink == nil {
					ss := acceptOne(t, downS)
					all = append(all, ss)
					sink = ss
				}
				go func() {
					defer wg.Done()
					if err := readExact(sink, want, seed); err != nil {
						errs <- fmt.Errorf("sink %d: %w", seed, err)
					}
				}()
			}
			wg.Wait()
			drainErrs(t, errs)
			for _, s := range all {
				s.Close()
			}
			audit.check(t)
		})
	}
}

// TestHandOffHoldsAtMostTwoWindows: credit goes back when a batch is
// detached, so while a full window is stuck in a downstream write the
// peer refills the queue — and no further. A relayed stream pins at
// most two windows of pooled buffers.
func TestHandOffHoldsAtMostTwoWindows(t *testing.T) {
	audit := newAuditPool()
	const window = 256 << 10
	upC, upS := linkPair(t, LinkConfig{Window: window, pool: audit})
	cs, err := upC.OpenStream()
	if err != nil {
		t.Fatal(err)
	}
	want := pattern(5, 8*window)
	werr := make(chan error, 1)
	go func() {
		_, err := cs.Write(want)
		if err == nil {
			err = cs.CloseWrite()
		}
		werr <- err
	}()
	ss := acceptOne(t, upS)
	waitBuffered(t, ss, window) // the writer has spent its credit

	gate := newGateWriter()
	var high maxGauge
	type result struct {
		n   int64
		err error
	}
	done := make(chan result, 1)
	go func() {
		n, err := xfer.CopyCounted(gate, ss, nil, xfer.CopyConfig{HighWater: &high})
		done <- result{n, err}
	}()
	<-gate.entered              // one full window detached, stuck downstream
	waitBuffered(t, ss, window) // its credit went back: the queue refilled
	time.Sleep(20 * time.Millisecond)
	ss.mu.Lock()
	queued := ss.buffered
	ss.mu.Unlock()
	if queued != window {
		t.Errorf("queue holds %d bytes behind a stuck batch, want one window (%d)", queued, window)
	}
	if n, limit := audit.outstanding(), 2*window/wire.MaxMuxPayload; n > limit {
		t.Errorf("%d pooled buffers held, want at most %d (two windows)", n, limit)
	}
	close(gate.open)
	r := <-done
	if r.err != nil || r.n != int64(len(want)) || !bytes.Equal(gate.got.Bytes(), want) {
		t.Fatalf("relay moved %d bytes (%v), want %d byte-exact", r.n, r.err, len(want))
	}
	if err := <-werr; err != nil {
		t.Fatal(err)
	}
	if high.v != window {
		t.Errorf("high water %d, want the largest batch, one window (%d)", high.v, window)
	}
	ss.Close()
	cs.Close()
	audit.check(t)
}

// queueChunks writes 40 KiB, 1 B, and 100 KiB on cs and waits until the
// stream srv accepts holds them all: a coalesced chunk, a full one, and
// a partial one.
func queueChunks(t *testing.T, cs *Stream, srv *Link) (*Stream, []byte) {
	t.Helper()
	var sent []byte
	for _, n := range []int{40 << 10, 1, 100 << 10} {
		p := pattern(int64(n), n)
		if _, err := cs.Write(p); err != nil {
			t.Fatal(err)
		}
		sent = append(sent, p...)
	}
	ss := acceptOne(t, srv)
	waitBuffered(t, ss, len(sent))
	return ss, sent
}

// TestHandOffWriteFailsMidBatch: the next hop fails partway through a
// batch. The relay reports the bytes written before the failure and the
// failure itself, counts only those bytes, and every buffer of the
// batch — written or not — goes back to the pool once.
func TestHandOffWriteFailsMidBatch(t *testing.T) {
	t.Run("writer", func(t *testing.T) {
		audit := newAuditPool()
		upC, upS := linkPair(t, LinkConfig{pool: audit})
		cs, err := upC.OpenStream()
		if err != nil {
			t.Fatal(err)
		}
		ss, sent := queueChunks(t, cs, upS)
		boom := errors.New("next hop gone")
		w := &failAfterWriter{err: boom}
		n, err := relayThrough(w, ss)
		if !errors.Is(err, boom) {
			t.Fatalf("relay error %v, want %v", err, boom)
		}
		if n != int64(w.first) || n == 0 || n >= int64(len(sent)) {
			t.Fatalf("relay moved %d bytes, want the first buffer's %d of %d", n, w.first, len(sent))
		}
		ss.mu.Lock()
		left := ss.buffered
		ss.mu.Unlock()
		if left != 0 {
			t.Errorf("%d bytes still queued after the batch left", left)
		}
		ss.Close()
		cs.Close()
		audit.check(t)
	})
	t.Run("stream", func(t *testing.T) {
		audit := newAuditPool()
		upC, upS := linkPair(t, LinkConfig{pool: audit})
		// The next trunk grants one frame of credit and never more.
		downC, downS := linkPair(t, LinkConfig{Window: wire.MaxMuxPayload, pool: audit})
		cs, err := upC.OpenStream()
		if err != nil {
			t.Fatal(err)
		}
		ss, sent := queueChunks(t, cs, upS)
		ds, err := downC.OpenStream()
		if err != nil {
			t.Fatal(err)
		}
		type result struct {
			n   int64
			err error
		}
		done := make(chan result, 1)
		go func() {
			n, err := relayThrough(ds, ss)
			done <- result{n, err}
		}()
		far := acceptOne(t, downS)
		waitBuffered(t, far, wire.MaxMuxPayload) // first span out, now waiting on credit
		downC.Close()
		r := <-done
		if r.err == nil || r.n != wire.MaxMuxPayload {
			t.Fatalf("relay moved %d bytes (%v), want %d then the teardown error", r.n, r.err, wire.MaxMuxPayload)
		}
		got, _ := io.ReadAll(far)
		if !bytes.Equal(got, sent[:len(got)]) {
			t.Errorf("next hop got %d bytes that are not a prefix of what was sent", len(got))
		}
		for _, s := range []*Stream{far, ds, ss, cs} {
			s.Close()
		}
		audit.check(t)
	})
}

// TestHandOffPeerResetDrainsFirst: the peer resets while one batch is
// stuck downstream and more is queued. The relay delivers every queued
// byte in order, as a batch of its own, then returns the reset.
func TestHandOffPeerResetDrainsFirst(t *testing.T) {
	audit := newAuditPool()
	upC, upS := linkPair(t, LinkConfig{Window: 128 << 10, pool: audit})
	cs, err := upC.OpenStream()
	if err != nil {
		t.Fatal(err)
	}
	want := pattern(9, 1<<20)
	go writeChunked(cs, want, 9)
	ss := acceptOne(t, upS)
	waitBuffered(t, ss, 32<<10)
	gate := newGateWriter()
	var batches []int
	type result struct {
		n   int64
		err error
	}
	done := make(chan result, 1)
	go func() {
		n, err := xfer.CopyCounted(gate, ss, nil, xfer.CopyConfig{Progress: func(n int) { batches = append(batches, n) }})
		done <- result{n, err}
	}()
	<-gate.entered
	waitBuffered(t, ss, 32<<10) // more queued behind the stuck batch
	cs.Close()                  // RESET
	var queued int
	waitFor(t, "the reset to arrive", func() bool {
		ss.mu.Lock()
		defer ss.mu.Unlock()
		queued = ss.buffered // DATA after the reset is dropped
		return ss.resetErr != nil
	})
	close(gate.open)
	r := <-done
	got := gate.got.Bytes()
	if !errors.Is(r.err, ErrStreamReset) {
		t.Fatalf("relay error %v, want %v", r.err, ErrStreamReset)
	}
	if len(batches) < 2 || len(got) != batches[0]+queued || r.n != int64(len(got)) || !bytes.Equal(got, want[:len(got)]) {
		t.Fatalf("relay moved %d bytes in batches %v, delivered %d: want the stuck batch plus the %d queued, an exact prefix", r.n, batches, len(got), queued)
	}
	ss.Close()
	audit.check(t)
}

// TestHandOffLinkTeardown: the upstream trunk dies while many relays
// are moving bytes to a second trunk. Every relay returns an error — no
// hang — after delivering an exact prefix, and every buffer on both
// trunks comes home once.
func TestHandOffLinkTeardown(t *testing.T) {
	audit := newAuditPool()
	cfg := LinkConfig{Window: 128 << 10, pool: audit}
	upC, upS := linkPair(t, cfg)
	downC, downS := linkPair(t, cfg)
	const streams, size = 6, 8 << 20
	var all []*Stream
	results := make(chan error, 2*streams)
	for i := 0; i < streams; i++ {
		seed := int64(100 + i)
		want := pattern(seed, size)
		cs, err := upC.OpenStream()
		if err != nil {
			t.Fatal(err)
		}
		go writeChunked(cs, want, seed)
		src := acceptOne(t, upS)
		ds, err := downC.OpenStream()
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			n, err := relayThrough(ds, src)
			if err == nil {
				err = fmt.Errorf("relay finished %d bytes across a torn-down link", n)
			} else {
				err = nil
			}
			ds.Close() // RESET: the sink sees the abort after the prefix
			results <- err
		}()
		far := acceptOne(t, downS)
		go func() {
			got, _ := io.ReadAll(far)
			if !bytes.Equal(got, want[:len(got)]) {
				results <- fmt.Errorf("stream %d: %d bytes are not an exact prefix", seed, len(got))
				return
			}
			results <- nil
		}()
		all = append(all, cs, src, ds, far)
	}
	time.Sleep(20 * time.Millisecond) // let bytes flow through every relay
	upC.Close()
	for i := 0; i < 2*streams; i++ {
		select {
		case err := <-results:
			if err != nil {
				t.Error(err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("relay or sink hung after the upstream trunk died")
		}
	}
	for _, s := range all {
		s.Close()
	}
	audit.check(t)
}

// TestHandOffRacesClose: the relayed stream is closed at random moments
// while batches are detached, in flight, or being queued. Close and the
// hand-off must never both return a buffer.
func TestHandOffRacesClose(t *testing.T) {
	audit := newAuditPool()
	upC, upS := linkPair(t, LinkConfig{Window: 128 << 10, pool: audit})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 40; i++ {
		cs, err := upC.OpenStream()
		if err != nil {
			t.Fatal(err)
		}
		go writeChunked(cs, pattern(int64(i), 4<<20), int64(i))
		ss := acceptOne(t, upS)
		done := make(chan error, 1)
		go func() {
			_, err := relayThrough(io.Discard, ss)
			done <- err
		}()
		time.Sleep(time.Duration(rng.Intn(2000)) * time.Microsecond)
		ss.Close()
		select {
		case err := <-done:
			if err != nil && !errors.Is(err, ErrLinkClosed) {
				t.Fatalf("relay after Close: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("relay hung after its source closed")
		}
		cs.Close()
	}
	audit.check(t)
}
