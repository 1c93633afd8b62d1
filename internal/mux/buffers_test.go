package mux

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"
)

// Contract tests for the pooled DATA path: inbound payloads live in
// buffers shared through one process-wide pool, so a buffer handed back
// while a stream still holds it would surface as corrupted bytes on some
// other stream. Every test here runs many streams side by side and
// checks every byte.

// pattern returns n seeded bytes; each stream gets its own seed.
func pattern(seed int64, n int) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

// writeChunked writes p in seeded random-sized pieces (1 B to 150 KiB),
// so spans straddle frame boundaries and small frames coalesce.
func writeChunked(w io.Writer, p []byte, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	for len(p) > 0 {
		k := min(len(p), 1+rng.Intn(150<<10))
		if _, err := w.Write(p[:k]); err != nil {
			return err
		}
		p = p[k:]
	}
	return nil
}

// readExact reads until EOF in seeded random-sized pieces and compares
// everything against want.
func readExact(r io.Reader, want []byte, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	got := make([]byte, 0, len(want))
	buf := make([]byte, 100<<10)
	for {
		n, err := r.Read(buf[:1+rng.Intn(len(buf))])
		got = append(got, buf[:n]...)
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("got %d bytes, want %d byte-exact", len(got), len(want))
	}
	return nil
}

// serveExchange accepts n streams on srv; each reads the client's
// pattern (seed from the stream id) and answers with its own pattern.
// Wait on the returned group before reading errs.
func serveExchange(srv *Link, n, size int, errs chan<- error) *sync.WaitGroup {
	var wg sync.WaitGroup
	wg.Add(n)
	go func() {
		for i := 0; i < n; i++ {
			s, err := srv.AcceptStream()
			if err != nil {
				errs <- err
				wg.Add(i - n) // release the streams never accepted
				return
			}
			go func(s *Stream) {
				defer wg.Done()
				defer s.Close()
				seed := int64(s.StreamID())
				wrote := make(chan struct{})
				go func() {
					defer close(wrote)
					if err := writeChunked(s, pattern(-seed, size), seed); err == nil {
						s.CloseWrite()
					}
				}()
				if err := readExact(s, pattern(seed, size), seed); err != nil {
					errs <- fmt.Errorf("server stream %d: %w", s.StreamID(), err)
				}
				<-wrote
			}(s)
		}
	}()
	return &wg
}

// exchange runs one client stream against serveExchange.
func exchange(cs *Stream, size int) error {
	seed := int64(cs.StreamID())
	werr := make(chan error, 1)
	go func() {
		err := writeChunked(cs, pattern(seed, size), seed)
		if err == nil {
			err = cs.CloseWrite()
		}
		werr <- err
	}()
	if err := readExact(cs, pattern(-seed, size), seed+1); err != nil {
		return fmt.Errorf("client stream %d: %w", cs.StreamID(), err)
	}
	return <-werr
}

func drainErrs(t *testing.T, errs chan error) {
	t.Helper()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestPooledBuffersManyStreams: distinct patterns in both directions on
// many concurrent streams of one link, with a window small enough that
// credit cycles many times per stream.
func TestPooledBuffersManyStreams(t *testing.T) {
	client, srv := linkPair(t, LinkConfig{Window: 96 << 10})
	const streams, size = 12, 600 << 10
	errs := make(chan error, 2*streams+1)
	served := serveExchange(srv, streams, size, errs)
	var wg sync.WaitGroup
	for i := 0; i < streams; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cs, err := client.OpenStream()
			if err != nil {
				errs <- err
				return
			}
			defer cs.Close()
			if err := exchange(cs, size); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	served.Wait()
	drainErrs(t, errs)
}

// waitStreams waits for l to carry n live streams.
func waitStreams(t *testing.T, l *Link, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for l.NumStreams() != n {
		if time.Now().After(deadline) {
			t.Fatalf("link carries %d streams, want %d", l.NumStreams(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// waitBuffered waits until s holds at least n undrained bytes.
func waitBuffered(t *testing.T, s *Stream, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		s.mu.Lock()
		b := s.buffered
		s.mu.Unlock()
		if b >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("stream %d buffered %d bytes, want %d", s.id, b, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// neighbours runs n full exchanges on client while fn disturbs one other
// stream, and fails on any corrupted byte.
func neighbours(t *testing.T, client, srv *Link, n int, fn func()) {
	t.Helper()
	const size = 300 << 10
	errs := make(chan error, 2*n+1)
	served := serveExchange(srv, n, size, errs)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cs, err := client.OpenStream()
			if err != nil {
				errs <- err
				return
			}
			defer cs.Close()
			if err := exchange(cs, size); err != nil {
				errs <- err
			}
		}()
	}
	fn()
	wg.Wait()
	served.Wait()
	drainErrs(t, errs)
}

// TestCloseReturnsUndrainedChunks: a stream closed with payload still
// queued hands its buffers back, and the neighbours reusing them stay
// byte-exact.
func TestCloseReturnsUndrainedChunks(t *testing.T) {
	client, srv := linkPair(t, LinkConfig{Window: 256 << 10})
	victim, err := client.OpenStream()
	if err != nil {
		t.Fatal(err)
	}
	defer victim.Close()
	// 40 KiB + 1 B + 100 KiB: a partial frame, a coalesced byte, and a
	// span that splits across two frames.
	for _, n := range []int{40 << 10, 1, 100 << 10} {
		if _, err := victim.Write(pattern(int64(n), n)); err != nil {
			t.Fatal(err)
		}
	}
	vs := acceptOne(t, srv)
	waitBuffered(t, vs, 140<<10+1)
	neighbours(t, client, srv, 6, func() {
		vs.Close()
		vs.mu.Lock()
		defer vs.mu.Unlock()
		if vs.chunks != nil || vs.head != 0 || vs.buffered != 0 {
			t.Errorf("closed stream kept %d chunks (%d bytes)", len(vs.chunks)-vs.head, vs.buffered)
		}
	})
	if _, err := vs.Read(make([]byte, 1)); err == nil {
		t.Fatal("read on a closed stream succeeded")
	}
}

// TestPeerResetMidStream: the peer aborts a stream while this side holds
// its undelivered payload and more DATA is in flight. Queued bytes stay
// readable and exact, the reset surfaces after them, late DATA is
// dropped, and the neighbours are untouched.
func TestPeerResetMidStream(t *testing.T) {
	client, srv := linkPair(t, LinkConfig{Window: 128 << 10})
	cs, err := client.OpenStream()
	if err != nil {
		t.Fatal(err)
	}
	want := pattern(77, 1<<20)
	werr := make(chan error, 1)
	go func() { werr <- writeChunked(cs, want, 77) }()
	ss := acceptOne(t, srv)
	waitBuffered(t, ss, 64<<10)
	neighbours(t, client, srv, 6, func() {
		cs.Close() // RESET while ss holds queued chunks
		got, err := io.ReadAll(ss)
		if !errors.Is(err, ErrStreamReset) {
			t.Errorf("read after peer reset: %v, want %v", err, ErrStreamReset)
		}
		if len(got) < 64<<10 || !bytes.Equal(got, want[:len(got)]) {
			t.Errorf("queued bytes before the reset: got %d bytes, want an exact prefix of at least %d", len(got), 64<<10)
		}
		ss.Close()
	})
	if err := <-werr; err == nil {
		t.Error("writer finished 1 MiB on a stream reset after 64 KiB")
	}
}

// TestLinkTeardownMidStream: the link dies while many streams are mid
// transfer in both directions. Every stream must fail — no hang, no
// panic, no race — and buffers queued at teardown drain or drop cleanly.
func TestLinkTeardownMidStream(t *testing.T) {
	client, srv := linkPair(t, LinkConfig{Window: 128 << 10})
	const streams, size = 8, 4 << 20
	var wg sync.WaitGroup
	go func() {
		for {
			s, err := srv.AcceptStream()
			if err != nil {
				return
			}
			wg.Add(1)
			go func(s *Stream) {
				defer wg.Done()
				defer s.Close()
				go writeChunked(s, pattern(-int64(s.StreamID()), size), 1)
				// Read a little, then stall with chunks queued.
				io.ReadFull(s, make([]byte, 10<<10))
				<-client.Done()
				io.Copy(io.Discard, s)
			}(s)
		}
	}()
	results := make(chan error, streams)
	for i := 0; i < streams; i++ {
		cs, err := client.OpenStream()
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			defer cs.Close()
			go writeChunked(cs, pattern(int64(cs.StreamID()), size), 2)
			want := pattern(-int64(cs.StreamID()), size)
			got, err := io.ReadAll(cs)
			if !bytes.Equal(got, want[:len(got)]) {
				err = fmt.Errorf("stream %d: %d bytes before teardown are not an exact prefix", cs.StreamID(), len(got))
			} else if err == nil {
				err = fmt.Errorf("stream %d finished %d bytes across a torn-down link", cs.StreamID(), len(got))
			} else {
				err = nil
			}
			results <- err
		}()
	}
	waitStreams(t, srv, streams)
	time.Sleep(20 * time.Millisecond) // let data flow both ways
	client.Close()
	for i := 0; i < streams; i++ {
		select {
		case err := <-results:
			if err != nil {
				t.Error(err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("client stream hung after link teardown")
		}
	}
	select {
	case <-srv.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("server link survived its peer's teardown")
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("server stream hung after link teardown")
	}
}

// TestStreamAllocationBounded: carrying bytes over a trunk allocates
// next to nothing per byte — inbound payloads land in pooled buffers,
// outbound spans go out from the caller's slice, and a relay through
// xfer.CopyCounted hands the pooled buffers on to the next stream or
// TCP conn without scratch of its own. The bound is per MiB per trunk
// hop, so a relay over two trunks may allocate twice what one does.
func TestStreamAllocationBounded(t *testing.T) {
	t.Run("direct", func(t *testing.T) {
		allocPerMiB(t, 1, func(s *Stream) (io.Reader, error) { return s, nil })
	})
	t.Run("stream-to-stream", func(t *testing.T) {
		downC, downS := linkPair(t, LinkConfig{})
		allocPerMiB(t, 2, func(s *Stream) (io.Reader, error) {
			ds, err := downC.OpenStream()
			if err != nil {
				return nil, err
			}
			go relayAndClose(ds, s, ds.CloseWrite)
			return downS.AcceptStream()
		})
	})
	t.Run("stream-to-TCP", func(t *testing.T) {
		a, b := tcpPair(t)
		allocPerMiB(t, 1, func(s *Stream) (io.Reader, error) {
			go relayAndClose(a, s, a.CloseWrite)
			return b, nil
		})
	})
}

// relayAndClose relays src to dst through CopyCounted, as the depot
// does, then half-closes dst.
func relayAndClose(dst io.Writer, src *Stream, closeWrite func() error) {
	relayThrough(dst, src)
	closeWrite()
}

// allocPerMiB sends 4 MiB to warm the pools and scratch, then 16 MiB,
// over a fresh trunk; sink turns the accepted stream into the reader the
// bytes finally arrive on. It fails when the process allocated more than
// allocBoundKBPerMiB per MiB per trunk hop along the way.
func allocPerMiB(t *testing.T, hops int, sink func(*Stream) (io.Reader, error)) {
	client, srv := linkPair(t, LinkConfig{})
	const warm, total = 4 << 20, 16 << 20
	payload := pattern(1, 1<<20)
	recvd := make(chan int64, 1)
	go func() {
		s, err := srv.AcceptStream()
		if err != nil {
			recvd <- 0
			return
		}
		defer s.Close()
		r, err := sink(s)
		if err != nil {
			recvd <- 0
			return
		}
		n, _ := io.CopyBuffer(struct{ io.Writer }{io.Discard}, struct{ io.Reader }{r}, make([]byte, 64<<10))
		recvd <- n
	}()
	cs, err := client.OpenStream()
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()
	send := func(n int) {
		for ; n > 0; n -= len(payload) {
			if _, err := cs.Write(payload); err != nil {
				t.Fatal(err)
			}
		}
	}
	send(warm) // warm the pools and the links' write scratch

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	send(total)
	cs.CloseWrite()
	if n := <-recvd; n != warm+total {
		t.Fatalf("received %d bytes, want %d", n, warm+total)
	}
	runtime.ReadMemStats(&after)
	perMiB := float64(after.TotalAlloc-before.TotalAlloc) / 1024 / (total >> 20) / float64(hops)
	t.Logf("%.1f KB allocated per MiB per trunk hop", perMiB)
	if perMiB >= allocBoundKBPerMiB {
		t.Fatalf("%.1f KB allocated per MiB per trunk hop, want < %d", perMiB, allocBoundKBPerMiB)
	}
}
