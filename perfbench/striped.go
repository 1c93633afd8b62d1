package main

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"time"

	"lsl"
	"lsl/internal/emu"
)

// striped is one client striping groups over two WAN paths, each an emu
// token-bucket proxy in front of its own classic depot, to a fresh
// lsl.Listen listener per group (StripedReceive owns its listener).
type striped struct {
	depots  depots
	proxies []*emu.Proxy
	via     [][]string
	tr      *tracer
}

func newStriped(tr *tracer) (*striped, error) {
	s := &striped{tr: tr}
	for _, rate := range []float64{stripeFastBps, stripeSlowBps} {
		if err := s.depots.start(depotConfig(false, nil, tr)); err != nil {
			s.close()
			return nil, err
		}
		p := emu.NewProxy(s.depots.addrs[len(s.depots.addrs)-1],
			emu.Shape{Delay: stripeDelay, RateBps: rate},
			emu.Shape{Delay: stripeDelay})
		addr, err := p.Start()
		if err != nil {
			s.close()
			return nil, err
		}
		s.proxies = append(s.proxies, p)
		s.via = append(s.via, []string{addr})
	}
	return s, nil
}

// checkWriter compares the reassembled stream with the payload as the
// receiver writes it.
type checkWriter struct {
	mu   sync.Mutex
	want []byte
	off  int
	flip bool
	err  error
	st   *sessionTrace
}

func (w *checkWriter) Write(b []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err == nil {
		got := b
		if w.flip && w.off == 0 && len(b) > 0 {
			got = append([]byte{b[0] ^ 0xff}, b[1:]...)
		}
		w.err = compareAt(w.want, w.off, got, w.st)
	}
	w.off += len(b)
	return len(b), nil
}

func (s *striped) session(ctx context.Context, p []byte, _ lsl.SessionID, flip bool, st *sessionTrace) (time.Duration, error) {
	ln, err := lsl.Listen("127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	routes := make([]lsl.Route, len(s.via))
	for i, via := range s.via {
		routes[i] = lsl.Route{Via: via, Target: ln.Addr().String()}
	}
	cw := &checkWriter{want: p, flip: flip, st: st}
	received := make(chan verdict, 1)
	go func() {
		n, err := lsl.StripedReceive(ln, len(routes), cw)
		if err == nil && n != int64(len(p)) {
			err = fmt.Errorf("striped receive returned %d of %d bytes", n, len(p))
		}
		received <- verdict{at: time.Now(), err: err}
	}()

	start := time.Now()
	res, err := lsl.StripedTransfer(ctx, routes, bytes.NewReader(p), int64(len(p)),
		lsl.WithStripeFrameSize(stripeFrame),
		lsl.WithStripeRebalanceBytes(512<<10))
	sent := time.Now()
	if err != nil {
		ln.Close() // unblocks the receiver
		<-received
		return 0, err
	}
	var v verdict
	select {
	case v = <-received:
	case <-ctx.Done():
		ln.Close()
		<-received
		return 0, fmt.Errorf("waiting for striped receive: %w", ctx.Err())
	}
	ln.Close()
	if v.err == nil {
		cw.mu.Lock()
		v.err = cw.err
		if v.err == nil && cw.off != len(p) {
			v.err = fmt.Errorf("reassembled %d of %d bytes", cw.off, len(p))
		}
		cw.mu.Unlock()
	}
	if v.err != nil {
		return 0, v.err
	}
	if st != nil {
		st.start, st.end = start, v.at
		st.transfer = span{start, sent}
		st.stripe = res
		st.fastAddr = s.via[0][0]
	}
	return v.at.Sub(start), nil
}

func (s *striped) counters(m map[string]float64) { s.depots.counters(m) }

// hops stands in a depot address for the per-group listener.
func (s *striped) hops() []string { return []string{s.via[0][0], s.depots.addrs[0]} }

func (s *striped) close() {
	s.depots.close()
	for _, p := range s.proxies {
		p.Close()
	}
}
