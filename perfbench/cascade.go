package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"

	"lsl"
)

// sink is the session target: an lsl.Listen listener whose every accepted
// session is checked byte for byte against the payload its client
// registered under the session ID before dialing.
type sink struct {
	ln *lsl.Listener
	wg sync.WaitGroup

	mu   sync.Mutex
	want map[lsl.SessionID]*expectation
	open map[*lsl.ServerConn]struct{}
}

// expectation is what the sink must receive for one session.
type expectation struct {
	payload []byte
	digest  bool
	flip    bool // flip one received byte before checking (self-test)
	st      *sessionTrace
	done    chan verdict // buffered: the sink never blocks on it
}

type verdict struct {
	at  time.Time
	err error
}

// readBufs is a free list of the sinks' read buffers, so a session's
// check does not allocate one (that would be charged to
// alloc_KB_per_session). Unlike a sync.Pool it is never emptied by a GC,
// so the benchmark's own allocations do not vary from run to run.
var readBufs = make(chan []byte, 4) // more than the sessions ever in flight at once

func getBuf() []byte {
	select {
	case b := <-readBufs:
		return b
	default:
		return make([]byte, 256<<10)
	}
}

func putBuf(b []byte) {
	select {
	case readBufs <- b:
	default:
	}
}

func newSink() (*sink, error) {
	ln, err := lsl.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &sink{
		ln:   ln,
		want: make(map[lsl.SessionID]*expectation),
		open: make(map[*lsl.ServerConn]struct{}),
	}
	s.wg.Add(1)
	go s.serve()
	return s, nil
}

func (s *sink) addr() string { return s.ln.Addr().String() }

func (s *sink) expect(id lsl.SessionID, e *expectation) {
	s.mu.Lock()
	s.want[id] = e
	s.mu.Unlock()
}

func (s *sink) forget(id lsl.SessionID) {
	s.mu.Lock()
	delete(s.want, id)
	s.mu.Unlock()
}

func (s *sink) serve() {
	defer s.wg.Done()
	for {
		sc, err := s.ln.Accept()
		if err != nil {
			return
		}
		accepted := time.Now()
		s.mu.Lock()
		e := s.want[sc.SessionID()]
		delete(s.want, sc.SessionID())
		s.open[sc] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			err := errors.New("sink: session with no registered payload")
			if e != nil {
				if e.st != nil {
					e.st.accepted = accepted
				}
				err = checkStream(sc, e)
			}
			sc.Close()
			s.mu.Lock()
			delete(s.open, sc)
			s.mu.Unlock()
			if e != nil {
				e.done <- verdict{at: time.Now(), err: err}
			}
		}()
	}
}

// checkStream reads one session to EOF, comparing every byte with the
// expected payload, and for digested sessions requires the MD5 trailer
// to have verified.
func checkStream(sc *lsl.ServerConn, e *expectation) error {
	buf := getBuf()
	defer putBuf(buf)
	st := e.st
	off := 0
	for {
		var t0 time.Time
		if st != nil {
			t0 = time.Now()
		}
		n, err := sc.Read(buf)
		if st != nil {
			t1 := time.Now()
			st.sinkRead += t1.Sub(t0)
			if st.loop.start.IsZero() {
				st.loop.start = t0
			}
			if n > 0 && st.firstByte.IsZero() {
				st.firstByte = t1
			}
		}
		if n > 0 {
			if e.flip && off == 0 {
				buf[0] ^= 0xff
			}
			if err := compareAt(e.payload, off, buf[:n], st); err != nil {
				return err
			}
			off += n
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("sink read at offset %d: %w", off, err)
		}
	}
	if st != nil {
		st.loop.end = time.Now()
	}
	if off != len(e.payload) {
		return fmt.Errorf("sink received %d of %d bytes", off, len(e.payload))
	}
	if e.digest && !sc.Verified() {
		return errors.New("sink: digest trailer not verified")
	}
	return nil
}

// compareAt checks got against want[off:], timing the comparison as the
// benchmark's own cost when traced.
func compareAt(want []byte, off int, got []byte, st *sessionTrace) error {
	var t0 time.Time
	if st != nil {
		t0 = time.Now()
	}
	ok := off+len(got) <= len(want) && bytes.Equal(got, want[off:off+len(got)])
	if st != nil {
		st.verify += time.Since(t0)
	}
	if !ok {
		return fmt.Errorf("sink: delivered bytes differ from the payload in [%d, %d)", off, off+len(got))
	}
	return nil
}

func (s *sink) close() {
	s.ln.Close()
	s.mu.Lock()
	for sc := range s.open {
		sc.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// dialer returns a transport dialer that pays rtt before every connect,
// or nil (the library default) when rtt is zero.
func dialer(rtt time.Duration) func(ctx context.Context, network, addr string) (net.Conn, error) {
	if rtt == 0 {
		return nil
	}
	var nd net.Dialer
	return func(ctx context.Context, network, addr string) (net.Conn, error) {
		t := time.NewTimer(rtt)
		defer t.Stop()
		select {
		case <-t.C:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return nd.DialContext(ctx, network, addr)
	}
}

// depots runs in-process depots on loopback listeners.
type depots struct {
	list  []*lsl.Depot
	addrs []string
	wg    sync.WaitGroup
}

func (ds *depots) start(cfg lsl.DepotConfig) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	d := lsl.NewDepot(cfg)
	ds.list = append(ds.list, d)
	ds.addrs = append(ds.addrs, ln.Addr().String())
	ds.wg.Add(1)
	go func() {
		defer ds.wg.Done()
		d.Serve(ln)
	}()
	return nil
}

func (ds *depots) close() {
	for _, d := range ds.list {
		d.Close()
	}
	ds.wg.Wait()
}

// depotConfig is every benchmark depot's configuration: library defaults
// except a short drain, so tearing a stack down never waits long.
func depotConfig(trunk bool, dial func(context.Context, string, string) (net.Conn, error), tr *tracer) lsl.DepotConfig {
	cfg := lsl.DepotConfig{Mux: trunk, Dial: dial, DrainTimeout: 5 * time.Second}
	if tr != nil {
		cfg.OnSessionEnd = tr.depotSession
	}
	return cfg
}

// counters adds the depots' lifetime counters to m.
func (ds *depots) counters(m map[string]float64) {
	for _, d := range ds.list {
		s := d.Stats()
		m["depot.rejected"] += float64(s.RejectedBusy + s.RejectedRoute + s.RejectedProto)
		m["depot.max_buffered_bytes"] = max(m["depot.max_buffered_bytes"], float64(s.MaxBuffered))
		var text bytes.Buffer
		d.Metrics().WritePrometheus(&text) // writes to a bytes.Buffer cannot fail
		m["mux.links_opened"] += promValue(&text, `lsl_link_opened_total{side="dial"}`)
		m["mux.links_reused"] += promValue(&text, `lsl_link_reused_total{side="dial"}`)
		m["mux.streams_high_water"] = max(m["mux.streams_high_water"], promValue(&text, "lsl_mux_stream_high_water"))
	}
}

// promValue reads one sample from Prometheus text exposition (0 when the
// series is absent, as it is on a depot without trunks).
func promValue(text *bytes.Buffer, series string) float64 {
	sc := bufio.NewScanner(bytes.NewReader(text.Bytes()))
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), series+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err == nil {
				return f
			}
		}
	}
	return 0
}

// cascade is initiator -> depot -> depot -> lsl.Listen sink on loopback,
// over classic sublinks or mux trunks. With trunks, the last hop still
// falls back to classic: an lsl.Listen target does not speak them.
type cascade struct {
	w      workload
	sink   *sink
	depots depots
	pool   *lsl.LinkPool
	poolM  *lsl.LinkPoolMetrics
	route  lsl.Route
	opts   []lsl.Option
}

func newCascade(w workload, tr *tracer) (*cascade, error) {
	sk, err := newSink()
	if err != nil {
		return nil, err
	}
	c := &cascade{w: w, sink: sk}
	dial := dialer(w.connectRTT)
	for i := 0; i < 2; i++ {
		if err := c.depots.start(depotConfig(w.trunk, dial, tr)); err != nil {
			c.close()
			return nil, err
		}
	}
	c.route = lsl.Route{Via: c.depots.addrs, Target: sk.addr()}
	if w.trunk {
		cfg := lsl.LinkPoolConfig{Dial: dial}
		if tr != nil {
			reg := lsl.NewMetricsRegistry()
			c.poolM = &lsl.LinkPoolMetrics{
				LinkOpened:      reg.Counter("links_opened", ""),
				LinkReused:      reg.Counter("links_reused", ""),
				StreamHighWater: reg.Gauge("streams_high_water", ""),
			}
			cfg.Metrics = c.poolM
		}
		c.pool = lsl.NewLinkPool(cfg)
		c.opts = append(c.opts, lsl.WithMux(c.pool))
	} else {
		c.opts = append(c.opts, lsl.WithDialer(dial))
	}
	if w.digest {
		c.opts = append(c.opts, lsl.WithDigest())
	}
	return c, nil
}

func (c *cascade) session(ctx context.Context, p []byte, id lsl.SessionID, flip bool, st *sessionTrace) (time.Duration, error) {
	e := &expectation{payload: p, digest: c.w.digest, flip: flip, st: st, done: make(chan verdict, 1)}
	c.sink.expect(id, e)
	defer c.sink.forget(id)
	opts := append([]lsl.Option{lsl.WithSession(id), lsl.WithContentLength(int64(len(p)))}, c.opts...)

	start := time.Now()
	conn, err := lsl.Dial(ctx, c.route, opts...)
	if st != nil {
		st.start = start
		st.dial = span{start, time.Now()}
	}
	if err != nil {
		return 0, err
	}
	defer conn.Close()
	if dl, ok := ctx.Deadline(); ok {
		conn.SetDeadline(dl)
	}
	t := time.Now()
	if _, err := conn.Write(p); err != nil {
		return 0, fmt.Errorf("write: %w", err)
	}
	if st != nil {
		st.write = span{t, time.Now()}
		t = st.write.end
	}
	if err := conn.CloseWrite(); err != nil {
		return 0, fmt.Errorf("close write: %w", err)
	}
	if st != nil {
		st.closeWrite = span{t, time.Now()}
	}
	select {
	case v := <-e.done:
		if v.err != nil {
			return 0, v.err
		}
		if st != nil {
			st.end = v.at
		}
		return v.at.Sub(start), nil
	case <-ctx.Done():
		return 0, fmt.Errorf("waiting for sink verification: %w", ctx.Err())
	}
}

func (c *cascade) counters(m map[string]float64) {
	c.depots.counters(m)
	if c.poolM != nil {
		m["mux.links_opened"] += float64(c.poolM.LinkOpened.Value())
		m["mux.links_reused"] += float64(c.poolM.LinkReused.Value())
		m["mux.streams_high_water"] = max(m["mux.streams_high_water"], float64(c.poolM.StreamHighWater.Value()))
	}
}

func (c *cascade) hops() []string { return c.route.Hops() }

func (c *cascade) close() {
	if c.pool != nil {
		c.pool.Close()
	}
	c.depots.close()
	c.sink.close()
}
