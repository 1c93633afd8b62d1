package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"runtime"

	"lsl"
	"lsl/internal/mux"
	"lsl/internal/wire"
	"lsl/internal/xfer"
)

// The layer probes each time one public entry point of one layer over the
// workload's own payloads, outside any stack (which sits idle meanwhile),
// so a layer's cost can be read without the others. A probe's time is the
// process CPU time (user+system) it took, because on loopback a pipeline
// stage that adds CPU work need not add wall time; the end-to-end metrics
// these predict are CPU and allocation per session. Each probe runs
// probeRuns times; the median is reported.
const (
	probeBytes = 64 << 20
	probeRuns  = 3
)

// probeSample draws the workload's payloads from a seeded stream of its
// own until they total at least probeBytes.
func probeSample(in *inputs, seed int64) [][]byte {
	p := &inputs{w: in.w, block: in.block, rngs: []*rand.Rand{rand.New(rand.NewSource(seed - 1))}}
	var out [][]byte
	for total := 0; total < probeBytes; {
		b, _ := p.next(0)
		out = append(out, b)
		total += len(b)
	}
	return out
}

func mib(payloads [][]byte) float64 {
	var n int
	for _, p := range payloads {
		n += len(p)
	}
	return float64(n) / (1 << 20)
}

// medianRun runs f probeRuns times and returns the median CPU time in ns.
func medianRun(f func() error) (float64, error) {
	var ds []float64
	for i := 0; i < probeRuns; i++ {
		c0 := cpuTime()
		if err := f(); err != nil {
			return 0, err
		}
		ds = append(ds, float64(cpuTime()-c0))
	}
	return median(ds), nil
}

// runProbes fills m with the layer-probe metrics for route (the hops of
// the workload's sessions).
func runProbes(in *inputs, seed int64, route []string, m map[string]float64) error {
	payloads := probeSample(in, seed)
	per := mib(payloads)
	probes := []struct {
		name string
		f    func([][]byte) error
	}{
		{"tcp.direct_ns_per_MiB", probeTCP},
		{"xfer.copy_ns_per_MiB", probeCopy},
		{"depot.hop_ns_per_MiB", probeHop},
		{"wire.mux_frame_ns_per_MiB", probeMuxFrame},
	}
	for _, p := range probes {
		d, err := medianRun(func() error { return p.f(payloads) })
		if err != nil {
			return fmt.Errorf("probe %s: %w", p.name, err)
		}
		m[p.name] = d / per
	}
	m["depot.hop_ns_per_MiB"] -= m["tcp.direct_ns_per_MiB"]

	var allocs []float64
	d, err := medianRun(func() error {
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		err := probeMuxStream(payloads)
		runtime.ReadMemStats(&ms1)
		allocs = append(allocs, float64(ms1.TotalAlloc-ms0.TotalAlloc))
		return err
	})
	if err != nil {
		return fmt.Errorf("probe mux.stream: %w", err)
	}
	m["mux.stream_ns_per_MiB"] = d / per
	m["mux.stream_alloc_KB_per_MiB"] = median(allocs) / 1e3 / per

	const opens = 1000
	d, err = medianRun(func() error { return probeOpenClose(opens) })
	if err != nil {
		return fmt.Errorf("probe mux.stream_open_close: %w", err)
	}
	m["mux.stream_open_close_us"] = d / opens / 1e3

	const headers = 10000
	d, err = medianRun(func() error { return probeOpenHeader(route, headers) })
	if err != nil {
		return fmt.Errorf("probe wire.open_header: %w", err)
	}
	m["wire.open_header_us"] = d / headers / 1e3
	return nil
}

// pipe runs one loopback TCP connection whose far end drains into
// io.Discard; it returns the near end and a channel that yields once the
// drain saw EOF.
func pipe(serve func(net.Conn) error) (net.Conn, <-chan error, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	done := make(chan error, 1)
	go func() {
		defer ln.Close()
		nc, err := ln.Accept()
		if err != nil {
			done <- err
			return
		}
		defer nc.Close()
		done <- serve(nc)
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		ln.Close()
		<-done
		return nil, nil, err
	}
	return c, done, nil
}

// drain reads r to EOF through one of the sinks' buffers (io.Copy into
// io.Discard would read in 8 KiB steps instead).
func drain(r io.Reader) error {
	buf := getBuf()
	defer putBuf(buf)
	for {
		if _, err := r.Read(buf); err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
	}
}

func writeAll(w io.Writer, payloads [][]byte) error {
	for _, p := range payloads {
		if _, err := w.Write(p); err != nil {
			return err
		}
	}
	return nil
}

// probeTCP is the bare loopback baseline: the payloads over one TCP
// connection.
func probeTCP(payloads [][]byte) error {
	c, done, err := pipe(func(nc net.Conn) error { return drain(nc) })
	if err != nil {
		return err
	}
	defer c.Close()
	if err := writeAll(c, payloads); err != nil {
		return err
	}
	c.(*net.TCPConn).CloseWrite()
	return <-done
}

// probeCopy is xfer.CopyCounted through the depot's default buffer pool,
// one copy per payload.
func probeCopy(payloads [][]byte) error {
	pool := xfer.PoolFor(0)
	var r bytes.Reader
	for _, p := range payloads {
		r.Reset(p)
		if _, err := xfer.CopyCounted(io.Discard, &r, pool, xfer.CopyConfig{}); err != nil {
			return err
		}
	}
	return nil
}

// probeHop is one session through one classic depot to a draining
// lsl.Listen target (runProbes subtracts the bare TCP baseline).
func probeHop(payloads [][]byte) error {
	ln, err := lsl.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	var ds depots
	if err := ds.start(depotConfig(false, nil, nil)); err != nil {
		return err
	}
	defer ds.close()
	done := make(chan error, 1)
	go func() {
		sc, err := ln.Accept()
		if err != nil {
			done <- err
			return
		}
		defer sc.Close()
		done <- drain(sc)
	}()
	ctx, cancel := context.WithTimeout(context.Background(), sessionTimeout)
	defer cancel()
	c, err := lsl.Dial(ctx, lsl.Route{Via: ds.addrs, Target: ln.Addr().String()})
	if err != nil {
		ln.Close()
		<-done
		return err
	}
	defer c.Close()
	if err := writeAll(c, payloads); err != nil {
		return err
	}
	if err := c.CloseWrite(); err != nil {
		return err
	}
	return <-done
}

// probeMuxStream is one mux stream (mux.Client/mux.Server) over one
// loopback connection.
func probeMuxStream(payloads [][]byte) error {
	c, done, err := pipe(func(nc net.Conn) error {
		link, err := mux.Server(nc, mux.LinkConfig{})
		if err != nil {
			return err
		}
		defer link.Close()
		st, err := link.AcceptStream()
		if err != nil {
			return err
		}
		defer st.Close()
		return drain(st)
	})
	if err != nil {
		return err
	}
	defer c.Close()
	link, err := mux.Client(c, mux.LinkConfig{})
	if err != nil {
		return err
	}
	defer link.Close()
	st, err := link.OpenStream()
	if err != nil {
		return err
	}
	defer st.Close()
	if err := writeAll(st, payloads); err != nil {
		return err
	}
	if err := st.CloseWrite(); err != nil {
		return err
	}
	return <-done
}

// probeMuxFrame is wire.AppendMuxFrame plus wire.ReadMuxFrame over the
// payloads cut at the largest DATA payload.
func probeMuxFrame(payloads [][]byte) error {
	var buf []byte
	var r bytes.Reader
	for _, p := range payloads {
		for len(p) > 0 {
			n := min(len(p), wire.MaxMuxPayload)
			buf = wire.AppendMuxFrame(buf[:0], wire.MuxData, 1, p[:n])
			r.Reset(buf)
			f, err := wire.ReadMuxFrame(&r)
			if err != nil {
				return err
			}
			if len(f.Payload) != n {
				return fmt.Errorf("frame carried %d of %d bytes", len(f.Payload), n)
			}
			p = p[n:]
		}
	}
	return nil
}

// probeOpenClose opens n streams one after another on one link, each
// carrying one byte each way and closed from both ends.
func probeOpenClose(n int) error {
	c, done, err := pipe(func(nc net.Conn) error {
		link, err := mux.Server(nc, mux.LinkConfig{})
		if err != nil {
			return err
		}
		defer link.Close()
		for i := 0; i < n; i++ {
			st, err := link.AcceptStream()
			if err != nil {
				return err
			}
			if err := drain(st); err != nil {
				return err
			}
			st.Write([]byte{1})
			st.CloseWrite()
			st.Close()
		}
		return nil
	})
	if err != nil {
		return err
	}
	defer c.Close()
	link, err := mux.Client(c, mux.LinkConfig{})
	if err != nil {
		return err
	}
	defer link.Close()
	one := []byte{1}
	var back [1]byte
	for i := 0; i < n; i++ {
		st, err := link.OpenStream()
		if err != nil {
			return err
		}
		if _, err := st.Write(one); err != nil {
			return err
		}
		st.CloseWrite()
		if _, err := io.ReadFull(st, back[:]); err != nil {
			return fmt.Errorf("stream %d reply: %w", i, err)
		}
		st.Close()
	}
	return <-done
}

// probeOpenHeader encodes and decodes n session-open headers for route.
func probeOpenHeader(route []string, n int) error {
	h := &wire.OpenHeader{Flags: wire.FlagDigest, Session: wire.NewSessionID(), Route: route, ContentLen: 1 << 20}
	var r bytes.Reader
	for i := 0; i < n; i++ {
		enc, err := h.Encode()
		if err != nil {
			return err
		}
		r.Reset(enc)
		got, err := wire.ReadOpenHeader(&r)
		if err != nil {
			return err
		}
		if got.Session != h.Session {
			return fmt.Errorf("header round trip changed the session ID")
		}
	}
	return nil
}
