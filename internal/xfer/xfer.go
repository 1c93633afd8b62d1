// Package xfer is the shared session data plane: the one place bytes are
// moved between transport connections on behalf of a session. The depot's
// relay loop, its staged (custody) delivery path, and the initiator's
// SendReader all drain through CopyCounted, so buffer pooling, byte
// accounting, high-water tracking, and cancellation behave identically at
// every layer — the paper's depot is "a transport to transport binding"
// (§IV-A), and this package is that binding as a reusable engine.
//
// Buffers come from size-classed sync.Pool-backed pools (PoolFor), so a
// depot moving millions of sessions performs no per-session buffer
// allocation: a session borrows a buffer for exactly as long as bytes are
// moving and returns it on the way out. A source whose bytes already sit
// in pooled buffers (a mux trunk stream) hands them to the next hop
// itself (HandOff) and borrows no relay buffer at all.
package xfer

import (
	"context"
	"io"
	"sync"
	"sync/atomic"
)

// Pool hands out fixed-size copy buffers backed by a sync.Pool. All
// buffers from one Pool have the same length (its size class).
type Pool struct {
	size int
	p    sync.Pool
}

// NewPool builds a pool whose buffers are size bytes long. Sizes must be
// positive; a non-positive size falls back to 256 KiB (the default relay
// buffer).
func NewPool(size int) *Pool {
	if size <= 0 {
		size = 256 << 10
	}
	p := &Pool{size: size}
	p.p.New = func() interface{} {
		b := make([]byte, p.size)
		return &b
	}
	return p
}

// Size returns the pool's buffer length.
func (p *Pool) Size() int { return p.size }

// Get borrows a buffer of exactly Size bytes.
func (p *Pool) Get() *[]byte { return p.p.Get().(*[]byte) }

// Put returns a buffer to the pool. Buffers of the wrong size class are
// dropped rather than poisoning the pool.
func (p *Pool) Put(b *[]byte) {
	if b == nil || len(*b) != p.size {
		return
	}
	p.p.Put(b)
}

// pools is the process-wide size-class registry behind PoolFor.
var (
	poolsMu sync.Mutex
	pools   = map[int]*Pool{}
)

// PoolFor returns the process-wide pool for one buffer size class,
// creating it on first use. Layers configured with the same buffer size
// (e.g. every depot plus the initiator's send path) share one pool.
func PoolFor(size int) *Pool {
	if size <= 0 {
		size = 256 << 10
	}
	poolsMu.Lock()
	defer poolsMu.Unlock()
	if p, ok := pools[size]; ok {
		return p
	}
	p := NewPool(size)
	pools[size] = p
	return p
}

// Adder receives byte credits as data moves. *metrics.Counter satisfies
// it directly; wrap an atomic counter with AtomicAdder.
type Adder interface{ Add(n uint64) }

// AtomicAdder adapts a per-session *atomic.Uint64 live counter to Adder.
type AtomicAdder struct{ U *atomic.Uint64 }

// Add credits the underlying atomic counter.
func (a AtomicAdder) Add(n uint64) { a.U.Add(n) }

// MaxSetter tracks a high-water mark. *metrics.Gauge satisfies it.
type MaxSetter interface{ SetMax(v int64) }

// HandOff is a source that passes its own queued buffers to the next
// hop, so CopyCounted moves them without copying them through a relay
// buffer. A mux stream is one: its inbound payloads already sit in
// pooled buffers.
type HandOff interface {
	// HandOff blocks until bytes are queued, writes all of them to dst
	// as one batch, and returns how many were written. It returns the
	// source's read error (io.EOF at a clean end) only once nothing is
	// queued, so queued bytes drain first. A failed write returns its
	// error, a short one io.ErrShortWrite, with the bytes written before.
	HandOff(dst io.Writer) (int, error)
}

// CopyConfig threads per-session observability and lifecycle into one
// counted copy. The zero value is a plain pooled copy.
type CopyConfig struct {
	// Counters are credited with each batch after it is written (the
	// session's live byte counter, the depot-wide direction total, ...).
	Counters []Adder
	// HighWater, when set, records the largest single batch: one read
	// into the relay buffer, or one hand-off of a source's queued
	// buffers.
	HighWater MaxSetter
	// Progress, when set, is called with each batch's size after it is
	// written (rate estimation, per-transfer progress).
	Progress func(n int)
	// Ctx, when set, cancels the copy between batches. A read or write
	// blocked on a dead peer does not observe Ctx on its own — the owner
	// of the transport must close it on cancellation (the depot's session
	// watchdog does exactly that); the next Read/Write then fails and the
	// copy unwinds.
	Ctx context.Context
}

// CopyCounted moves bytes from src to dst, returning the byte count and
// the first error. A clean EOF from src is not an error. A src that
// implements HandOff passes its queued buffers to dst itself; any other
// src is read into a buffer borrowed from pool. Each batch is credited
// to every configured counter only after it has been written
// downstream, so counters never run ahead of the receiver.
func CopyCounted(dst io.Writer, src io.Reader, pool *Pool, cfg CopyConfig) (int64, error) {
	h, _ := src.(HandOff)
	var buf []byte
	if h == nil {
		bp := pool.Get()
		defer pool.Put(bp)
		buf = *bp
	}
	var moved int64
	for {
		if cfg.Ctx != nil {
			select {
			case <-cfg.Ctx.Done():
				return moved, cfg.Ctx.Err()
			default:
			}
		}
		var batch, n int
		var err error
		if h != nil {
			n, err = h.HandOff(dst)
			batch = n
		} else {
			batch, n, err = copyOnce(dst, src, buf)
		}
		if batch > 0 && cfg.HighWater != nil {
			cfg.HighWater.SetMax(int64(batch))
		}
		if n > 0 {
			moved += int64(n)
			for _, c := range cfg.Counters {
				c.Add(uint64(n))
			}
			if cfg.Progress != nil {
				cfg.Progress(n)
			}
		}
		if err != nil {
			if err == io.EOF {
				return moved, nil
			}
			return moved, err
		}
	}
}

// copyOnce reads once from src into buf and writes what it read to dst,
// returning the bytes read, the bytes written, and the first error — a
// write error ahead of the read error that came with the bytes.
func copyOnce(dst io.Writer, src io.Reader, buf []byte) (nr, nw int, err error) {
	nr, err = src.Read(buf)
	if nr > 0 {
		var werr error
		nw, werr = dst.Write(buf[:nr])
		if werr != nil {
			return nr, nw, werr
		}
		if nw < nr {
			return nr, nw, io.ErrShortWrite
		}
	}
	return nr, nw, err
}
