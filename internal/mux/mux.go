// Package mux multiplexes many LSL sessions over one persistent TCP
// connection — a "trunk" between a fixed pair of processes. The paper
// charges every session a fresh TCP handshake and a cold congestion
// window on every sublink; a trunk pays both once per (hop-pair,
// idle-period) and every later session inherits the already-open
// connection and its warmed congestion window.
//
// A Link wraps one net.Conn after the wire.MuxHello exchange and carries
// framed streams (wire: OPEN / DATA / WINDOW / CLOSE / RESET). Each
// Stream implements net.Conn — deadlines included — so the rest of the
// session layer (core.Dial, the depot relay, resilience retries) runs
// over a stream exactly as it runs over a raw TCP connection.
//
// Flow control is per-stream credit: a sender may have at most the
// peer-advertised window of unacknowledged DATA in flight per stream, so
// one fat session backs off on its own credit instead of head-of-line
// starving the trunk, and receive-side buffering is bounded at
// window × streams. The link's read loop never blocks on application
// state (DATA lands in credit-bounded stream buffers; control frames are
// handled inline), which is what keeps the trunk deadlock-free when both
// directions are saturated.
//
// Only the dialing side of a link opens streams; the accepting side
// serves them (AcceptStream). That matches the cascade topology — trunk
// direction follows session direction — and keeps stream-ID allocation
// trivial.
package mux

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"time"

	"lsl/internal/wire"
	"lsl/internal/xfer"
)

// dataPool holds the buffers inbound DATA payloads are read into. A
// buffer belongs to the link's read loop until Stream.deliverData takes
// it, and to the stream after that, which returns it once Read drains
// it, Close drops it, or the payload is refused. HandOff detaches queued
// buffers from the stream and returns them once written on (see DESIGN
// §9).
var dataPool = xfer.PoolFor(wire.MaxMuxPayload)

// bufPool is where a link takes its DATA buffers from and returns them
// to: dataPool, unless a test audits the link's buffer ownership.
type bufPool interface {
	Get() *[]byte
	Put(b *[]byte)
}

// readBufSize sizes the read loop's bufio.Reader: enough to batch
// control frames and headers into one read, small enough that bulk
// payloads bypass it and land straight in pooled buffers.
const readBufSize = 4 << 10

// Link lifecycle errors.
var (
	// ErrLinkClosed reports an operation on a closed trunk.
	ErrLinkClosed = errors.New("mux: link closed")
	// ErrLinkDraining reports an OpenStream on a draining trunk.
	ErrLinkDraining = errors.New("mux: link draining")
	// ErrStreamReset reports a stream aborted by the peer.
	ErrStreamReset = errors.New("mux: stream reset")
	// ErrWriteClosed reports a write after CloseWrite.
	ErrWriteClosed = errors.New("mux: write on closed stream direction")
)

// LinkConfig tunes one trunk.
type LinkConfig struct {
	// Window is the per-stream receive window granted to the peer
	// (default 256 KiB).
	Window int
	// AcceptBacklog bounds streams opened by the peer but not yet
	// accepted (default 128); past it new streams are reset.
	AcceptBacklog int
	// WriteTimeout bounds one frame write on the underlying conn
	// (default 30s). A trunk peer that stalls past it is declared dead
	// and the link is torn down — every stream errors and resilient
	// callers re-dial over a fresh link.
	WriteTimeout time.Duration
	// Logf, when set, receives one line per link event.
	Logf func(format string, args ...interface{})

	// StreamCount, when set, observes the live stream count after every
	// open/close (called without link locks held). Pools use it for
	// idle-timeout tracking and stream gauges.
	StreamCount func(n int)

	pool bufPool // DATA buffers; dataPool when nil
}

func (c LinkConfig) withDefaults() LinkConfig {
	if c.Window <= 0 {
		c.Window = 256 << 10
	}
	if c.Window > wire.MaxMuxWindow {
		c.Window = wire.MaxMuxWindow
	}
	if c.AcceptBacklog <= 0 {
		c.AcceptBacklog = 128
	}
	if c.WriteTimeout == 0 {
		c.WriteTimeout = 30 * time.Second
	}
	if c.pool == nil {
		c.pool = dataPool
	}
	return c
}

// Link is one trunk: a hello-established net.Conn carrying many streams.
type Link struct {
	nc     net.Conn
	cfg    LinkConfig
	client bool

	sendWindow uint32 // peer-granted initial per-stream credit

	// wmu serializes frame writes on nc and guards the write scratch:
	// the frame headers of the span in flight, one control frame (plus
	// a coalesced OPEN), and the writev's iovec list.
	wmu sync.Mutex
	hdr []byte
	ctl [2*wire.MuxFrameHeaderLen + 4]byte
	iov net.Buffers

	mu       sync.Mutex
	streams  map[uint32]*Stream
	nextID   uint32
	accepts  chan *Stream
	draining bool
	closed   bool
	err      error
	done     chan struct{}
	high     int // most concurrent streams ever on this link
}

// Client performs the dial-side hello exchange on nc and starts the link.
// The caller should bound the exchange with a deadline on nc beforehand;
// Client clears the deadline once the hello round-trip completes.
func Client(nc net.Conn, cfg LinkConfig) (*Link, error) {
	cfg = cfg.withDefaults()
	hello := wire.MuxHello{Window: uint32(cfg.Window)}
	if _, err := nc.Write(hello.Encode()); err != nil {
		return nil, fmt.Errorf("mux: send hello: %w", err)
	}
	peer, err := wire.ReadMuxHello(nc)
	if err != nil {
		return nil, fmt.Errorf("mux: read hello: %w", err)
	}
	nc.SetDeadline(time.Time{})
	l := newLink(nc, cfg, true, peer.Window)
	go l.readLoop()
	return l, nil
}

// Server performs the accept-side hello exchange on nc and starts the
// link. probed holds the leading hello bytes a protocol probe already
// read from nc (the magic), so the link can run on nc itself: a wrapper
// replaying them would hide nc's writev from the link's writes.
func Server(nc net.Conn, cfg LinkConfig, probed ...byte) (*Link, error) {
	cfg = cfg.withDefaults()
	peer, err := wire.ReadMuxHello(io.MultiReader(bytes.NewReader(probed), nc))
	if err != nil {
		return nil, fmt.Errorf("mux: read hello: %w", err)
	}
	hello := wire.MuxHello{Window: uint32(cfg.Window)}
	if _, err := nc.Write(hello.Encode()); err != nil {
		return nil, fmt.Errorf("mux: send hello: %w", err)
	}
	nc.SetDeadline(time.Time{})
	l := newLink(nc, cfg, false, peer.Window)
	go l.readLoop()
	return l, nil
}

func newLink(nc net.Conn, cfg LinkConfig, client bool, sendWindow uint32) *Link {
	return &Link{
		nc:         nc,
		cfg:        cfg,
		client:     client,
		sendWindow: sendWindow,
		streams:    make(map[uint32]*Stream),
		accepts:    make(chan *Stream, cfg.AcceptBacklog),
		done:       make(chan struct{}),
	}
}

func (l *Link) logf(format string, args ...interface{}) {
	if l.cfg.Logf != nil {
		l.cfg.Logf(format, args...)
	}
}

// OpenStream opens a new session stream on the trunk (dial side only).
func (l *Link) OpenStream() (*Stream, error) {
	if !l.client {
		return nil, errors.New("mux: OpenStream on accept-side link")
	}
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil, l.errLocked()
	}
	if l.draining {
		l.mu.Unlock()
		return nil, ErrLinkDraining
	}
	l.nextID++
	id := l.nextID
	s := newStream(l, id, l.sendWindow)
	s.openPending = true // OPEN rides in front of the stream's first frame
	l.streams[id] = s
	n := len(l.streams)
	if n > l.high {
		l.high = n
	}
	l.mu.Unlock()
	l.notifyStreamCount(n)
	return s, nil
}

// AcceptStream blocks for the next peer-opened stream (accept side).
func (l *Link) AcceptStream() (*Stream, error) {
	select {
	case s := <-l.accepts:
		return s, nil
	case <-l.done:
		// Drain streams raced in before close.
		select {
		case s := <-l.accepts:
			return s, nil
		default:
			return nil, l.Err()
		}
	}
}

// NumStreams reports the live stream count.
func (l *Link) NumStreams() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.streams)
}

// HighWater reports the most concurrent streams the link has carried.
func (l *Link) HighWater() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.high
}

// Drain stops new streams — OpenStream fails, peer OPENs are reset — and
// closes the link once the last live stream finishes (immediately when
// idle). Existing streams run to completion.
func (l *Link) Drain() {
	l.mu.Lock()
	l.draining = true
	idle := len(l.streams) == 0 && !l.closed
	l.mu.Unlock()
	if idle {
		l.closeWithError(ErrLinkClosed)
	}
}

// Close tears the trunk down: the conn closes and every live stream
// errors out.
func (l *Link) Close() error {
	l.closeWithError(ErrLinkClosed)
	return nil
}

// Done is closed when the link has fully shut down.
func (l *Link) Done() <-chan struct{} { return l.done }

// Err reports why the link shut down (nil while alive).
func (l *Link) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.errLocked()
}

func (l *Link) errLocked() error {
	if !l.closed {
		return nil
	}
	if l.err != nil {
		return l.err
	}
	return ErrLinkClosed
}

// Closed reports whether the link is no longer usable for new streams.
func (l *Link) Closed() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.closed || l.draining
}

// RemoteAddr names the trunk peer.
func (l *Link) RemoteAddr() net.Addr { return l.nc.RemoteAddr() }

// LocalAddr names the trunk's local end.
func (l *Link) LocalAddr() net.Addr { return l.nc.LocalAddr() }

func (l *Link) notifyStreamCount(n int) {
	if l.cfg.StreamCount != nil {
		l.cfg.StreamCount(n)
	}
}

func (l *Link) closeWithError(err error) {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return
	}
	l.closed = true
	l.err = err
	streams := make([]*Stream, 0, len(l.streams))
	for _, s := range l.streams {
		streams = append(streams, s)
	}
	l.streams = make(map[uint32]*Stream)
	l.mu.Unlock()
	l.nc.Close()
	for _, s := range streams {
		s.deliverReset(err)
	}
	close(l.done)
	if len(streams) > 0 {
		l.notifyStreamCount(0)
	}
}

// removeStream retires a stream after its local Close and closes a
// draining link once the count hits zero.
func (l *Link) removeStream(id uint32) {
	l.mu.Lock()
	if _, ok := l.streams[id]; !ok {
		l.mu.Unlock()
		return
	}
	delete(l.streams, id)
	n := len(l.streams)
	drainedOut := l.draining && n == 0 && !l.closed
	l.mu.Unlock()
	l.notifyStreamCount(n)
	if drainedOut {
		l.closeWithError(ErrLinkClosed)
	}
}

func (l *Link) lookup(id uint32) *Stream {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.streams[id]
}

// readLoop dispatches inbound frames until the conn dies. It must never
// block on application state: DATA lands in credit-bounded buffers,
// control frames are handled inline, and a full accept backlog resets the
// excess stream instead of waiting.
//
// DATA payloads are read straight into pooled buffers; buf holds the one
// being decoded until deliverData takes it over.
func (l *Link) readLoop() {
	var buf *[]byte
	dec := wire.MuxDecoder{
		R: bufio.NewReaderSize(l.nc, readBufSize),
		Payload: func(int) []byte {
			buf = l.cfg.pool.Get()
			return *buf
		},
	}
	var f wire.MuxFrame
	for {
		if err := dec.Decode(&f); err != nil {
			l.cfg.pool.Put(buf)
			l.closeWithError(fmt.Errorf("mux: link read: %w", err))
			return
		}
		switch f.Type {
		case wire.MuxOpen:
			l.handleOpen(f.Stream)
		case wire.MuxData:
			s := l.lookup(f.Stream)
			if s == nil {
				// Unknown stream: recently closed locally; drop quietly.
				l.cfg.pool.Put(buf)
			} else if err := s.deliverData(buf, f.Payload); err != nil {
				l.closeWithError(err)
				return
			}
			buf = nil
		case wire.MuxWindow:
			if s := l.lookup(f.Stream); s != nil {
				s.addCredit(f.Credit)
			}
		case wire.MuxClose:
			if s := l.lookup(f.Stream); s != nil {
				s.deliverEOF()
			}
		case wire.MuxReset:
			if s := l.lookup(f.Stream); s != nil {
				s.deliverReset(ErrStreamReset)
				l.removeStream(f.Stream)
			}
		}
	}
}

func (l *Link) handleOpen(id uint32) {
	if l.client {
		l.closeWithError(errors.New("mux: peer opened stream on dial-side link"))
		return
	}
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return
	}
	if _, dup := l.streams[id]; dup {
		l.mu.Unlock()
		l.closeWithError(fmt.Errorf("mux: duplicate OPEN for stream %d", id))
		return
	}
	if l.draining {
		l.mu.Unlock()
		l.writeFrame(wire.MuxReset, id, 0, false)
		return
	}
	s := newStream(l, id, l.sendWindow)
	l.streams[id] = s
	n := len(l.streams)
	if n > l.high {
		l.high = n
	}
	l.mu.Unlock()
	select {
	case l.accepts <- s:
		l.notifyStreamCount(n)
	default:
		// Accept backlog full: refuse rather than block the read loop.
		l.logf("mux: accept backlog full, resetting stream %d", id)
		s.deliverReset(ErrStreamReset)
		l.removeStream(id)
		l.writeFrame(wire.MuxReset, id, 0, false)
	}
}

// writeFrame sends one control frame — OPEN, CLOSE, RESET, or WINDOW
// granting credit — behind the stream's pending OPEN when withOpen. The
// frames are built in link-owned scratch, so control traffic allocates
// nothing.
func (l *Link) writeFrame(typ uint8, stream, credit uint32, withOpen bool) error {
	l.wmu.Lock()
	b := l.ctl[:0]
	if withOpen {
		b = wire.AppendMuxHeader(b, wire.MuxOpen, stream, 0)
	}
	if typ == wire.MuxWindow {
		b = wire.AppendMuxWindow(b, stream, credit)
	} else {
		b = wire.AppendMuxHeader(b, typ, stream, 0)
	}
	return l.writevUnlock(append(l.iov[:0], b))
}

// writeData sends the first k bytes of bufs, one credit-reserved span,
// as DATA frames in a single writev and returns the unsent rest of bufs
// (it reslices bufs' elements). A frame carries at most MaxMuxPayload
// bytes of one buffer: its header sits in link-owned scratch and its
// payload is sent from the buffer in place. A pending OPEN rides in
// front of the first header, so opening a session over a warm trunk
// costs no extra packet.
func (l *Link) writeData(stream uint32, bufs [][]byte, k int, withOpen bool) ([][]byte, error) {
	// A buffer boundary ends a frame early at most once per buffer; one
	// more header is for the OPEN.
	need := (k/wire.MaxMuxPayload + len(bufs) + 1) * wire.MuxFrameHeaderLen
	l.wmu.Lock()
	if cap(l.hdr) < need {
		l.hdr = make([]byte, 0, need)
	}
	// hdr never outgrows its capacity, so earlier iovecs stay valid.
	hdr := l.hdr[:0]
	if withOpen {
		hdr = wire.AppendMuxHeader(hdr, wire.MuxOpen, stream, 0)
	}
	iov := l.iov[:0]
	for mark := 0; k > 0; mark = len(hdr) {
		for len(bufs[0]) == 0 {
			bufs = bufs[1:]
		}
		p := bufs[0]
		n := min(k, len(p), wire.MaxMuxPayload)
		hdr = wire.AppendMuxHeader(hdr, wire.MuxData, stream, n)
		iov = append(iov, hdr[mark:], p[:n])
		bufs[0] = p[n:]
		k -= n
	}
	return bufs, l.writevUnlock(iov)
}

// writevUnlock writes iov in one writev under the frame write timeout,
// then releases wmu (which the caller took). A write failure kills the
// link.
func (l *Link) writevUnlock(iov net.Buffers) error {
	l.iov = iov // WriteTo wants a *Buffers; a field keeps it off the heap
	l.nc.SetWriteDeadline(time.Now().Add(l.cfg.WriteTimeout))
	_, err := l.iov.WriteTo(l.nc)
	l.nc.SetWriteDeadline(time.Time{})
	l.iov = iov[:0] // WriteTo consumed l.iov; keep the backing array
	l.wmu.Unlock()
	if err != nil {
		l.closeWithError(fmt.Errorf("mux: link write: %w", err))
	}
	return err
}

// Stream is one multiplexed session sublink. It implements net.Conn:
// Read/Write with deadlines, CloseWrite half-close (CLOSE frame), and
// Close (RESET unless both directions already finished cleanly).
type Stream struct {
	link *Link
	id   uint32

	mu        sync.Mutex
	readCond  *sync.Cond
	writeCond *sync.Cond

	// Receive side. chunks[head:] is bounded by the advertised window
	// because the peer respects credit; unacked counts
	// delivered-but-ungranted bytes for window accounting and protocol
	// enforcement.
	chunks     []chunk
	head       int
	buffered   int
	unacked    int
	readClosed bool // peer sent CLOSE

	// Send side.
	sendCredit  uint32
	writeClosed bool
	openPending bool // OPEN not yet on the wire (dial side)

	resetErr error
	closed   bool

	rdeadline deadline
	wdeadline deadline
}

// chunk is one queued inbound payload: the unread bytes b of the pooled
// buffer buf, which goes back to the link's pool once b drains.
type chunk struct {
	buf *[]byte
	b   []byte
}

func newStream(l *Link, id uint32, credit uint32) *Stream {
	s := &Stream{link: l, id: id, sendCredit: credit}
	s.readCond = sync.NewCond(&s.mu)
	s.writeCond = sync.NewCond(&s.mu)
	s.rdeadline.cond = s.readCond
	s.wdeadline.cond = s.writeCond
	return s
}

// StreamID returns the stream's id on its link.
func (s *Stream) StreamID() uint32 { return s.id }

// Link returns the trunk carrying the stream.
func (s *Stream) Link() *Link { return s.link }

// deliverData queues inbound payload p, read into the pooled buffer buf
// (called from the link read loop). The stream owns buf from here on:
// it is queued, or p coalesces into the tail chunk's spare room and buf
// goes straight back to the pool, or — stale data, or a peer overrunning
// its credit, a protocol violation that kills the link — it is returned
// at once. Coalescing bounds receive memory by the window, not by the
// frame count: two adjacent chunks always fill more than one buffer.
func (s *Stream) deliverData(buf *[]byte, p []byte) error {
	s.mu.Lock()
	if s.closed || s.resetErr != nil || s.readClosed {
		s.mu.Unlock()
		s.link.cfg.pool.Put(buf)
		return nil // stale data for a locally finished stream
	}
	if s.unacked+len(p) > s.link.cfg.Window {
		s.mu.Unlock()
		s.link.cfg.pool.Put(buf)
		return fmt.Errorf("mux: stream %d overran its %d-byte receive window", s.id, s.link.cfg.Window)
	}
	if n := len(s.chunks); n > s.head && cap(s.chunks[n-1].b)-len(s.chunks[n-1].b) >= len(p) {
		tail := &s.chunks[n-1]
		tail.b = append(tail.b, p...)
	} else {
		if s.head > 0 && len(s.chunks) == cap(s.chunks) {
			live := copy(s.chunks, s.chunks[s.head:])
			clear(s.chunks[live:])
			s.chunks, s.head = s.chunks[:live], 0
		}
		s.chunks = append(s.chunks, chunk{buf: buf, b: p})
		buf = nil
	}
	s.buffered += len(p)
	s.unacked += len(p)
	s.mu.Unlock()
	s.link.cfg.pool.Put(buf) // coalesced: the frame's own buffer is free again
	s.readCond.Broadcast()
	return nil
}

func (s *Stream) deliverEOF() {
	s.mu.Lock()
	s.readClosed = true
	s.mu.Unlock()
	s.readCond.Broadcast()
}

func (s *Stream) deliverReset(err error) {
	s.mu.Lock()
	if s.resetErr == nil {
		s.resetErr = err
	}
	s.mu.Unlock()
	s.readCond.Broadcast()
	s.writeCond.Broadcast()
}

// addCredit applies a WINDOW grant from the peer.
func (s *Stream) addCredit(n uint32) {
	s.mu.Lock()
	s.sendCredit += n
	s.mu.Unlock()
	s.writeCond.Broadcast()
}

// waitData blocks, with s.mu held, until payload is queued. Once nothing
// is queued it returns what ends the read side instead: the reset, EOF
// after the peer's CLOSE, the local Close, or the read deadline.
func (s *Stream) waitData() error {
	for s.buffered == 0 {
		if s.resetErr != nil {
			return s.resetErr
		}
		if s.readClosed {
			return io.EOF
		}
		if s.closed {
			return ErrLinkClosed
		}
		if s.rdeadline.expired() {
			return os.ErrDeadlineExceeded
		}
		s.readCond.Wait()
	}
	return nil
}

// Read returns stream payload; EOF after the peer's CLOSE drains.
func (s *Stream) Read(p []byte) (int, error) {
	s.mu.Lock()
	if err := s.waitData(); err != nil {
		s.mu.Unlock()
		return 0, err
	}
	n := 0
	for n < len(p) && s.buffered > 0 {
		c := &s.chunks[s.head]
		k := copy(p[n:], c.b)
		n += k
		s.buffered -= k
		c.b = c.b[k:]
		if len(c.b) == 0 {
			s.link.cfg.pool.Put(c.buf)
			*c = chunk{}
			s.head++
		}
	}
	if s.head == len(s.chunks) {
		s.chunks, s.head = s.chunks[:0], 0
	}
	// Replenish the peer's credit once we've drained a meaningful share
	// of the window, batching grants to keep frame chatter low.
	var grant int
	if consumed := s.unacked - s.buffered; consumed >= s.link.cfg.Window/4 || (s.buffered == 0 && consumed > 0) {
		grant = consumed
		s.unacked -= consumed
	}
	s.mu.Unlock()
	if grant > 0 {
		s.link.writeFrame(wire.MuxWindow, s.id, uint32(grant), false)
	}
	return n, nil
}

// batch is the scratch of one HandOff: the detached chunks' pooled
// buffers and their bytes as one iovec list. Batches are pooled, so
// relaying over a fresh stream allocates no scratch of its own.
type batch struct {
	bufs []*[]byte
	iov  net.Buffers
}

var batchPool = sync.Pool{New: func() any { return new(batch) }}

// HandOff passes every queued chunk to dst with no user-space copy (it
// makes Stream an xfer.HandOff, the relay's fast path). A dst that is a
// Stream sends the chunks as DATA frames straight from their pooled
// buffers, one writev per credit span; any other writer gets them as one
// net.Buffers writev. The chunks leave the stream under its lock and
// their credit goes back to the peer at once, so a relayed stream pins
// at most a full queue plus the batch in flight: about two windows, as
// with a copying relay buffer of one window. The buffers return to the
// pool exactly once, after the write, whatever its outcome.
func (s *Stream) HandOff(dst io.Writer) (int, error) {
	s.mu.Lock()
	if err := s.waitData(); err != nil {
		s.mu.Unlock()
		return 0, err
	}
	b := batchPool.Get().(*batch)
	for i := s.head; i < len(s.chunks); i++ {
		c := &s.chunks[i]
		b.bufs = append(b.bufs, c.buf)
		b.iov = append(b.iov, c.b)
		*c = chunk{}
	}
	n, grant := s.buffered, s.unacked
	s.chunks, s.head, s.buffered, s.unacked = s.chunks[:0], 0, 0, 0
	s.mu.Unlock()
	if grant > 0 {
		s.link.writeFrame(wire.MuxWindow, s.id, uint32(grant), false)
	}
	iov := b.iov // both writers reslice it; keep the backing array
	var written int
	var err error
	if ds, ok := dst.(*Stream); ok {
		written, err = ds.writeBufs(b.iov)
	} else {
		var w int64
		w, err = b.iov.WriteTo(dst)
		written = int(w)
	}
	for _, buf := range b.bufs {
		s.link.cfg.pool.Put(buf)
	}
	clear(b.bufs)
	clear(iov)
	b.bufs, b.iov = b.bufs[:0], iov[:0]
	batchPool.Put(b)
	if err == nil && written < n {
		err = io.ErrShortWrite
	}
	return written, err
}

// Write sends payload toward the peer, blocking on stream credit (the
// session-layer backpressure).
func (s *Stream) Write(p []byte) (int, error) {
	return s.writeBufs([][]byte{p})
}

// writeBufs sends bufs in order. Each pass reserves all the credit it
// can use and sends that span as one writev (see Link.writeData).
func (s *Stream) writeBufs(bufs [][]byte) (int, error) {
	left := 0
	for _, p := range bufs {
		left += len(p)
	}
	total := 0
	for left > 0 {
		s.mu.Lock()
		for {
			if s.resetErr != nil {
				err := s.resetErr
				s.mu.Unlock()
				return total, err
			}
			if s.writeClosed || s.closed {
				s.mu.Unlock()
				return total, ErrWriteClosed
			}
			if s.wdeadline.expired() {
				s.mu.Unlock()
				return total, os.ErrDeadlineExceeded
			}
			if s.sendCredit > 0 {
				break
			}
			s.writeCond.Wait()
		}
		k := min(left, int(s.sendCredit))
		s.sendCredit -= uint32(k)
		withOpen := s.openPending
		s.openPending = false
		s.mu.Unlock()
		var err error
		if bufs, err = s.link.writeData(s.id, bufs, k, withOpen); err != nil {
			return total, err
		}
		total += k
		left -= k
	}
	return total, nil
}

// CloseWrite half-closes the stream: the peer reads EOF once buffered
// data drains. A never-written stream flushes its pending OPEN first so
// the peer observes an (empty) stream rather than nothing.
func (s *Stream) CloseWrite() error {
	s.mu.Lock()
	if s.writeClosed || s.closed || s.resetErr != nil {
		s.mu.Unlock()
		return nil
	}
	s.writeClosed = true
	withOpen := s.openPending
	s.openPending = false
	s.mu.Unlock()
	return s.link.writeFrame(wire.MuxClose, s.id, 0, withOpen)
}

// Close finishes the stream locally. Unless both directions already
// completed cleanly it aborts the peer with RESET; either way the stream
// leaves the link (freeing its slot for max-streams accounting).
func (s *Stream) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	clean := s.writeClosed && (s.readClosed || s.resetErr != nil)
	sendReset := !clean && s.resetErr == nil && !s.openPending
	for _, c := range s.chunks[s.head:] {
		s.link.cfg.pool.Put(c.buf)
	}
	s.chunks, s.head = nil, 0
	s.buffered = 0
	s.mu.Unlock()
	s.readCond.Broadcast()
	s.writeCond.Broadcast()
	if sendReset {
		s.link.writeFrame(wire.MuxReset, s.id, 0, false)
	}
	s.link.removeStream(s.id)
	return nil
}

// LocalAddr reports the trunk's local address.
func (s *Stream) LocalAddr() net.Addr { return s.link.nc.LocalAddr() }

// RemoteAddr reports the trunk peer's address.
func (s *Stream) RemoteAddr() net.Addr { return s.link.nc.RemoteAddr() }

// SetDeadline sets both read and write deadlines.
func (s *Stream) SetDeadline(t time.Time) error {
	s.SetReadDeadline(t)
	s.SetWriteDeadline(t)
	return nil
}

// SetReadDeadline bounds blocked Reads.
func (s *Stream) SetReadDeadline(t time.Time) error {
	s.mu.Lock()
	s.rdeadline.set(t)
	s.mu.Unlock()
	return nil
}

// SetWriteDeadline bounds Writes blocked on stream credit.
func (s *Stream) SetWriteDeadline(t time.Time) error {
	s.mu.Lock()
	s.wdeadline.set(t)
	s.mu.Unlock()
	return nil
}

// deadline wakes a cond when its time passes; waiters re-check expired()
// after every wakeup. Guarded by the stream mutex.
type deadline struct {
	t     time.Time
	timer *time.Timer
	cond  *sync.Cond
}

func (d *deadline) set(t time.Time) {
	d.t = t
	if d.timer != nil {
		d.timer.Stop()
		d.timer = nil
	}
	if t.IsZero() {
		return
	}
	cond := d.cond
	if dur := time.Until(t); dur <= 0 {
		cond.Broadcast()
	} else {
		d.timer = time.AfterFunc(dur, cond.Broadcast)
	}
}

func (d *deadline) expired() bool {
	return !d.t.IsZero() && !time.Now().Before(d.t)
}
