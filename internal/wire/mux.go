// Mux framing: the on-the-wire format of persistent inter-hop trunks.
//
// A trunk is one long-lived TCP connection multiplexing many LSL sessions
// between a fixed pair of processes (initiator → first depot, or depot →
// next hop). It opens with a hello exchange — magic "LSLM", distinct in
// its fourth byte from the classic per-session magics "LSL1"/"LSLA", so an
// accepting peer can dispatch on the first four bytes of any inbound
// stream — and then carries a sequence of frames:
//
//	type(1) stream(4) length(4) payload(length)
//
//	OPEN   stream s exists from now on (opened by the link's dial side)
//	DATA   payload bytes for stream s (consumes send credit)
//	WINDOW 4-byte credit grant: the receiver drained payload, send more
//	CLOSE  half-close: no more DATA from the sender's direction (EOF)
//	RESET  abort stream s in both directions
//
// Flow control is per-stream credit: each side may have at most the
// hello-advertised window of un-acknowledged DATA outstanding per stream,
// so one fat session cannot head-of-line-starve every other session on
// the trunk. DATA payloads are additionally capped at MaxMuxPayload, which
// bounds what a receiver buffers per frame.
//
// Like the open-header decoder, the frame decoder is bounded: it never
// allocates more than MaxMuxPayload for a frame and never panics on
// malformed input.

package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// MuxVersion is the trunk protocol version carried in the hello.
const MuxVersion = 1

// MagicMux opens every trunk in both directions.
var MagicMux = [4]byte{'L', 'S', 'L', 'M'}

// IsMuxMagic reports whether b begins a trunk hello (first 4 bytes).
func IsMuxMagic(b []byte) bool {
	return len(b) >= 4 && b[0] == 'L' && b[1] == 'S' && b[2] == 'L' && b[3] == 'M'
}

// Mux frame types.
const (
	MuxOpen uint8 = iota + 1
	MuxData
	MuxWindow
	MuxClose
	MuxReset
)

// Mux framing limits.
const (
	// MaxMuxPayload caps one DATA frame; it sizes the buffers a trunk's
	// read loop decodes payloads into.
	MaxMuxPayload = 64 << 10
	// MaxMuxWindow caps the advertised per-stream receive window.
	MaxMuxWindow = 64 << 20
	// MuxHelloLen is the fixed hello size: magic(4) version(1) window(4)
	// reserved(3).
	MuxHelloLen = 12
	// MuxFrameHeaderLen is the fixed frame header size: type(1) stream(4)
	// length(4).
	MuxFrameHeaderLen = 9
)

// Mux decode errors.
var (
	ErrBadMuxFrame  = errors.New("wire: invalid mux frame")
	ErrBadMuxWindow = errors.New("wire: invalid mux window")
)

// MuxHello is the trunk opening exchange: each side announces the
// per-stream receive window it grants the peer.
type MuxHello struct {
	Window uint32
}

// Encode serializes the hello.
func (h *MuxHello) Encode() []byte {
	out := make([]byte, MuxHelloLen)
	copy(out, MagicMux[:])
	out[4] = MuxVersion
	binary.BigEndian.PutUint32(out[5:9], h.Window)
	return out
}

// ReadMuxHello reads and validates a hello, magic included.
func ReadMuxHello(r io.Reader) (*MuxHello, error) {
	buf := make([]byte, MuxHelloLen)
	if err := readFull(r, buf); err != nil {
		return nil, err
	}
	if !IsMuxMagic(buf) {
		return nil, ErrBadMagic
	}
	if buf[4] != MuxVersion {
		return nil, ErrBadVersion
	}
	h := &MuxHello{Window: binary.BigEndian.Uint32(buf[5:9])}
	if h.Window == 0 || h.Window > MaxMuxWindow {
		return nil, ErrBadMuxWindow
	}
	return h, nil
}

// MuxFrame is one decoded trunk frame.
type MuxFrame struct {
	Type    uint8
	Stream  uint32
	Payload []byte // DATA only; WINDOW credit is in Credit
	Credit  uint32 // WINDOW only
}

// AppendMuxHeader appends one frame header declaring a length-byte
// payload; the payload itself follows separately (the trunk's writev
// path sends it from the caller's buffer).
func AppendMuxHeader(dst []byte, typ uint8, stream uint32, length int) []byte {
	var hdr [MuxFrameHeaderLen]byte
	hdr[0] = typ
	binary.BigEndian.PutUint32(hdr[1:5], stream)
	binary.BigEndian.PutUint32(hdr[5:9], uint32(length))
	return append(dst, hdr[:]...)
}

// AppendMuxFrame appends an encoded frame header plus payload to dst and
// returns the extended slice. The caller is responsible for honoring
// MaxMuxPayload.
func AppendMuxFrame(dst []byte, typ uint8, stream uint32, payload []byte) []byte {
	dst = AppendMuxHeader(dst, typ, stream, len(payload))
	return append(dst, payload...)
}

// AppendMuxWindow appends an encoded WINDOW frame granting credit bytes.
func AppendMuxWindow(dst []byte, stream uint32, credit uint32) []byte {
	dst = AppendMuxHeader(dst, MuxWindow, stream, 4)
	return binary.BigEndian.AppendUint32(dst, credit)
}

// ReadMuxFrame reads and decodes one frame into a fresh MuxFrame with a
// freshly allocated payload. Allocation is bounded by the declared
// payload length, which is validated against MaxMuxPayload before any
// payload allocation, so a malformed length cannot over-allocate.
func ReadMuxFrame(r io.Reader) (*MuxFrame, error) {
	d := MuxDecoder{R: r}
	f := new(MuxFrame)
	if err := d.Decode(f); err != nil {
		return nil, err
	}
	return f, nil
}

// MuxDecoder decodes a sequence of frames from R. Its header scratch
// lives in the decoder, so a long-lived decoder allocates nothing per
// frame beyond what Payload hands out.
type MuxDecoder struct {
	R io.Reader
	// Payload, when set, returns the buffer a DATA payload of n bytes
	// (1 <= n <= MaxMuxPayload) is read into; it must be at least n
	// bytes long. When nil, each payload gets a fresh allocation.
	Payload func(n int) []byte

	hdr [MuxFrameHeaderLen]byte
}

// Decode reads one frame into f, overwriting every field. A DATA
// payload is f.Payload, the first n bytes of the buffer Payload
// returned; that buffer belongs to the caller even when Decode fails
// after obtaining it. io.EOF before the first header byte passes
// through: a clean end of the link.
func (d *MuxDecoder) Decode(f *MuxFrame) error {
	if _, err := io.ReadFull(d.R, d.hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return ErrTruncated
		}
		return err
	}
	*f = MuxFrame{
		Type:   d.hdr[0],
		Stream: binary.BigEndian.Uint32(d.hdr[1:5]),
	}
	length := binary.BigEndian.Uint32(d.hdr[5:9])
	switch f.Type {
	case MuxOpen, MuxClose, MuxReset:
		if length != 0 {
			return fmt.Errorf("%w: %s frame with %d-byte payload", ErrBadMuxFrame, MuxTypeString(f.Type), length)
		}
	case MuxWindow:
		if length != 4 {
			return fmt.Errorf("%w: WINDOW frame with %d-byte payload", ErrBadMuxFrame, length)
		}
		if _, err := io.ReadFull(d.R, d.hdr[:4]); err != nil {
			return ErrTruncated
		}
		f.Credit = binary.BigEndian.Uint32(d.hdr[:4])
		if f.Credit == 0 || f.Credit > MaxMuxWindow {
			return ErrBadMuxWindow
		}
	case MuxData:
		if length == 0 || length > MaxMuxPayload {
			return fmt.Errorf("%w: DATA frame length %d", ErrBadMuxFrame, length)
		}
		if d.Payload != nil {
			f.Payload = d.Payload(int(length))[:length]
		} else {
			f.Payload = make([]byte, length)
		}
		if _, err := io.ReadFull(d.R, f.Payload); err != nil {
			return ErrTruncated
		}
	default:
		return fmt.Errorf("%w: unknown type %d", ErrBadMuxFrame, f.Type)
	}
	if f.Stream == 0 {
		return fmt.Errorf("%w: stream id 0", ErrBadMuxFrame)
	}
	return nil
}

// MuxTypeString names a frame type for diagnostics.
func MuxTypeString(t uint8) string {
	switch t {
	case MuxOpen:
		return "OPEN"
	case MuxData:
		return "DATA"
	case MuxWindow:
		return "WINDOW"
	case MuxClose:
		return "CLOSE"
	case MuxReset:
		return "RESET"
	default:
		return fmt.Sprintf("type-%d", t)
	}
}
