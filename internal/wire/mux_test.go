package wire

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

func TestMuxHelloRoundTrip(t *testing.T) {
	h := &MuxHello{Window: 256 << 10}
	enc := h.Encode()
	if len(enc) != MuxHelloLen {
		t.Fatalf("hello length %d, want %d", len(enc), MuxHelloLen)
	}
	if !IsMuxMagic(enc) {
		t.Fatal("hello does not start with the mux magic")
	}
	got, err := ReadMuxHello(bytes.NewReader(enc))
	if err != nil {
		t.Fatal(err)
	}
	if got.Window != h.Window {
		t.Fatalf("window %d, want %d", got.Window, h.Window)
	}
}

func TestMuxHelloRejectsMalformed(t *testing.T) {
	good := (&MuxHello{Window: 1 << 20}).Encode()
	cases := []struct {
		name string
		mut  func([]byte)
		want error
	}{
		{"bad magic", func(b []byte) { b[3] = '1' }, ErrBadMagic},
		{"bad version", func(b []byte) { b[4] = 99 }, ErrBadVersion},
		{"zero window", func(b []byte) { copy(b[5:9], []byte{0, 0, 0, 0}) }, ErrBadMuxWindow},
		{"oversized window", func(b []byte) { copy(b[5:9], []byte{0xff, 0xff, 0xff, 0xff}) }, ErrBadMuxWindow},
	}
	for _, c := range cases {
		b := append([]byte(nil), good...)
		c.mut(b)
		if _, err := ReadMuxHello(bytes.NewReader(b)); !errors.Is(err, c.want) {
			t.Errorf("%s: err=%v, want %v", c.name, err, c.want)
		}
	}
	if _, err := ReadMuxHello(bytes.NewReader(good[:7])); !errors.Is(err, ErrTruncated) {
		t.Errorf("truncated hello: err=%v, want %v", err, ErrTruncated)
	}
}

func TestMuxFrameRoundTrip(t *testing.T) {
	payload := bytes.Repeat([]byte{0xab}, 1000)
	cases := []struct {
		typ     uint8
		payload []byte
	}{
		{MuxOpen, nil},
		{MuxData, payload},
		{MuxClose, nil},
		{MuxReset, nil},
	}
	for _, c := range cases {
		enc := AppendMuxFrame(nil, c.typ, 7, c.payload)
		f, err := ReadMuxFrame(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("%s: %v", MuxTypeString(c.typ), err)
		}
		if f.Type != c.typ || f.Stream != 7 || !bytes.Equal(f.Payload, c.payload) {
			t.Fatalf("%s: lossy round trip: %+v", MuxTypeString(c.typ), f)
		}
	}
	enc := AppendMuxWindow(nil, 3, 65536)
	f, err := ReadMuxFrame(bytes.NewReader(enc))
	if err != nil {
		t.Fatal(err)
	}
	if f.Type != MuxWindow || f.Stream != 3 || f.Credit != 65536 {
		t.Fatalf("WINDOW round trip: %+v", f)
	}
}

func TestMuxFrameRejectsMalformed(t *testing.T) {
	frame := func(typ uint8, stream uint32, payload []byte) []byte {
		return AppendMuxFrame(nil, typ, stream, payload)
	}
	cases := []struct {
		name string
		raw  []byte
	}{
		{"unknown type", frame(42, 1, nil)},
		{"stream zero", frame(MuxData, 0, []byte("x"))},
		{"OPEN with payload", frame(MuxOpen, 1, []byte("x"))},
		{"CLOSE with payload", frame(MuxClose, 1, []byte("x"))},
		{"RESET with payload", frame(MuxReset, 1, []byte("x"))},
		{"WINDOW wrong length", frame(MuxWindow, 1, []byte{1, 2})},
		{"WINDOW zero credit", frame(MuxWindow, 1, []byte{0, 0, 0, 0})},
		{"DATA empty", frame(MuxData, 1, nil)},
		{"truncated header", []byte{MuxData, 0, 0}},
		{"truncated payload", frame(MuxData, 1, []byte("hello"))[:11]},
	}
	for _, c := range cases {
		if _, err := ReadMuxFrame(bytes.NewReader(c.raw)); err == nil {
			t.Errorf("%s: decoder accepted malformed frame", c.name)
		}
	}
}

// TestMuxFrameOversizedLengthDoesNotAllocate proves a hostile length
// field is rejected before any payload allocation.
func TestMuxFrameOversizedLengthDoesNotAllocate(t *testing.T) {
	raw := []byte{MuxData, 0, 0, 0, 1, 0xff, 0xff, 0xff, 0xff} // 4 GiB claim
	if _, err := ReadMuxFrame(bytes.NewReader(raw)); !errors.Is(err, ErrBadMuxFrame) {
		t.Fatalf("err=%v, want %v", err, ErrBadMuxFrame)
	}
}

func TestMuxFrameCleanEOF(t *testing.T) {
	if _, err := ReadMuxFrame(bytes.NewReader(nil)); err != io.EOF {
		t.Fatalf("empty link: err=%v, want io.EOF", err)
	}
	if _, err := ReadMuxFrame(bytes.NewReader([]byte{MuxData, 0})); !errors.Is(err, ErrTruncated) {
		t.Fatalf("mid-header cut: err=%v, want %v", err, ErrTruncated)
	}
}

// FuzzReadMuxHello: the hello decoder must never panic, and anything it
// accepts must re-encode to the same bytes.
func FuzzReadMuxHello(f *testing.F) {
	f.Add((&MuxHello{Window: 1 << 16}).Encode())
	f.Add([]byte("LSLMxxxxxxxx"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, raw []byte) {
		h, err := ReadMuxHello(bytes.NewReader(raw))
		if err != nil {
			return
		}
		// Reserved bytes re-encode as zero, so compare through a second
		// decode rather than byte-for-byte.
		h2, err := ReadMuxHello(bytes.NewReader(h.Encode()))
		if err != nil {
			t.Fatalf("re-encoded hello does not decode: %v", err)
		}
		if h2.Window != h.Window {
			t.Fatal("lossy hello round trip")
		}
	})
}

// FuzzReadMuxFrame drives the frame decoder with arbitrary bytes; it
// must never panic or over-allocate, accepted frames must re-encode
// losslessly, and decoding into caller-supplied buffers (the trunk read
// loop's path) must agree with the allocating decoder on the whole
// input.
func FuzzReadMuxFrame(f *testing.F) {
	f.Add(AppendMuxFrame(nil, MuxOpen, 1, nil))
	f.Add(AppendMuxFrame(nil, MuxData, 2, []byte("payload")))
	f.Add(AppendMuxWindow(nil, 3, 4096))
	f.Add([]byte{MuxData, 0, 0, 0, 1, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{})
	f.Add(AppendMuxWindow(AppendMuxFrame(AppendMuxFrame(nil, MuxOpen, 1, nil), MuxData, 1, []byte("ab")), 1, 4096))
	f.Add(AppendMuxFrame(nil, MuxData, 3, bytes.Repeat([]byte{7}, 300))[:200])
	buf := bytes.Repeat([]byte{0xA5}, MaxMuxPayload)
	f.Fuzz(func(t *testing.T, raw []byte) {
		comparePooledDecode(t, raw, buf)
		fr, err := ReadMuxFrame(bytes.NewReader(raw))
		if err != nil {
			return
		}
		if len(fr.Payload) > MaxMuxPayload {
			t.Fatalf("decoder allocated %d-byte payload", len(fr.Payload))
		}
		var enc []byte
		if fr.Type == MuxWindow {
			enc = AppendMuxWindow(nil, fr.Stream, fr.Credit)
		} else {
			enc = AppendMuxFrame(nil, fr.Type, fr.Stream, fr.Payload)
		}
		if !bytes.Equal(enc, raw[:len(enc)]) {
			t.Fatal("lossy frame round trip")
		}
	})
}

// comparePooledDecode decodes raw frame by frame twice — allocating, and
// into buf, which holds stale bytes — and fails on any difference in
// frames, errors, or bytes consumed, or on a payload that is not a
// prefix of buf.
func comparePooledDecode(t *testing.T, raw, buf []byte) {
	t.Helper()
	alloc := bytes.NewReader(raw)
	pooled := bytes.NewReader(raw)
	dec := MuxDecoder{R: pooled, Payload: func(n int) []byte {
		if n < 1 || n > MaxMuxPayload {
			t.Fatalf("payload callback asked for %d bytes", n)
		}
		return buf
	}}
	var got MuxFrame
	for {
		want, werr := ReadMuxFrame(alloc)
		gerr := dec.Decode(&got)
		if (werr == nil) != (gerr == nil) || (werr != nil && werr.Error() != gerr.Error()) {
			t.Fatalf("errors differ: allocating %v, pooled %v", werr, gerr)
		}
		if alloc.Len() != pooled.Len() {
			t.Fatalf("consumed differ: allocating left %d bytes, pooled %d", alloc.Len(), pooled.Len())
		}
		if werr != nil {
			return
		}
		if got.Type != want.Type || got.Stream != want.Stream || got.Credit != want.Credit ||
			!bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("frames differ: allocating %+v, pooled %+v", want, got)
		}
		if got.Payload != nil && &got.Payload[0] != &buf[0] {
			t.Fatal("pooled payload does not alias the supplied buffer")
		}
	}
}

// FuzzReadAcceptFrame: same contract for the backward-channel accept
// decoder.
func FuzzReadAcceptFrame(f *testing.F) {
	acc := &AcceptFrame{Code: CodeOK, Session: NewSessionID(), Offset: 12345}
	f.Add(acc.Encode())
	f.Add([]byte("LSLAgarbage"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, raw []byte) {
		a, err := ReadAcceptFrame(bytes.NewReader(raw))
		if err != nil {
			return
		}
		enc := a.Encode()
		b, err := ReadAcceptFrame(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("re-encoded accept does not decode: %v", err)
		}
		if *b != *a {
			t.Fatal("lossy accept round trip")
		}
	})
}
