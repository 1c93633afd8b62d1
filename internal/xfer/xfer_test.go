package xfer

import (
	"bytes"
	"context"
	"errors"
	"io"
	"strings"
	"sync/atomic"
	"testing"
)

func TestPoolSizeClass(t *testing.T) {
	p := NewPool(1024)
	b := p.Get()
	if len(*b) != 1024 {
		t.Fatalf("len=%d", len(*b))
	}
	p.Put(b)
	// Wrong-size buffers must not poison the pool.
	bad := make([]byte, 10)
	p.Put(&bad)
	again := p.Get()
	if len(*again) != 1024 {
		t.Fatalf("pool poisoned: len=%d", len(*again))
	}
	if NewPool(0).Size() != 256<<10 {
		t.Fatal("zero size did not default")
	}
}

func TestPoolForSharesByClass(t *testing.T) {
	if PoolFor(2048) != PoolFor(2048) {
		t.Fatal("same size class returned distinct pools")
	}
	if PoolFor(2048) == PoolFor(4096) {
		t.Fatal("distinct size classes share a pool")
	}
	if PoolFor(0) != PoolFor(256<<10) {
		t.Fatal("zero size did not alias the default class")
	}
}

func TestCopyCountedCounts(t *testing.T) {
	payload := bytes.Repeat([]byte("x"), 10000)
	var dst bytes.Buffer
	var live atomic.Uint64
	var total counter
	var high maxGauge
	var progress int
	n, err := CopyCounted(&dst, bytes.NewReader(payload), NewPool(512), CopyConfig{
		Counters:  []Adder{AtomicAdder{U: &live}, &total},
		HighWater: &high,
		Progress:  func(n int) { progress += n },
	})
	if err != nil || n != int64(len(payload)) {
		t.Fatalf("n=%d err=%v", n, err)
	}
	if !bytes.Equal(dst.Bytes(), payload) {
		t.Fatal("payload corrupted")
	}
	if live.Load() != uint64(len(payload)) || total.v != uint64(len(payload)) || progress != len(payload) {
		t.Fatalf("counters: live=%d total=%d progress=%d", live.Load(), total.v, progress)
	}
	if high.v != 512 {
		t.Fatalf("high water %d, want full buffer fills of 512", high.v)
	}
}

func TestCopyCountedReadError(t *testing.T) {
	boom := errors.New("boom")
	src := io.MultiReader(strings.NewReader("abcd"), errReader{boom})
	var dst bytes.Buffer
	n, err := CopyCounted(&dst, src, NewPool(2), CopyConfig{})
	if !errors.Is(err, boom) {
		t.Fatalf("err=%v", err)
	}
	if n != 4 {
		t.Fatalf("n=%d", n)
	}
}

func TestCopyCountedWriteError(t *testing.T) {
	boom := errors.New("full")
	var total counter
	n, err := CopyCounted(failWriter{2, boom}, strings.NewReader("abcdef"), NewPool(4), CopyConfig{
		Counters: []Adder{&total},
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err=%v", err)
	}
	// Only the bytes actually written downstream are credited.
	if n != 2 || total.v != 2 {
		t.Fatalf("n=%d total=%d", n, total.v)
	}
}

func TestCopyCountedShortWrite(t *testing.T) {
	_, err := CopyCounted(failWriter{1, nil}, strings.NewReader("abcd"), NewPool(4), CopyConfig{})
	if !errors.Is(err, io.ErrShortWrite) {
		t.Fatalf("err=%v", err)
	}
}

func TestCopyCountedCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var dst bytes.Buffer
	n, err := CopyCounted(&dst, strings.NewReader("abcd"), NewPool(4), CopyConfig{Ctx: ctx})
	if !errors.Is(err, context.Canceled) || n != 0 {
		t.Fatalf("n=%d err=%v", n, err)
	}
}

// batchSource is a HandOff source: each call writes its next batch to
// dst whole, then end (io.EOF when nil) once the batches run out.
type batchSource struct {
	batches [][]byte
	end     error
}

func (s *batchSource) Read([]byte) (int, error) {
	panic("CopyCounted read a HandOff source instead of handing off")
}

func (s *batchSource) HandOff(dst io.Writer) (int, error) {
	if len(s.batches) == 0 {
		if s.end == nil {
			return 0, io.EOF
		}
		return 0, s.end
	}
	b := s.batches[0]
	s.batches = s.batches[1:]
	n, err := dst.Write(b)
	if err == nil && n < len(b) {
		err = io.ErrShortWrite
	}
	return n, err
}

func batches(sizes ...int) [][]byte {
	var out [][]byte
	for i, n := range sizes {
		out = append(out, bytes.Repeat([]byte{byte('a' + i)}, n))
	}
	return out
}

// checkedWriter fails the test if a counter has been credited with any
// byte it has not yet written.
type checkedWriter struct {
	t       *testing.T
	total   *counter
	written uint64
}

func (w *checkedWriter) Write(p []byte) (int, error) {
	if w.total.v != w.written {
		w.t.Errorf("counter at %d before %d bytes were written", w.total.v, w.written)
	}
	w.written += uint64(len(p))
	return len(p), nil
}

// TestCopyCountedHandOff: a HandOff source moves its batches with no
// relay buffer (the pool is nil); counters and Progress are credited
// after each batch is written, and HighWater records the largest batch.
func TestCopyCountedHandOff(t *testing.T) {
	var total counter
	var high maxGauge
	var progress []int
	w := &checkedWriter{t: t, total: &total}
	src := &batchSource{batches: batches(100, 300, 200)}
	n, err := CopyCounted(w, src, nil, CopyConfig{
		Counters:  []Adder{&total},
		HighWater: &high,
		Progress:  func(n int) { progress = append(progress, n) },
	})
	if err != nil || n != 600 || total.v != 600 || w.written != 600 {
		t.Fatalf("n=%d err=%v counted=%d written=%d", n, err, total.v, w.written)
	}
	if len(progress) != 3 || progress[0] != 100 || progress[1] != 300 || progress[2] != 200 {
		t.Fatalf("progress %v, want one call per batch", progress)
	}
	if high.v != 300 {
		t.Fatalf("high water %d, want the largest batch, 300", high.v)
	}
}

// TestCopyCountedHandOffErrors: a write failure and a short write end
// the copy with only the bytes written counted; the source's own error
// arrives after its batches.
func TestCopyCountedHandOffErrors(t *testing.T) {
	boom := errors.New("full")
	var total counter
	n, err := CopyCounted(failWriter{50, boom}, &batchSource{batches: batches(40, 80, 10)}, nil, CopyConfig{
		Counters: []Adder{&total},
	})
	if !errors.Is(err, boom) || n != 90 || total.v != 90 {
		t.Fatalf("write failure: n=%d err=%v counted=%d, want 90 and %v", n, err, total.v, boom)
	}
	total = counter{}
	n, err = CopyCounted(failWriter{50, nil}, &batchSource{batches: batches(40, 80, 10)}, nil, CopyConfig{
		Counters: []Adder{&total},
	})
	if !errors.Is(err, io.ErrShortWrite) || n != 90 || total.v != 90 {
		t.Fatalf("short write: n=%d err=%v counted=%d, want 90 and %v", n, err, total.v, io.ErrShortWrite)
	}
	reset := errors.New("reset")
	var dst bytes.Buffer
	n, err = CopyCounted(&dst, &batchSource{batches: batches(10, 20), end: reset}, nil, CopyConfig{})
	if !errors.Is(err, reset) || n != 30 || dst.Len() != 30 {
		t.Fatalf("source error: n=%d err=%v delivered=%d, want 30 then %v", n, err, dst.Len(), reset)
	}
}

// TestCopyCountedHandOffCancel: the context is checked between batches.
func TestCopyCountedHandOffCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var dst bytes.Buffer
	n, err := CopyCounted(&dst, &batchSource{batches: batches(10, 20, 30)}, nil, CopyConfig{
		Ctx:      ctx,
		Progress: func(int) { cancel() },
	})
	if !errors.Is(err, context.Canceled) || n != 10 || dst.Len() != 10 {
		t.Fatalf("n=%d err=%v delivered=%d, want the first batch then %v", n, err, dst.Len(), context.Canceled)
	}
}

func BenchmarkCopyCounted(b *testing.B) {
	payload := bytes.Repeat([]byte("y"), 1<<20)
	pool := PoolFor(256 << 10)
	var live atomic.Uint64
	cfg := CopyConfig{Counters: []Adder{AtomicAdder{U: &live}}}
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CopyCounted(io.Discard, bytes.NewReader(payload), pool, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

type counter struct{ v uint64 }

func (c *counter) Add(n uint64) { c.v += n }

type maxGauge struct{ v int64 }

func (g *maxGauge) SetMax(v int64) {
	if v > g.v {
		g.v = v
	}
}

type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) { return 0, r.err }

// failWriter accepts n bytes of the first chunk, then fails with err
// (nil err models a silent short write).
type failWriter struct {
	n   int
	err error
}

func (w failWriter) Write(p []byte) (int, error) {
	if len(p) <= w.n {
		return len(p), nil
	}
	return w.n, w.err
}
