package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"

	"lsl"
)

// workload is one seeded, closed-loop traffic mix: each client sends its
// next session only after the previous one was verified at the sink.
type workload struct {
	name    string
	clients int
	// minSize/maxSize bound session payloads; sizes are log-uniform
	// between them (equal bounds give a fixed size).
	minSize, maxSize int
	// trunk puts mux trunks on the client (LinkPool) and on both depots.
	trunk bool
	// digest turns on the end-to-end MD5 trailer.
	digest bool
	// connectRTT is the modeled round trip every fresh transport connect
	// pays (loopback connects in ~30us, hiding what trunk reuse saves).
	connectRTT time.Duration
	// striped sends StripedTransfer groups over two emu-shaped paths
	// instead of Dial sessions over the two-depot cascade.
	striped bool
}

const (
	stripeFastBps = 250e6
	stripeSlowBps = 150e6
	stripeDelay   = 500 * time.Microsecond
	stripeFrame   = 64 << 10
)

// workloads are the benchmark's traffic mixes. Each stresses different
// layers, and the pairs bracket the optimisations on the ROADMAP: a mux
// change runs on trunk-bulk and trunk-churn and is bypassed by
// classic-bulk; a relay or mux CPU change should leave striped-wan, which
// the token buckets pace, unchanged.
var workloads = []workload{
	// Depot relay copies (xfer, two hops) and the core endpoints do nearly
	// all the work; setup is under 1% of a session. The digest is off
	// because MD5 would take most of the CPU and hide relay changes.
	{name: "classic-bulk", clients: 1, minSize: 64 << 20, maxSize: 64 << 20},
	// The same traffic over trunks: mux framing, credit and stream buffers
	// set the cost, so the trunk tax is trunk-bulk minus classic-bulk.
	{name: "trunk-bulk", clients: 1, minSize: 64 << 20, maxSize: 64 << 20, trunk: true},
	// Short digested sessions: the setup path does the work (wire header
	// codec, core handshake and MD5 trailer, depot admission, mux
	// OPEN/CLOSE and pool reuse). The modeled connect makes lost trunk
	// reuse show, and small sessions show a batching delay that bulk
	// would hide.
	{
		name: "trunk-churn", clients: 2, minSize: 512, maxSize: 64 << 10,
		trunk: true, digest: true, connectRTT: 2 * time.Millisecond,
	},
	// Stripe dispatch, acks, reassembly and tail reclamation set the time
	// while the CPU is mostly idle. 8 MiB groups (167.8 ms shaped floor)
	// keep 100 sessions in a 20 s run; at 4-6 MiB the group times split
	// into modes near the one-path times, which no median holds still.
	{name: "striped-wan", clients: 1, minSize: 8 << 20, maxSize: 8 << 20, striped: true},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// inputs derives every session payload from the seed: a block of seeded
// random bytes, and per client a seeded stream of (size, offset) picks
// into it, so consecutive sessions carry different bytes. The program
// under test only ever sees these bytes.
type inputs struct {
	w     workload
	block []byte
	rngs  []*rand.Rand
}

func newInputs(w workload, seed int64) *inputs {
	block := make([]byte, w.maxSize+1<<20)
	rand.New(rand.NewSource(seed)).Read(block)
	in := &inputs{w: w, block: block}
	for c := 0; c < w.clients; c++ {
		in.rngs = append(in.rngs, rand.New(rand.NewSource(seed*7919+int64(c)+1)))
	}
	return in
}

// next returns client c's next session payload and session ID.
func (in *inputs) next(c int) ([]byte, lsl.SessionID) {
	r := in.rngs[c]
	size := in.w.minSize
	if in.w.maxSize > in.w.minSize {
		lo, hi := math.Log(float64(in.w.minSize)), math.Log(float64(in.w.maxSize))
		size = int(math.Exp(lo + r.Float64()*(hi-lo)))
	}
	off := r.Intn(len(in.block) - size + 1)
	var id lsl.SessionID
	r.Read(id[:])
	return in.block[off : off+size], id
}

// warmPayload is the payload of the untimed session that ends each
// set-up: the workload's largest size, from the head of the block.
func (in *inputs) warmPayload() []byte { return in.block[:in.w.maxSize] }

// stack is one running system under test: sink, depots, proxies and the
// client's pool. session runs one complete session and returns once the
// sink has verified it (or it failed), with the time from the client's
// first call into the library to sink verification.
type stack interface {
	session(ctx context.Context, p []byte, id lsl.SessionID, flip bool, st *sessionTrace) (time.Duration, error)
	// counters adds the stack's lifetime counters to m.
	counters(m map[string]float64)
	// hops is the route a session's open header carries.
	hops() []string
	close()
}

// sessionTimeout bounds one session so that a stalled program counts as
// a failure instead of hanging the run.
const sessionTimeout = 20 * time.Second

func newStack(w workload, tr *tracer) (stack, error) {
	if w.striped {
		return newStriped(tr)
	}
	return newCascade(w, tr)
}

// setUp builds a stack and completes one warm-up session on it, so trunks
// are open, pools are filled and lazy set-up is done before timing. It
// returns the stack and the time that took.
func setUp(w workload, in *inputs, tr *tracer) (stack, time.Duration, error) {
	start := time.Now()
	st, err := newStack(w, tr)
	if err != nil {
		return nil, 0, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*sessionTimeout)
	defer cancel()
	// Every stack has its own sink, so a fixed ID is unique; it must not
	// be all zeros, which Dial replaces with a random one.
	id := lsl.SessionID{0: 1}
	if _, err := st.session(ctx, in.warmPayload(), id, false, nil); err != nil {
		st.close()
		return nil, 0, fmt.Errorf("warm-up session: %w", err)
	}
	return st, time.Since(start), nil
}

// slices is how many consecutive parts a window is cut into. Rates and
// per-session costs are the median over the parts, so a burst of load
// from outside the benchmark moves at most one of them.
const slices = 5

// slice is one part of a window. Slices begin and end at session
// completions, so no session's cost is split between two of them.
type slice struct {
	dur   time.Duration
	n     int // verified sessions
	bytes int64
	cpu   time.Duration
	alloc uint64
}

// window is what one timed stretch of closed-loop traffic measured.
type window struct {
	attempted, failed int
	sessions          []time.Duration // verified sessions only
	slices            []slice
	elapsed           time.Duration
	errs              []string // first few failures, for the log
}

// mark is the process's cumulative counters at one instant.
type mark struct {
	at    time.Time
	cpu   time.Duration
	alloc uint64
}

func markNow() mark { return mark{time.Now(), cpuTime(), heapAllocs()} }

// runWindow drives w.clients closed-loop clients for d: each starts
// sessions until the deadline and the window ends when the last one
// finishes, so no session is cut. flipAt (1-based, 0 = never) makes the
// sink flip a byte of that session, to prove the check is live.
func runWindow(st stack, w workload, in *inputs, d time.Duration, tr *tracer, flipAt int) window {
	runtime.GC()
	var mu sync.Mutex
	var res window
	var open slice
	from := markNow()
	cur := 0 // index of the open slice's time bucket
	closeSlice := func() {
		if open.n == 0 {
			return // nothing verified yet: the open slice runs on
		}
		to := markNow()
		open.dur, open.cpu, open.alloc = to.at.Sub(from.at), to.cpu-from.cpu, to.alloc-from.alloc
		res.slices = append(res.slices, open)
		open, from = slice{}, to
	}
	start := from.at
	deadline := start.Add(d)

	var wg sync.WaitGroup
	for c := 0; c < w.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				p, id := in.next(c)
				mu.Lock()
				res.attempted++
				flip := res.attempted == flipAt
				mu.Unlock()
				var strace *sessionTrace
				if tr != nil {
					strace = &sessionTrace{}
				}
				ctx, cancel := context.WithTimeout(context.Background(), sessionTimeout)
				dur, err := st.session(ctx, p, id, flip, strace)
				cancel()
				mu.Lock()
				if err != nil {
					res.failed++
					if len(res.errs) < 3 {
						res.errs = append(res.errs, err.Error())
					}
				} else {
					open.n++
					open.bytes += int64(len(p))
					res.sessions = append(res.sessions, dur)
					if strace != nil {
						tr.addSession(strace)
					}
				}
				// The first completion in a later time bucket closes the
				// open slice.
				if k := min(int(time.Since(start)*slices/d), slices-1); k > cur {
					closeSlice()
					cur = k
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	closeSlice()
	res.elapsed = time.Since(start)
	return res
}

// heapAllocs is the cumulative count of bytes allocated on the heap
// (runtime/metrics reads it without stopping the world).
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func (r window) verified() int { return len(r.sessions) }

// perSlice is the median over the window's slices of f.
func (r window) perSlice(f func(slice) float64) float64 {
	xs := make([]float64, len(r.slices))
	for i, s := range r.slices {
		xs[i] = f(s)
	}
	return median(xs)
}

func (r window) goodputMBps() float64 {
	return r.perSlice(func(s slice) float64 { return float64(s.bytes) / 1e6 / s.dur.Seconds() })
}

func (r window) sessionsPerS() float64 {
	return r.perSlice(func(s slice) float64 { return float64(s.n) / s.dur.Seconds() })
}

func (r window) cpuPerSession() float64 {
	return r.perSlice(func(s slice) float64 { return float64(s.cpu) / float64(time.Millisecond) / float64(s.n) })
}

func (r window) allocKBPerSession() float64 {
	return r.perSlice(func(s slice) float64 { return float64(s.alloc) / 1e3 / float64(s.n) })
}

// quantile is the q-quantile of xs by linear interpolation between order
// statistics (xs need not be sorted; it is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}
