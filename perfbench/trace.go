package main

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"lsl"
)

// span is one timed call the benchmark made into a layer.
type span struct{ start, end time.Time }

func (s span) ms() float64 { return float64(s.end.Sub(s.start)) / float64(time.Millisecond) }

// sessionTrace holds the spans of one session. The client fills its own
// spans; the sink fills accepted, firstByte, sinkRead, verify and loop
// before it sends its verdict, which orders those writes before the
// client reads them.
type sessionTrace struct {
	start, end time.Time

	// Cascade sessions: the client's calls into core and the sink's.
	dial, write, closeWrite span
	accepted, firstByte     time.Time
	sinkRead, verify        time.Duration
	loop                    span // the sink's read loop, first Read to last

	// Striped sessions.
	transfer span
	stripe   *lsl.StripedTransferResult
	fastAddr string
}

// tracer collects spans and hook records while enabled. It records only
// around the benchmark's own calls and through the library's public
// hooks; nothing inside the program is instrumented.
type tracer struct {
	enabled atomic.Bool

	mu       sync.Mutex
	sessions []*sessionTrace
	hops     []lsl.DepotSessionInfo
}

func (t *tracer) addSession(st *sessionTrace) {
	t.mu.Lock()
	t.sessions = append(t.sessions, st)
	t.mu.Unlock()
}

// depotSession is the depots' OnSessionEnd hook.
func (t *tracer) depotSession(info lsl.DepotSessionInfo) {
	if !t.enabled.Load() {
		return
	}
	t.mu.Lock()
	t.hops = append(t.hops, info)
	t.mu.Unlock()
}

// perLayer turns the traced sessions and hook records into the per-layer
// metrics. Times are medians over sessions; counters are per session or
// per depot hop as their names say. A metric with no samples on this
// workload (core spans on striped-wan, stripe counters on the cascade)
// reads 0.
func (t *tracer) perLayer(m map[string]float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var dial, write, closeWrite, accept, first, read, verify, coverage []float64
	var tail, stolen, spec, rebal []float64
	var framesSent, specTotal, fastBytes, allBytes, heals, replans float64
	for _, st := range t.sessions {
		if st.stripe == nil {
			dial = append(dial, st.dial.ms())
			write = append(write, st.write.ms())
			closeWrite = append(closeWrite, st.closeWrite.ms())
			accept = append(accept, span{st.dial.start, st.accepted}.ms())
			first = append(first, span{st.dial.start, st.firstByte}.ms())
			read = append(read, float64(st.sinkRead)/float64(time.Millisecond))
			verify = append(verify, float64(st.verify)/float64(time.Millisecond))
			coverage = append(coverage, covered(st.start, st.end, st.dial, st.write, st.closeWrite, st.loop))
			continue
		}
		r := st.stripe
		verify = append(verify, float64(st.verify)/float64(time.Millisecond))
		coverage = append(coverage, covered(st.start, st.end, st.transfer))
		tail = append(tail, float64(r.Tail)/float64(time.Millisecond))
		stolen = append(stolen, float64(r.FramesStolen))
		spec = append(spec, float64(r.FramesSpeculated))
		rebal = append(rebal, float64(r.Rebalances))
		framesSent += float64((r.Bytes+stripeFrame-1)/stripeFrame + r.FramesSpeculated)
		specTotal += float64(r.FramesSpeculated)
		for i, route := range r.Routes {
			if len(route.Via) > 0 && route.Via[0] == st.fastAddr && i < len(r.StripeBytes) {
				fastBytes += float64(r.StripeBytes[i])
			}
		}
		allBytes += float64(r.Bytes)
		heals += float64(r.Heals)
		replans += float64(r.Replans)
	}
	m["core.dial_ms"] = median(dial)
	m["core.write_ms"] = median(write)
	m["core.closewrite_ms"] = median(closeWrite)
	m["core.sink_accept_ms"] = median(accept)
	m["core.sink_first_byte_ms"] = median(first)
	m["core.sink_read_ms"] = median(read)
	m["bench.verify_ms"] = median(verify)
	m["bench.span_coverage"] = median(coverage)
	m["stripe.tail_ms"] = median(tail)
	m["stripe.frames_stolen"] = mean(stolen)
	m["stripe.frames_speculated"] = mean(spec)
	m["stripe.rebalances"] = mean(rebal)
	m["stripe.speculated_frac"] = ratio(specTotal, framesSent)
	m["stripe.fast_share"] = ratio(fastBytes, allBytes)
	m["resilience.heals"] = heals
	m["resilience.replans"] = replans

	var hopMs, hopBytes []float64
	for _, h := range t.hops {
		if h.Outcome != lsl.DepotOutcomeCompleted {
			continue
		}
		hopMs = append(hopMs, h.DurationSeconds*1000)
		hopBytes = append(hopBytes, float64(h.BytesForward+h.BytesBackward))
	}
	m["depot.session_ms"] = median(hopMs)
	m["depot.relay_bytes_per_session"] = mean(hopBytes)
}

// covered is the share of [start, end) that the union of spans covers.
func covered(start, end time.Time, spans ...span) float64 {
	total := end.Sub(start)
	if total <= 0 {
		return 0
	}
	var in []span
	for _, s := range spans {
		if s.start.Before(start) {
			s.start = start
		}
		if s.end.After(end) {
			s.end = end
		}
		if s.end.After(s.start) {
			in = append(in, s)
		}
	}
	sort.Slice(in, func(i, j int) bool { return in[i].start.Before(in[j].start) })
	var sum time.Duration
	var cur span
	for i, s := range in {
		if i == 0 || s.start.After(cur.end) {
			sum += cur.end.Sub(cur.start)
			cur = s
			continue
		}
		if s.end.After(cur.end) {
			cur.end = s.end
		}
	}
	sum += cur.end.Sub(cur.start)
	return float64(sum) / float64(total)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
