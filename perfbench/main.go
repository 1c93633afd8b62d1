// Command perfbench is the repository's end-to-end benchmark. It starts
// in-process depots on loopback, drives one seeded closed-loop workload
// through the public session API (lsl.Dial/lsl.Listen, lsl.NewLinkPool,
// lsl.StripedTransfer/lsl.StripedReceive, with internal/emu shaping the
// WAN paths), checks every delivered byte against the seeded payload,
// and prints the workload's metrics, one per line with unit and sample
// count, then all of them as one JSON object on the last line.
//
// Run from the repository root:
//
//	bash perfbench/run.sh --workload classic-bulk --seed 1 --seconds 20 --trace 0
//
// --trace 0 measures the end-to-end metrics with no tracing. --trace 1
// instead reports the per-layer metrics: spans around the benchmark's
// own calls into each layer, counters read through the library's public
// hooks, and layer probes that time one entry point each.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"time"
)

// setups is how many times a run builds its stack and warms it up;
// setup_s is the median, and the last stack is the one measured.
const setups = 3

// runLimit ends a run that has gone on far longer than any healthy one.
const runLimit = 170 * time.Second

func main() {
	time.AfterFunc(runLimit, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v\n", runLimit)
		os.Exit(1)
	})
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	workload string
	seed     int64
	window   time.Duration
	trace    bool
	setups   int
	// flipAt makes the sink flip one byte of the flipAt-th timed session
	// (1-based; 0 never). Only the self-test sets it.
	flipAt int
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: classic-bulk, trunk-bulk, trunk-churn or striped-wan")
	seed := fs.Int64("seed", 1, "seed for payload sizes and contents")
	seconds := fs.Float64("seconds", 20, "length of the timed window")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics instead of end-to-end ones")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "perfbench: need --seconds > 0, --trace 0 or 1, and no positional arguments")
		return 2
	}
	opt := options{
		workload: *name,
		seed:     *seed,
		window:   time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
		setups:   setups,
	}
	res, err := bench(opt, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for _, e := range res.errs {
		fmt.Fprintln(stderr, "perfbench: session failed:", e)
	}
	line, err := json.Marshal(res.summary())
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// metric is one reported number.
type metric struct {
	name, unit string
	value      float64
	note       string // sample count and how it was formed
}

type result struct {
	attempted, failed int
	metrics           []metric
	errs              []string
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type summary struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func (r *result) summary() summary {
	s := summary{
		Correct:   r.failed == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]jsonMetric),
	}
	for _, m := range r.metrics {
		s.Metrics[m.name] = jsonMetric{Value: m.value, Unit: m.unit}
	}
	return s
}

// bench runs one workload as opt says, logging one line per metric to
// log, and returns the result.
func bench(opt options, log io.Writer) (*result, error) {
	w, err := findWorkload(opt.workload)
	if err != nil {
		return nil, err
	}
	in := newInputs(w, opt.seed)
	var tr *tracer
	if opt.trace {
		tr = &tracer{}
	}
	shaping := "none"
	if w.striped {
		shaping = fmt.Sprintf("emu token buckets %.0f+%.0f Mbit/s, %v one-way", stripeFastBps/1e6, stripeSlowBps/1e6, stripeDelay)
	}
	fmt.Fprintf(log, "# workload=%s seed=%d window=%v trace=%v\n", w.name, opt.seed, opt.window, opt.trace)
	fmt.Fprintf(log, "# env nproc=%d GOMAXPROCS=%d go=%s network=loopback shaping=%q clients=%d loop=closed\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), shaping, w.clients)

	var st stack
	var setupS []float64
	for i := 0; i < opt.setups; i++ {
		if st != nil {
			st.close()
		}
		var d time.Duration
		st, d, err = setUp(w, in, tr)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		setupS = append(setupS, d.Seconds())
	}
	defer st.close()

	res := &result{}
	add := func(win window) {
		res.attempted += win.attempted
		res.failed += win.failed
		res.errs = append(res.errs, win.errs...)
	}
	if !opt.trace {
		win := runWindow(st, w, in, opt.window, nil, opt.flipAt)
		add(win)
		res.metrics = endToEnd(win, setupS)
	} else {
		// The first half runs untraced so the second half's cost can be
		// compared with it (bench.trace_overhead_frac).
		base := runWindow(st, w, in, opt.window/2, nil, opt.flipAt)
		tr.enabled.Store(true)
		traced := runWindow(st, w, in, opt.window/2, tr, 0)
		tr.enabled.Store(false)
		add(base)
		add(traced)
		if res.metrics, err = perLayer(st, tr, in, opt.seed, base, traced); err != nil {
			return nil, err
		}
	}
	for _, m := range res.metrics {
		fmt.Fprintf(log, "%-32s %14.4f %-7s %s\n", m.name, m.value, m.unit, m.note)
	}
	return res, nil
}

func endToEnd(win window, setupS []float64) []metric {
	n := win.verified()
	ms := millis(win.sessions)
	count := fmt.Sprintf("(%d sessions in %.2f s, median of %d slices)", n, win.elapsed.Seconds(), len(win.slices))
	return []metric{
		{"setup_s", "s", median(setupS), fmt.Sprintf("(median of %d set-ups)", len(setupS))},
		{"goodput_MBps", "MB/s", win.goodputMBps(), count},
		{"sessions_per_s", "1/s", win.sessionsPerS(), count},
		{"session_p50_ms", "ms", quantile(ms, 0.5), fmt.Sprintf("(n=%d)", n)},
		{"session_p90_ms", "ms", quantile(ms, 0.9), fmt.Sprintf("(n=%d, %d beyond)", n, n-int(math.Ceil(0.9*float64(n))))},
		{"delivered_frac", "frac", ratio(float64(n), float64(win.attempted)), fmt.Sprintf("(%d of %d attempted)", n, win.attempted)},
		{"cpu_ms_per_session", "ms", win.cpuPerSession(), count},
		{"alloc_KB_per_session", "KB", win.allocKBPerSession(), count},
	}
}

// perLayerUnits lists every per-layer metric with its unit, in report
// order.
var perLayerUnits = []struct{ name, unit string }{
	{"core.dial_ms", "ms"},
	{"core.write_ms", "ms"},
	{"core.closewrite_ms", "ms"},
	{"core.sink_accept_ms", "ms"},
	{"core.sink_first_byte_ms", "ms"},
	{"core.sink_read_ms", "ms"},
	{"bench.verify_ms", "ms"},
	{"depot.session_ms", "ms"},
	{"depot.relay_bytes_per_session", "B"},
	{"depot.max_buffered_bytes", "B"},
	{"depot.rejected", "count"},
	{"mux.links_opened", "count"},
	{"mux.links_reused", "count"},
	{"mux.reuse_ratio", "frac"},
	{"mux.streams_high_water", "count"},
	{"stripe.tail_ms", "ms"},
	{"stripe.frames_stolen", "count"},
	{"stripe.frames_speculated", "count"},
	{"stripe.speculated_frac", "frac"},
	{"stripe.fast_share", "frac"},
	{"stripe.rebalances", "count"},
	{"resilience.heals", "count"},
	{"resilience.replans", "count"},
	{"tcp.direct_ns_per_MiB", "ns/MiB"},
	{"xfer.copy_ns_per_MiB", "ns/MiB"},
	{"depot.hop_ns_per_MiB", "ns/MiB"},
	{"mux.stream_ns_per_MiB", "ns/MiB"},
	{"mux.stream_alloc_KB_per_MiB", "KB/MiB"},
	{"wire.mux_frame_ns_per_MiB", "ns/MiB"},
	{"mux.stream_open_close_us", "us"},
	{"wire.open_header_us", "us"},
	{"bench.trace_overhead_frac", "frac"},
	{"bench.span_coverage", "frac"},
}

// perLayer gathers the per-layer metrics: spans and hook records from tr,
// st's counters, and the layer probes.
func perLayer(st stack, tr *tracer, in *inputs, seed int64, base, traced window) ([]metric, error) {
	m := make(map[string]float64)
	tr.perLayer(m)
	st.counters(m)
	m["mux.reuse_ratio"] = ratio(m["mux.links_reused"], m["mux.links_reused"]+m["mux.links_opened"])
	m["bench.trace_overhead_frac"] = 0 // no verified untraced session to compare with
	if b := base.cpuPerSession(); b > 0 {
		m["bench.trace_overhead_frac"] = traced.cpuPerSession()/b - 1
	}
	if err := runProbes(in, seed, st.hops(), m); err != nil {
		return nil, err
	}
	note := fmt.Sprintf("(%d traced sessions, %d depot hop records)", traced.verified(), len(tr.hops))
	out := make([]metric, 0, len(perLayerUnits))
	for _, u := range perLayerUnits {
		v, ok := m[u.name]
		if !ok {
			return nil, errors.New("per-layer metric " + u.name + " was not measured")
		}
		out = append(out, metric{u.name, u.unit, v, note})
	}
	return out, nil
}
