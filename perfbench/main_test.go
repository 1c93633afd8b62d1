package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// spec is the part of BENCHMARK.json the self-test checks against.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// short runs one workload briefly with a single set-up.
func short(t *testing.T, name string, trace bool, flipAt int) (*result, string) {
	t.Helper()
	var log bytes.Buffer
	res, err := bench(options{
		workload: name,
		seed:     3,
		window:   300 * time.Millisecond,
		trace:    trace,
		setups:   1,
		flipAt:   flipAt,
	}, &log)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return res, log.String()
}

// checkReported requires every metric of want, and no other, in the JSON
// summary and on its own log line, with the unit BENCHMARK.json names.
func checkReported(t *testing.T, res *result, log string, want []specMetric) {
	t.Helper()
	got := res.summary().Metrics
	if len(got) != len(want) {
		t.Errorf("summary has %d metrics, BENCHMARK.json names %d", len(got), len(want))
	}
	printed := make(map[string]string)
	sc := bufio.NewScanner(strings.NewReader(log))
	for sc.Scan() {
		if f := strings.Fields(sc.Text()); len(f) >= 3 && !strings.HasPrefix(f[0], "#") {
			printed[f[0]] = f[2]
		}
	}
	for _, m := range want {
		if g, ok := got[m.Name]; !ok || g.Unit != m.Unit {
			t.Errorf("summary metric %s = %+v, want unit %q", m.Name, g, m.Unit)
		}
		if printed[m.Name] != m.Unit {
			t.Errorf("log line for %s has unit %q, want %q", m.Name, printed[m.Name], m.Unit)
		}
	}
}

func TestWorkloadsReportEveryMetric(t *testing.T) {
	s := readSpec(t)
	for _, w := range s.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			res, log := short(t, w.Name, false, 0)
			checkReported(t, res, log, s.EndToEnd)
			if res.failed != 0 || res.attempted == 0 {
				t.Errorf("%d of %d sessions failed: %v", res.failed, res.attempted, res.errs)
			}
			if v := res.summary().Metrics["delivered_frac"].Value; v != 1 {
				t.Errorf("delivered_frac = %v, want 1", v)
			}

			res, log = short(t, w.Name, true, 0)
			checkReported(t, res, log, s.PerLayer)
			if res.failed != 0 {
				t.Errorf("traced run: %d of %d sessions failed: %v", res.failed, res.attempted, res.errs)
			}
		})
	}
}

// TestFlippedByteIsAFailure proves the delivery check is live: one byte
// flipped at the sink must cost exactly one session.
func TestFlippedByteIsAFailure(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res, _ := short(t, w.name, false, 1)
			if res.failed != 1 {
				t.Errorf("failed = %d of %d, want 1: %v", res.failed, res.attempted, res.errs)
			}
			sum := res.summary()
			if sum.Correct {
				t.Error("summary reads correct with a corrupted session")
			}
			if v := sum.Metrics["delivered_frac"].Value; v >= 1 {
				t.Errorf("delivered_frac = %v, want < 1", v)
			}
		})
	}
}
