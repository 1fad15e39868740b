package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets the test binary serve as the SUT, the way the benchmark
// binary re-runs itself with -serve.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-serve" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
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

// TestSpecMatchesCode holds BENCHMARK.json and the metric tables equal.
func TestSpecMatchesCode(t *testing.T) {
	s := readSpec(t)
	if len(s.EndToEnd) != len(endToEnd) || len(s.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, the code %d+%d",
			len(s.EndToEnd), len(s.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, d := range endToEnd {
		m := s.EndToEnd[i]
		better := map[bool]string{true: "higher", false: "lower"}[d.higher]
		if m.Name != d.name || m.Unit != d.unit || m.Better != better || m.Bound == nil || *m.Bound != d.bound {
			t.Errorf("end_to_end[%d] = %+v, code has %+v", i, m, d)
		}
	}
	for i, d := range perLayer {
		if m := s.PerLayer[i]; m.Name != d.name || m.Unit != d.unit {
			t.Errorf("per_layer[%d] = %+v, code has %+v", i, m, d)
		}
	}
}

// TestSmoke runs one short trial per workload on the tiny corpus through the
// real two-process path, untraced and traced, and checks what the driver
// reads: every metric printed with its unit, no failed ask, and a trace
// whose spans nest.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts SUT processes")
	}
	s := readSpec(t)
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			for _, traceOn := range []bool{false, true} {
				opts := options{workload: w.name, seed: 1, seconds: 0.1, trace: traceOn,
					traceOut: filepath.Join(t.TempDir(), "trace.json"), corpus: "tiny", trials: 1}
				var out bytes.Buffer
				res, err := run(&out, opts)
				if err != nil {
					t.Fatalf("trace=%v: %v\n%s", traceOn, err, out.String())
				}
				want, defs := s.EndToEnd, endToEnd
				if traceOn {
					want, defs = s.PerLayer, perLayer
				}
				if err := printResult(&out, res, defs); err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var got struct {
					Correct   bool `json:"correct"`
					Attempted int  `json:"attempted"`
					Failed    int  `json:"failed"`
					Metrics   map[string]struct {
						Value float64 `json:"value"`
						Unit  string  `json:"unit"`
					} `json:"metrics"`
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
					t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
				}
				if !got.Correct || got.Failed != 0 || got.Attempted < minSamples {
					t.Errorf("trace=%v: correct=%v attempted=%d failed=%d", traceOn, got.Correct, got.Attempted, got.Failed)
				}
				for _, m := range want {
					if v, ok := got.Metrics[m.Name]; !ok || v.Unit != m.Unit {
						t.Errorf("trace=%v: metric %s printed as %+v, want unit %s", traceOn, m.Name, v, m.Unit)
					}
				}
				if traceOn {
					checkTraceNesting(t, opts.traceOut)
				}
			}
		})
	}
}

// checkTraceNesting parses a Chrome trace and checks that every span lies
// inside its parent (to the microsecond the format rounds to).
func checkTraceNesting(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tr struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			TS   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Args struct {
				Span   int64 `json:"span"`
				Parent int64 `json:"parent"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &tr); err != nil {
		t.Fatalf("trace does not parse: %v", err)
	}
	type iv struct{ lo, hi float64 }
	byID := make(map[int64]iv)
	roots := 0
	for _, e := range tr.TraceEvents {
		if e.Ph == "X" {
			byID[e.Args.Span] = iv{e.TS, e.TS + e.Dur}
		}
	}
	for _, e := range tr.TraceEvents {
		if e.Ph != "X" {
			continue
		}
		if e.Args.Parent == 0 {
			roots++
			continue
		}
		p, ok := byID[e.Args.Parent]
		if !ok {
			t.Errorf("span %s has no parent in the trace", e.Name)
			continue
		}
		if e.TS < p.lo-1 || e.TS+e.Dur > p.hi+1 {
			t.Errorf("span %s [%v, %v] outside its parent [%v, %v]", e.Name, e.TS, e.TS+e.Dur, p.lo, p.hi)
		}
	}
	if roots == 0 {
		t.Error("trace has no root spans")
	}
}
