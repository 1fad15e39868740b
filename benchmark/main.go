// Command benchmark is the serving benchmark: one run drives one workload
// at one seed through the whole stack — gate (HTTP/JSON) → live (mux/wire,
// qcache front, scheduler, shard scatter) → qa → index — over loopback,
// checks every answer against an oracle, and prints the end-to-end metrics
// (or, with -trace 1, the per-layer ones) as its last stdout line:
//
//	go run . -workload cold_closed -seed 1 -seconds 12 -trace 0
//
// See README.md for the workloads, metrics and the noise they carry.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"distqa/internal/corpus"
	"distqa/internal/index"
	"distqa/internal/qa"
)

// metricDef mirrors one BENCHMARK.json metric (the smoke test holds them
// equal). bound is the allowed worsening, as a share of the parent's
// median; per-layer metrics have none.
type metricDef struct {
	name, unit string
	higher     bool
	bound      float64
}

var endToEnd = []metricDef{
	{"answered_per_s", "1/s", true, 0.25},
	{"ask_p50_ms", "ms", false, 0.25},
	{"ask_p99_ms", "ms", false, 0.25},
	{"cpu_ms_per_ask", "ms", false, 0.25},
	{"allocs_per_ask", "count", false, 0.02},
	{"heap_mb", "MB", false, 0.05},
	{"setup_s", "s", false, 0.25},
}

var perLayer = []metricDef{
	{name: "gate.http_ms", unit: "ms"},
	{name: "gate.edge_ms", unit: "ms"},
	{name: "gate.decode_us", unit: "us"},
	{name: "gate.encode_us", unit: "us"},
	{name: "live.transport_ms", unit: "ms"},
	{name: "live.serve_ms", unit: "ms"},
	{name: "live.sched_ms", unit: "ms"},
	{name: "live.pr_subtasks_per_ask", unit: "count"},
	{name: "live.ap_subtasks_per_ask", unit: "count"},
	{name: "live.forwards_per_ask", unit: "count"},
	{name: "live.mux_calls_per_ask", unit: "count"},
	{name: "qcache.answer_hit_frac", unit: "1"},
	{name: "qcache.pr_hit_frac", unit: "1"},
	{name: "qcache.get_us", unit: "us"},
	{name: "qa.qp_ms", unit: "ms"},
	{name: "qa.pr_ms", unit: "ms"},
	{name: "qa.ps_ms", unit: "ms"},
	{name: "qa.po_ms", unit: "ms"},
	{name: "qa.ap_ms", unit: "ms"},
	{name: "qa.merge_ms", unit: "ms"},
	{name: "qa.ap_share", unit: "1"},
	{name: "qa.pr_share", unit: "1"},
	{name: "qa.retrieved_per_ask", unit: "count"},
	{name: "qa.accepted_per_ask", unit: "count"},
	{name: "index.retrieve_ms", unit: "ms"},
	{name: "corpus.generate_s", unit: "s"},
	{name: "index.build_s", unit: "s"},
	{name: "index.mb", unit: "MB"},
	{name: "live.start_s", unit: "s"},
	{name: "live.converge_s", unit: "s"},
	{name: "shard.route_us", unit: "us"},
	{name: "shard.legs_per_ask", unit: "count"},
	{name: "shard.retrieve_ms", unit: "ms"},
	{name: "shard.merge_us", unit: "us"},
	{name: "shard.skip_frac", unit: "1"},
	{name: "shard.fallbacks", unit: "count"},
	{name: "go.alloc_kb_per_ask", unit: "KB"},
	{name: "go.gc_per_kask", unit: "count"},
	{name: "go.gc_cpu_frac", unit: "1"},
	{name: "trace.overhead_frac", unit: "1"},
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	traceOut string
	corpus   string
	trials   int
}

// result is one run: the medians across its trials, plus the traced
// replay's metrics when tracing.
type result struct {
	attempted, failed int
	metrics           map[string]float64
}

func main() {
	began := time.Now()
	var (
		opts     options
		traceOn  int
		serveArg string
		sets     int
		runs     int
	)
	flag.StringVar(&opts.workload, "workload", "", "workload to run: cold_closed, hot_closed, sharded_closed or cold_serial")
	flag.Int64Var(&opts.seed, "seed", 1, "orders the question cycle")
	flag.Float64Var(&opts.seconds, "seconds", 12, "measured seconds per run, split over the trials")
	flag.IntVar(&traceOn, "trace", 0, "1 replays a cycle with per-layer spans and prints the per-layer metrics")
	flag.StringVar(&opts.traceOut, "trace-out", "", "Chrome trace file of the traced replay (default .bench_build/trace-<workload>-<seed>.json)")
	flag.StringVar(&opts.corpus, "corpus", "trec8", "collection: trec8 (TREC8Like) or tiny")
	flag.IntVar(&sets, "sets", 0, "noise tooling: measure this many sets of -runs runs and compare them")
	flag.IntVar(&runs, "runs", 5, "runs per set for -sets")
	flag.StringVar(&serveArg, "serve", "", "internal: run as the system under test for this workload")
	flag.Parse()
	opts.trials = defaultTrials
	opts.trace = traceOn == 1
	if opts.traceOut == "" {
		opts.traceOut = fmt.Sprintf(".bench_build/trace-%s-%d.json", opts.workload, opts.seed)
	}

	if serveArg != "" {
		if err := serveMain(serveArg, opts.corpus, began); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark SUT:", err)
			os.Exit(1)
		}
		return
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	if opts.workload == "" || opts.seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	if sets > 0 {
		if err := noise(os.Stdout, opts, sets, runs); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		return
	}
	res, err := run(os.Stdout, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	defs := endToEnd
	if opts.trace {
		defs = perLayer
	}
	if err := printResult(os.Stdout, res, defs); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func serveMain(name, corpusName string, began time.Time) error {
	w, err := workloadByName(name)
	if err != nil {
		return err
	}
	cc, err := corpusConfig(corpusName)
	if err != nil {
		return err
	}
	return serve(w, cc, began, os.Stdin, os.Stdout)
}

// run measures one workload at one seed: it builds the oracle, replays a
// traced cycle if asked, then runs the trials and takes each metric's
// median across them. Any failed ask or unsupported quantile is an error:
// the run prints no numbers rather than bad ones.
func run(out io.Writer, opts options) (result, error) {
	var res result
	w, err := workloadByName(opts.workload)
	if err != nil {
		return res, err
	}
	cc, err := corpusConfig(opts.corpus)
	if err != nil {
		return res, err
	}
	built := time.Now()
	coll := corpus.Generate(cc)
	e := qa.NewEngine(coll, index.BuildAll(coll))
	cycle := questionCycle(w, coll, e.Set, opts.seed)
	expect := buildOracle(e, cycle)
	differ := 0
	for i := range expect {
		if expect[i].differs() {
			differ++
		}
	}
	fmt.Fprintf(out, "%s seed %d: %d-question cycle, oracle built in %.2fs (%d questions answer differently under the two AP groupings)\n",
		w.name, opts.seed, len(cycle), time.Since(built).Seconds(), differ)

	var tr traced
	if opts.trace {
		if tr, err = runTrace(opts, w, e, cycle, expect); err != nil {
			return res, fmt.Errorf("traced replay: %w", err)
		}
		if err := writeTrace(opts.traceOut, tr.spans); err != nil {
			return res, fmt.Errorf("write trace: %w", err)
		}
		fmt.Fprintf(out, "wrote %d spans to %s\n", len(tr.spans), opts.traceOut)
	}
	// The oracle engine is dead from here on: returning its memory before
	// the first trial keeps the generator's footprint off the SUT's.
	debug.FreeOSMemory()

	perTrial := make(map[string][]float64)
	for i := 1; i <= opts.trials; i++ {
		t, err := runTrial(opts, w, cycle, expect)
		res.attempted += len(t.phase.latency)
		res.failed += t.phase.failed
		if err == nil {
			err = t.validate()
		}
		if err != nil {
			return res, fmt.Errorf("trial %d: %w", i, err)
		}
		fmt.Fprintln(out, t.summary(i))
		for k, v := range t.metrics() {
			perTrial[k] = append(perTrial[k], v)
		}
	}
	res.metrics = make(map[string]float64)
	for k, vs := range perTrial {
		res.metrics[k] = median(vs)
	}
	if opts.trace {
		for k, v := range tr.metrics {
			res.metrics[k] = v
		}
		printLedger(out, w, res.metrics, tr.serving, tr.asks)
	}
	return res, nil
}

// printResult prints the human-readable metrics, then the result line the
// driver reads: the last line of stdout.
func printResult(out io.Writer, res result, defs []metricDef) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := res.metrics[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		fmt.Fprintf(out, "  %-26s %14.6g %s\n", d.name, v, d.unit)
		metrics[d.name] = value{v, d.unit}
	}
	return json.NewEncoder(out).Encode(map[string]any{
		"correct":   res.failed == 0,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   metrics,
	})
}
