// Command qabench regenerates the paper's evaluation tables and figures on
// the simulated cluster.
//
// Usage:
//
//	qabench                 # run every experiment at paper scale
//	qabench -exp table5     # one experiment (see -list)
//	qabench -scale small    # fast, down-scaled environment
//	qabench -list           # list experiment ids
//	qabench -stage-metrics  # also print wall-clock p50/p90/p99 per Q/A stage
//	qabench -perf           # run the hot-path benchmark suite → BENCH_perf.json
//	qabench -perf -perf-check                    # also enforce the serving-path floors, p99 SLOs, gateway load and index compression gates (CI)
//	qabench -perf -perf-baseline before.json     # fail on >20% same-machine regression (ns/op + ratios)
//	qabench -perf -perf-baseline BENCH_perf.json -perf-ratios-only  # CI: gate comparison ratios vs the committed report
//	qabench -chaos          # run a seeded fault schedule against a live loopback cluster
//	qabench -load           # open-loop load vs a self-started cluster+gateway: calibrate capacity, run sub- and over-threshold regimes
//	qabench -load -load-target http://host:8080 -load-rate 200 -load-duration 10s -load-arrivals burst  # fixed-rate vs an external gateway
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"strings"
	"time"

	"distqa/internal/chaos"
	"distqa/internal/corpus"
	"distqa/internal/experiments"
	"distqa/internal/gate"
	"distqa/internal/index"
	"distqa/internal/live"
	"distqa/internal/obs"
	"distqa/internal/perf"
	"distqa/internal/qa"
	"distqa/internal/workload"
)

func main() {
	exp := flag.String("exp", "all", "experiment id to run, or 'all'")
	scale := flag.String("scale", "paper", "environment scale: paper or small")
	list := flag.Bool("list", false, "list experiment ids and exit")
	stageMetrics := flag.Bool("stage-metrics", false, "record wall-clock per-stage latency histograms and print p50/p90/p99")
	perfMode := flag.Bool("perf", false, "run the hot-path benchmark suite instead of the experiments")
	perfOut := flag.String("perf-out", "BENCH_perf.json", "perf mode: output file for the JSON report")
	perfBudget := flag.Duration("perf-budget", time.Second, "perf mode: measuring time per benchmark")
	perfScale := flag.String("perf-scale", "tiny", "perf mode: corpus scale (tiny or trec8)")
	perfBaseline := flag.String("perf-baseline", "", "perf mode: baseline JSON report to diff against; exit non-zero on >tolerance regression (comparison ratios always; ns/op when the environment matches)")
	perfTolerance := flag.Float64("perf-tolerance", 0.20, "perf mode: allowed fractional regression vs -perf-baseline (0.20 = 20%)")
	perfCheck := flag.Bool("perf-check", false, "perf mode: enforce the machine-independent serving-path floors and p99 latency SLOs (CI gate)")
	perfCPUProfile := flag.String("perf-cpuprofile", "", "perf mode: write a CPU profile captured around the whole suite run to this file (inspect with go tool pprof)")
	perfRatiosOnly := flag.Bool("perf-ratios-only", false, "perf mode: with -perf-baseline, gate only the comparison ratios and skip the ns/op diff (use against committed baselines, where wall-clock numbers are from another time/machine)")
	chaosMode := flag.Bool("chaos", false, "run a seeded fault schedule against a live loopback cluster instead of the experiments")
	chaosSeed := flag.Int64("seed", 1, "chaos mode: schedule seed (same seed => byte-identical event log)")
	chaosNodes := flag.Int("nodes", 4, "chaos mode: cluster size")
	chaosQuestions := flag.Int("chaos-questions", 12, "chaos mode: questions to ask across the schedule")
	chaosScenario := flag.String("chaos-scenario", chaos.ScenarioMixed, "chaos mode: scenario (crash, blackout, partition, shardloss, staleroute, mixed)")
	loadMode := flag.Bool("load", false, "run the open-loop load harness against an HTTP gateway instead of the experiments")
	loadTarget := flag.String("load-target", "", "load mode: base URL of an already-running qagate (default: a self-contained in-process cluster + gateway)")
	loadRate := flag.Float64("load-rate", 0, "load mode: offered arrival rate in requests/second (0 = auto-calibrate and run a sub- and an over-threshold pair)")
	loadDuration := flag.Duration("load-duration", 5*time.Second, "load mode: schedule length per run")
	loadArrivals := flag.String("load-arrivals", "poisson", "load mode: arrival process (poisson or burst)")
	loadTimeoutMS := flag.Int64("load-timeout-ms", 10000, "load mode: per-request edge deadline sent as timeout_ms")
	loadInflight := flag.Int("load-inflight", 8, "load mode: self-contained gateway's MaxInflight (queue bound is 2x)")
	loadAlpha := flag.Float64("load-alpha", 1.5, "load mode: heavy-tail exponent for question sampling (0 = uniform)")
	loadOut := flag.String("load-out", "", "load mode: also write the run reports as JSON to this file")
	flag.Parse()

	if *chaosMode {
		os.Exit(runChaos(*chaosSeed, *chaosNodes, *chaosQuestions, *chaosScenario))
	}

	if *loadMode {
		os.Exit(runLoad(*loadTarget, *loadRate, *loadDuration, *loadArrivals, *loadTimeoutMS, *loadInflight, *loadAlpha, *chaosSeed, *loadOut))
	}

	if *perfMode {
		os.Exit(runPerf(*perfOut, *perfBudget, *perfScale, *perfBaseline, *perfTolerance, *perfCheck, *perfRatiosOnly, *perfCPUProfile))
	}

	if *list {
		fmt.Println(strings.Join(experiments.IDs(), "\n"))
		return
	}

	var env *experiments.Env
	switch *scale {
	case "paper":
		env = experiments.Paper()
	case "small":
		env = experiments.Small()
	default:
		fmt.Fprintf(os.Stderr, "qabench: unknown scale %q (want paper or small)\n", *scale)
		os.Exit(2)
	}

	var stageReg *obs.Registry
	if *stageMetrics {
		// A private registry keeps the bench histograms clear of the live
		// cluster's; the observer hooks every stage of the shared engines.
		stageReg = obs.NewRegistry()
		observer := stageReg.StageObserver("qa_stage_seconds")
		env.Engine().Observer = observer
		env.Engine8().Observer = observer
	}

	start := time.Now()
	var tables []experiments.Table
	if *exp == "all" {
		tables = experiments.All(env)
	} else {
		var err error
		tables, err = experiments.Run(env, *exp)
		if err != nil {
			fmt.Fprintf(os.Stderr, "qabench: %v\n", err)
			os.Exit(2)
		}
	}
	for _, t := range tables {
		fmt.Println(t.String())
	}
	if stageReg != nil {
		printStageMetrics(stageReg)
	}
	fmt.Printf("completed in %v\n", time.Since(start).Round(time.Millisecond))
}

// runChaos executes one seeded chaos schedule against a live loopback
// cluster (internal/chaos) and exits non-zero if any question missed the
// planted answer or any fault-tolerance expectation was violated.
func runChaos(seed int64, nodes, questions int, scenario string) int {
	switch scenario {
	case chaos.ScenarioCrash, chaos.ScenarioBlackout, chaos.ScenarioPartition, chaos.ScenarioMixed, chaos.ScenarioShardLoss, chaos.ScenarioStaleRoute:
	default:
		fmt.Fprintf(os.Stderr, "qabench: unknown -chaos-scenario %q (want crash, blackout, partition, shardloss, staleroute or mixed)\n", scenario)
		return 2
	}
	res, err := chaos.Run(chaos.Config{
		Seed:      seed,
		Nodes:     nodes,
		Questions: questions,
		Scenario:  scenario,
		Out:       os.Stdout,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "qabench: chaos: %v\n", err)
		return 1
	}
	if !res.OK() {
		for _, f := range res.Failures {
			fmt.Fprintf(os.Stderr, "qabench: chaos: FAIL: %s\n", f)
		}
		return 1
	}
	fmt.Println("chaos: OK")
	return 0
}

// runLoad drives the open-loop load harness (internal/gate.RunLoad) against
// an HTTP gateway. With -load-target it aims at an already-running qagate;
// without, it stands up a self-contained loopback deployment — a two-node
// full-replica cluster behind an in-process gateway — so `qabench -load`
// measures a complete edge-to-cluster stack with zero setup (the CI smoke).
// Questions are sampled heavy-tailed from the complexity profile (alpha > 0
// tilts demand toward the expensive tail). rate = 0 auto-calibrates and runs
// a sub-threshold and an over-threshold pair, the acceptance shape: the
// first must shed ~nothing, the second must shed and keep its queue bounded.
func runLoad(target string, rate float64, duration time.Duration, arrivals string, timeoutMS int64, maxInflight int, alpha float64, seed int64, out string) int {
	collCfg := corpus.Tiny()
	if rate <= 0 && target == "" {
		// Auto mode brackets the capacity threshold, which must sit at rates
		// this process can generate: paper-scale questions carry multi-ms
		// service demand, putting capacity in the hundreds of qps instead of
		// the tiny corpus's unreachable thousands.
		collCfg = corpus.TREC8Like()
	}
	coll := corpus.Generate(collCfg)
	questions := make([]string, 0, len(coll.Facts))
	if alpha > 0 {
		engine := qa.NewEngine(coll, index.BuildAll(coll))
		set := workload.FromCollection(coll).Profile(engine)
		for _, q := range set.HeavyTailedPick(seed, 4*len(set.Questions), alpha) {
			questions = append(questions, q.Text)
		}
	} else {
		for _, f := range coll.Facts {
			questions = append(questions, f.Question)
		}
	}

	base := target
	if base == "" {
		fmt.Println("starting self-contained two-node cluster + gateway...")
		engine := qa.NewEngine(coll, index.BuildAll(coll))
		addrs := make([]string, 0, 2)
		for i := 0; i < 2; i++ {
			node, err := live.StartNode(live.NodeConfig{
				Addr:           "127.0.0.1:0",
				Engine:         engine,
				HeartbeatEvery: 250 * time.Millisecond,
				RequestTimeout: 10 * time.Second,
				Cache:          live.CacheConfig{Disabled: true},
			})
			if err != nil {
				fmt.Fprintf(os.Stderr, "qabench: load: start node: %v\n", err)
				return 1
			}
			defer node.Close()
			addrs = append(addrs, node.Addr())
		}
		gw, err := gate.New(gate.Config{Addr: "127.0.0.1:0", Nodes: addrs, MaxInflight: maxInflight})
		if err != nil {
			fmt.Fprintf(os.Stderr, "qabench: load: %v\n", err)
			return 1
		}
		if err := gw.Start(); err != nil {
			fmt.Fprintf(os.Stderr, "qabench: load: %v\n", err)
			return 1
		}
		defer gw.Close()
		base = gw.URL()
	}

	run := func(name string, r float64, arr string, d time.Duration) (gate.LoadResult, bool) {
		res, err := gate.RunLoad(gate.LoadConfig{
			BaseURL: base, Questions: questions, Rate: r, Duration: d,
			Arrivals: arr, Seed: seed, TimeoutMS: timeoutMS,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "qabench: load: %v\n", err)
			return res, false
		}
		res.Name = name
		fmt.Printf("%s:\n%s", name, res.Text())
		return res, true
	}

	var results []gate.LoadResult
	if rate > 0 {
		res, ok := run("load", rate, arrivals, duration)
		if !ok {
			return 1
		}
		results = append(results, res)
	} else {
		// Auto mode: a short low-rate run calibrates the service time, then a
		// quarter-capacity and a 4x-capacity schedule bracket the threshold.
		// Each schedule's request count is capped so a fast machine still
		// finishes in seconds, and the over rate is capped at what one client
		// process can generate honestly.
		calStart := time.Now()
		cal, err := gate.RunLoad(gate.LoadConfig{
			BaseURL: base, Questions: questions, Rate: 4,
			Duration: 2 * time.Second,
			Arrivals: "poisson", Seed: seed, TimeoutMS: timeoutMS,
		})
		if err != nil || cal.OK == 0 {
			fmt.Fprintf(os.Stderr, "qabench: load: calibration failed (%v, %d ok)\n", err, cal.OK)
			return 1
		}
		service := cal.P50Ms / 1000
		capacity := float64(maxInflight) / service
		fmt.Printf("calibration (%.1fs): service ~%.2fms, capacity ~%.0f qps\n",
			time.Since(calStart).Seconds(), cal.P50Ms, capacity)
		durFor := func(r float64) time.Duration {
			d := duration
			if byCount := time.Duration(3000 / r * float64(time.Second)); byCount < d {
				d = byCount
			}
			if d < 500*time.Millisecond {
				d = 500 * time.Millisecond
			}
			return d
		}
		subRate := 0.25 * capacity
		overRate := 4 * capacity
		if overRate > 1500 {
			overRate = 1500
		}
		if overRate <= capacity {
			fmt.Printf("note: capped over rate %.0f qps does not exceed capacity ~%.0f — shedding may not engage\n", overRate, capacity)
		}
		sub, ok := run("sub-threshold", subRate, arrivals, durFor(subRate))
		if !ok {
			return 1
		}
		over, ok := run("over-threshold", overRate, "burst", durFor(overRate))
		if !ok {
			return 1
		}
		results = append(results, sub, over)
	}

	if out != "" {
		data, _ := json.MarshalIndent(results, "", "  ")
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "qabench: load: write %s: %v\n", out, err)
			return 1
		}
		fmt.Printf("wrote %s\n", out)
	}
	for _, res := range results {
		if res.OK == 0 || res.AchievedQPS <= 0 {
			fmt.Fprintf(os.Stderr, "qabench: load: run %q achieved no throughput\n", res.Name)
			return 1
		}
	}
	return 0
}

// runPerf executes the hot-path benchmark suite (internal/perf), writes the
// machine-readable report to out, prints a human summary, and optionally
// gates on a baseline diff (-perf-baseline/-perf-tolerance; comparison
// ratios always, ns/op only for same-env non-ratios-only runs) and the
// machine-independent serving-path floors (-perf-check).
func runPerf(out string, budget time.Duration, scale, baselinePath string, tolerance float64, check, ratiosOnly bool, cpuProfile string) int {
	cfg := perf.SuiteConfig{Budget: budget, Log: os.Stderr}
	switch scale {
	case "tiny":
		cfg.Corpus = corpus.Tiny()
	case "trec8":
		cfg.Corpus = corpus.TREC8Like()
	default:
		fmt.Fprintf(os.Stderr, "qabench: unknown -perf-scale %q (want tiny or trec8)\n", scale)
		return 2
	}
	if cpuProfile != "" {
		pf, err := os.Create(cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "qabench: perf: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(pf); err != nil {
			pf.Close()
			fmt.Fprintf(os.Stderr, "qabench: perf: start cpu profile: %v\n", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			pf.Close()
			fmt.Printf("wrote CPU profile %s\n", cpuProfile)
		}()
	}
	report, err := perf.RunSuite(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "qabench: perf: %v\n", err)
		return 1
	}
	report.WriteText(os.Stdout)
	f, err := os.Create(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "qabench: perf: %v\n", err)
		return 1
	}
	defer f.Close()
	if err := report.WriteJSON(f); err != nil {
		fmt.Fprintf(os.Stderr, "qabench: perf: write %s: %v\n", out, err)
		return 1
	}
	fmt.Printf("wrote %s\n", out)

	failed := false
	if baselinePath != "" {
		baseline, err := perf.ReadReport(baselinePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "qabench: perf: %v\n", err)
			return 1
		}
		var violations []string
		// The committed comparison ratios (speedup, alloc ratio) are measured
		// within one run, so they gate on any machine; raw ns/op only means
		// something when the environments match.
		violations = append(violations, perf.CheckComparisonRegression(baseline, report, tolerance)...)
		switch {
		case ratiosOnly:
			// Committed baselines carry wall-clock numbers from another
			// time (and usually another machine); only the within-run
			// ratios are comparable.
		case !perf.SameEnv(baseline, report):
			fmt.Printf("baseline %s is from a different environment; skipping ns/op diff, checking comparison ratios only\n", baselinePath)
		default:
			violations = append(violations, perf.CheckRegression(baseline, report, tolerance)...)
		}
		if len(violations) > 0 {
			for _, v := range violations {
				fmt.Fprintf(os.Stderr, "qabench: perf: REGRESSION: %s\n", v)
			}
			failed = true
		} else {
			fmt.Printf("baseline check vs %s: OK (tolerance %.0f%%)\n", baselinePath, tolerance*100)
		}
	}
	if check {
		if violations := perf.CheckFloors(report); len(violations) > 0 {
			for _, v := range violations {
				fmt.Fprintf(os.Stderr, "qabench: perf: FLOOR: %s\n", v)
			}
			failed = true
		} else {
			fmt.Println("serving-path floors: OK")
		}
		if violations := perf.CheckSLOs(report, perf.DefaultSLOs()); len(violations) > 0 {
			for _, v := range violations {
				fmt.Fprintf(os.Stderr, "qabench: perf: SLO: %s\n", v)
			}
			failed = true
		} else {
			fmt.Println("p99 latency SLOs: OK")
		}
		if violations := perf.CheckLoad(report); len(violations) > 0 {
			for _, v := range violations {
				fmt.Fprintf(os.Stderr, "qabench: perf: LOAD: %s\n", v)
			}
			failed = true
		} else {
			fmt.Println("gateway load gates: OK")
		}
		if violations := perf.CheckSizes(report); len(violations) > 0 {
			for _, v := range violations {
				fmt.Fprintf(os.Stderr, "qabench: perf: SIZE: %s\n", v)
			}
			failed = true
		} else {
			fmt.Println("index compression floors: OK")
		}
	}
	if failed {
		return 1
	}
	return 0
}

// printStageMetrics renders the wall-clock latency quantiles of each pipeline
// stage recorded during the run (real execution time of the module code, not
// the simulator's virtual cost model).
func printStageMetrics(reg *obs.Registry) {
	fmt.Println("wall-clock stage latency (real module execution, not virtual cost):")
	fmt.Printf("  %-6s %10s %12s %12s %12s\n", "stage", "calls", "p50 ms", "p90 ms", "p99 ms")
	for _, stage := range []string{obs.StageQP, obs.StagePR, obs.StagePS, obs.StagePO, obs.StageAP, obs.StageMerge} {
		h := reg.Histogram("qa_stage_seconds", obs.Labels{"stage": stage}, obs.LatencyBuckets())
		if h.Count() == 0 {
			continue
		}
		s := h.Snapshot()
		fmt.Printf("  %-6s %10d %12.3f %12.3f %12.3f\n",
			stage, h.Count(), s.P50()*1000, s.P90()*1000, s.P99()*1000)
	}
	fmt.Println()
}
