package main

import (
	"fmt"
	"io"
	"math"
)

// noise runs sets × runs runs of one workload at one seed and prints, per
// end-to-end metric, each set's median and spread (interquartile range over
// median) and how far the second set's median moved from the first's,
// against the metric's bound: the evidence that the bounds are wider than
// the benchmark's own noise.
func noise(out io.Writer, opts options, sets, runs int) error {
	vals := make([]map[string][]float64, sets)
	for s := range vals {
		vals[s] = make(map[string][]float64)
		for r := 0; r < runs; r++ {
			res, err := run(io.Discard, opts)
			if err != nil {
				return fmt.Errorf("set %d run %d: %w", s+1, r+1, err)
			}
			for _, d := range endToEnd {
				vals[s][d.name] = append(vals[s][d.name], res.metrics[d.name])
			}
			fmt.Fprintf(out, "set %d run %d done\n", s+1, r+1)
		}
	}
	fmt.Fprintf(out, "\n%s, seed %d, %d sets × %d runs of %d trials, %gs each:\n\n", opts.workload, opts.seed, sets, runs, opts.trials, opts.seconds)
	fmt.Fprintf(out, "| metric | bound |")
	for s := 1; s <= sets; s++ {
		fmt.Fprintf(out, " set %d median | set %d IQR/median |", s, s)
	}
	fmt.Fprintf(out, " worst worsening vs set 1 | within bound |\n|---|---|")
	for s := 0; s < sets; s++ {
		fmt.Fprintf(out, "---|---|")
	}
	fmt.Fprintf(out, "---|---|\n")
	for _, d := range endToEnd {
		fmt.Fprintf(out, "| %s | %.2f |", d.name, d.bound)
		first := median(vals[0][d.name])
		worst, ok := 0.0, true
		for s := 0; s < sets; s++ {
			med, sp := median(vals[s][d.name]), spread(vals[s][d.name])
			fmt.Fprintf(out, " %.4g %s | %.3f |", med, d.unit, sp)
			// The spread of setup_s is not judged, only its drift.
			if d.name != "setup_s" && sp > d.bound {
				ok = false
			}
			worse := (med - first) / first
			if d.higher {
				worse = -worse
			}
			worst = math.Max(worst, worse)
		}
		if worst > d.bound {
			ok = false
		}
		fmt.Fprintf(out, " %+.3f | %v |\n", worst, ok)
	}
	return nil
}
