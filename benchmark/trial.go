package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"time"
)

// sutProc is a running SUT process and its control pipes.
type sutProc struct {
	cmd   *exec.Cmd
	in    io.WriteCloser
	dec   *json.Decoder
	ready readyMsg
	done  bool
}

// startSUT re-runs this binary as the SUT for w and waits for its ready
// line.
func startSUT(opts options, w workload) (*sutProc, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("locate benchmark binary: %w", err)
	}
	cmd := exec.Command(self, "-serve", w.name, "-corpus", opts.corpus)
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start SUT: %w", err)
	}
	p := &sutProc{cmd: cmd, in: in, dec: json.NewDecoder(out)}
	if err := p.read(&p.ready, 2*time.Minute); err != nil {
		p.close()
		return nil, fmt.Errorf("SUT set-up: %w", err)
	}
	return p, nil
}

// read decodes the SUT's next reply line, killing the SUT if none arrives
// in time. A SUT that exited early surfaces here as a read error.
func (p *sutProc) read(v any, limit time.Duration) error {
	got := make(chan error, 1)
	go func() { got <- p.dec.Decode(v) }()
	select {
	case err := <-got:
		if err != nil {
			return fmt.Errorf("SUT exited or broke the control protocol: %w", err)
		}
		return nil
	case <-time.After(limit):
		p.cmd.Process.Kill()
		<-got
		return fmt.Errorf("SUT gave no reply within %s", limit)
	}
}

// call sends one control command and decodes its reply.
func (p *sutProc) call(cmd string, v any) error {
	if _, err := io.WriteString(p.in, cmd+"\n"); err != nil {
		return fmt.Errorf("SUT %s: %w", cmd, err)
	}
	if err := p.read(v, time.Minute); err != nil {
		return fmt.Errorf("SUT %s: %w", cmd, err)
	}
	return nil
}

// quit stops the SUT cleanly and waits for it to exit.
func (p *sutProc) quit() error {
	var ok map[string]bool
	err := p.call("quit", &ok)
	p.in.Close()
	werr := p.cmd.Wait()
	p.done = true
	if err != nil {
		return err
	}
	if werr != nil {
		return fmt.Errorf("SUT exit: %w", werr)
	}
	return nil
}

// close kills the SUT if it is still running and reaps it.
func (p *sutProc) close() {
	if p.done {
		return
	}
	p.done = true
	p.in.Close()
	p.cmd.Process.Kill()
	p.cmd.Wait()
}

// trial is one fresh SUT's measurement.
type trial struct {
	ready readyMsg
	stats statsMsg
	phase phase
}

// runTrial starts a fresh SUT, warms it with one question cycle (discarded),
// marks its counters, runs the measured phase and collects the SUT's
// counter deltas.
func runTrial(opts options, w workload, cycle []string, expect []expectation) (trial, error) {
	var t trial
	p, err := startSUT(opts, w)
	if err != nil {
		return t, err
	}
	defer p.close()
	t.ready = p.ready
	g, err := newGenerator(p.ready.Gate, cycle, expect)
	if err != nil {
		return t, err
	}
	defer g.close()

	if warm := g.closedLoop(0, len(cycle), w.clients()); warm.failed > 0 {
		return t, fmt.Errorf("%d of %d warm-up asks failed", warm.failed, len(cycle))
	}
	var ok map[string]bool
	if err := p.call("mark", &ok); err != nil {
		return t, err
	}
	t.phase = g.closedLoop(len(cycle), w.measuredAsks(opts.seconds), w.clients())
	if err := p.call("stats", &t.stats); err != nil {
		return t, err
	}
	return t, p.quit()
}

// validate applies the rules under which a trial's numbers may be printed.
func (t trial) validate() error {
	n := len(t.phase.latency)
	if t.phase.failed > 0 {
		return fmt.Errorf("%d of %d asks failed", t.phase.failed, n)
	}
	return quantileSupported(n, 0.99)
}

// metrics derives every trial-level metric: the end-to-end ones and the
// per-layer ones counted (not traced) by the SUT and the generator.
func (t trial) metrics() map[string]float64 {
	d := t.stats.Delta
	answered := float64(len(t.phase.latency) - t.phase.failed)
	lat := sortedCopy(t.phase.latency)
	frac := func(a, b float64) float64 {
		if a+b == 0 {
			return 0
		}
		return a / (a + b)
	}
	return map[string]float64{
		"answered_per_s": answered / t.phase.wall.Seconds(),
		"ask_p50_ms":     quantile(lat, 0.50),
		"ask_p99_ms":     quantile(lat, 0.99),
		"cpu_ms_per_ask": d["cpu_s"] * 1000 / answered,
		"allocs_per_ask": d["mallocs"] / answered,
		"heap_mb":        t.stats.HeapMB,
		"setup_s":        t.ready.SetupS,

		"live.pr_subtasks_per_ask": d["pr_subtasks"] / answered,
		"live.ap_subtasks_per_ask": d["ap_subtasks"] / answered,
		"live.forwards_per_ask":    d["forwards"] / answered,
		"live.mux_calls_per_ask":   d["mux_calls"] / answered,
		"qcache.answer_hit_frac":   frac(d["answer_hits"], d["answer_misses"]),
		"qcache.pr_hit_frac":       frac(d["pr_hits"], d["pr_misses"]),
		"shard.skip_frac":          frac(d["route_skipped"], d["route_scattered"]),
		"shard.fallbacks":          d["route_fallbacks"],
		"go.alloc_kb_per_ask":      d["alloc_bytes"] / 1024 / answered,
		"go.gc_per_kask":           d["gc_cycles"] * 1000 / answered,
		"go.gc_cpu_frac":           d["gc_cpu_s"] / d["cpu_s"],
		"corpus.generate_s":        t.ready.GenerateS,
		"index.build_s":            t.ready.IndexS,
		"live.start_s":             t.ready.StartS,
		"live.converge_s":          t.ready.ConvergeS,
		"index.mb":                 t.ready.IndexMB,
	}
}

// summary is a one-line human description of the trial.
func (t trial) summary(i int) string {
	m := t.metrics()
	return fmt.Sprintf("trial %d: %d asks in %.2fs: %.0f/s, p50 %.3f ms, p99 %.3f ms, SUT cpu %.3f ms/ask, %.0f allocs/ask, heap %.1f MB, setup %.2fs (+%.2fs converge), PR/AP sub-tasks %.2f/%.2f per ask",
		i, len(t.phase.latency), t.phase.wall.Seconds(), m["answered_per_s"], m["ask_p50_ms"], m["ask_p99_ms"],
		m["cpu_ms_per_ask"], m["allocs_per_ask"], m["heap_mb"], m["setup_s"], m["live.converge_s"],
		m["live.pr_subtasks_per_ask"], m["live.ap_subtasks_per_ask"])
}
