package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"distqa/internal/gate"
	"distqa/internal/index"
	"distqa/internal/live"
	"distqa/internal/obs"
	"distqa/internal/qa"
	"distqa/internal/qcache"
	"distqa/internal/shard"
)

// The traced run is a separate SUT that is not one of the trials, so
// tracing never touches the end-to-end numbers. After the same warm-up it
// replays whole question cycles, at least traceAsks asks, one ask at a
// time, and times the calls into each layer's public functions. Spans are
// recorded from the benchmark's own code and held in memory until the run
// ends; a span's self time is its duration minus the time its children
// cover.
//
// Each replayed ask gets two roots sharing its QID. The root "ask" holds
// the calls that cross the loopback network:
//
//	gate.http       POST /v1/ask through the gateway
//	live.mux        the same question as a direct MuxTransport.Call to the
//	                node the gateway did not pick, asking for its span tree
//	live.serve      under live.mux: the node-reported ElapsedMS, with the
//	                node's own spans (stage:QP … stage:MERGE, and the
//	                sub-tasks its peer ran) beneath it
//
// The root "ask.replay" holds the layer functions run in this process:
//
//	gate.decode     DecodeAskJSON of the request body
//	gate.encode     ProjectAnswers + json.Marshal of the reply
//	qcache.get      Normalize + Get on a 32-entry cache fed the same cycle
//	qa.QP … qa.MERGE  the sequential engine's stage functions, with one
//	                index.retrieve per sub-collection under qa.PR
//	shard.route, shard.retrieve, shard.merge
//	                PlanRoute, RetrieveSubs and MergeSubResults over a K=2
//	                split; on the full-replica workloads these are off the
//	                serving path and price only the shard layer
//
// The replay runs as two passes, the networked asks first: interleaving
// milliseconds of in-process engine work between them would evict the
// SUT's caches and let its threads park, inflating every networked span.

// traceAsks is the least number of asks the replay covers, so a short
// (hot) cycle still gives its means enough samples.
const traceAsks = 300

var qaStages = []string{"QP", "PR", "PS", "PO", "AP", "MERGE"}

// traced is the replay's output: per-layer metrics, the spans, and the
// node time per ask each qa stage covered on the serving path.
type traced struct {
	metrics map[string]float64
	serving map[string]float64
	spans   []obs.Span
	asks    int
}

func runTrace(opts options, w workload, e *qa.Engine, cycle []string, expect []expectation) (traced, error) {
	var out traced
	p, err := startSUT(opts, w)
	if err != nil {
		return out, err
	}
	defer p.close()
	g, err := newGenerator(p.ready.Gate, cycle, expect)
	if err != nil {
		return out, err
	}
	defer g.close()
	pool := live.NewPool(live.PoolConfig{})
	defer pool.Close()
	mux := live.NewMuxTransport(live.MuxConfig{}, pool)
	defer mux.Close()

	askDirect := func(addr, q string, spans bool) (*live.Response, error) {
		req := live.AskRequest(q)
		req.WantSpans = spans
		r, err := mux.Call(addr, req, 30*time.Second)
		if err == nil && r.Err != "" {
			err = fmt.Errorf("ask %q via %s: %s", q, addr, r.Err)
		}
		return r, err
	}
	// Warm-up: one cycle through the gateway, each question also asked of
	// both nodes directly, so each node's cache holds whatever the workload
	// keeps hot — the paired direct asks go to the node the gateway did not
	// pick, and must find the same cache state there.
	var buf bytes.Buffer
	local := qcache.New(32, live.DefaultAnswerCacheTTL)
	for i, q := range cycle {
		if !g.ask(i, &buf) {
			return out, fmt.Errorf("traced warm-up: ask %q failed", q)
		}
		for _, addr := range p.ready.Nodes {
			if _, err := askDirect(addr, q, false); err != nil {
				return out, err
			}
		}
		cacheGet(local, q)
	}
	n := (traceAsks + len(cycle) - 1) / len(cycle) * len(cycle)
	out.asks = n

	// An untraced pass is the baseline for the tracing overhead.
	var plain []float64
	for k := 0; k < n; k++ {
		t0 := time.Now()
		if !g.ask(k, &buf) {
			return out, fmt.Errorf("untraced replay: ask %q failed", cycle[k%len(cycle)])
		}
		plain = append(plain, ms(time.Since(t0)))
	}

	rec := obs.NewRecorder("benchmark", 1<<20)
	serving := make(map[string]time.Duration) // node time covered by each stage
	qids := make([]int64, n)
	replies := make([]*live.Response, n)
	for k := range qids {
		i := k % len(cycle)
		root := rec.StartSpan("ask", "", obs.SpanContext{})
		ctx := root.Context()
		qids[k] = ctx.QID
		span := rec.StartSpan("gate.http", "", ctx)
		ok := g.ask(i, &buf)
		span.End()
		var res gate.AskResult
		if !ok || json.Unmarshal(buf.Bytes(), &res) != nil {
			return out, fmt.Errorf("traced replay: ask %q failed", cycle[i])
		}
		other := p.ready.Nodes[0]
		if res.ServedBy == other {
			other = p.ready.Nodes[1]
		}
		span = rec.StartSpan("live.mux", "", ctx)
		r, err := askDirect(other, cycle[i], true)
		muxSpan := span.End()
		if err != nil {
			return out, err
		}
		if !expect[i].acceptsAnswers(r.Answers) {
			return out, fmt.Errorf("direct ask %q via %s: unexpected answers", cycle[i], other)
		}
		byStage, err := recordServe(rec, muxSpan, r)
		if err != nil {
			return out, fmt.Errorf("direct ask %q via %s: %w", cycle[i], other, err)
		}
		for st, d := range byStage {
			serving[st] += d
		}
		replies[k] = r
		root.End()
	}

	total := len(e.Coll.Subs)
	sums := make([]shard.Summary, shardK)
	for s := range sums {
		if sums[s], err = shard.BuildSummary(e.Set, s, shard.SubsOf(s, shardK, total), shard.SummaryOptions{}); err != nil {
			return out, err
		}
	}
	lookup := func(s int) (*shard.Summary, bool) { return &sums[s], true }
	var retrieved, accepted, legs int
	for k, qid := range qids {
		i, q, r := k%len(cycle), cycle[k%len(cycle)], replies[k]
		root := rec.StartSpan("ask.replay", "", obs.SpanContext{QID: qid})
		ctx := root.Context()

		span := rec.StartSpan("gate.decode", "", ctx)
		_, err = gate.DecodeAskJSON(g.bodies[i])
		span.End()
		if err != nil {
			return out, err
		}
		span = rec.StartSpan("gate.encode", "", ctx)
		_, err = json.Marshal(&gate.AskResult{Answers: gate.ProjectAnswers(r.Answers), ServedBy: r.ServedBy, NodeMS: r.ElapsedMS})
		span.End()
		if err != nil {
			return out, err
		}
		span = rec.StartSpan("qcache.get", "", ctx)
		cacheGet(local, q)
		span.End()

		span = rec.StartSpan("qa.QP", obs.StageQP, ctx)
		a, _ := e.QuestionProcessing(q)
		span.End()
		span = rec.StartSpan("qa.PR", obs.StagePR, ctx)
		var rs []index.Retrieved
		for _, sub := range e.Set.Globals() {
			s := rec.StartSpan("index.retrieve", "", span.Context())
			part, _ := e.Set.Sub(sub).RetrieveParagraphs(a.Keywords)
			s.End()
			rs = append(rs, part...)
		}
		span.End()
		span = rec.StartSpan("qa.PS", obs.StagePS, ctx)
		scored, _ := e.ScoreParagraphs(a, rs)
		span.End()
		span = rec.StartSpan("qa.PO", obs.StagePO, ctx)
		acc, _ := e.OrderParagraphs(scored)
		span.End()
		span = rec.StartSpan("qa.AP", obs.StageAP, ctx)
		answers, _ := e.ExtractAnswers(a, acc)
		span.End()
		span = rec.StartSpan("qa.MERGE", obs.StageMerge, ctx)
		final, _ := e.MergeAnswerSets([][]qa.Answer{answers})
		span.End()
		if !bytes.Equal(answersJSON(final), expect[i].grouped[0]) {
			return out, fmt.Errorf("replayed pipeline disagrees with the oracle on %q", q)
		}
		retrieved += len(rs)
		accepted += len(acc)

		span = rec.StartSpan("shard.route", "", ctx)
		plan := shard.PlanRoute(shardK, a.Keywords, lookup)
		span.End()
		legs += len(plan.Scatter)
		span = rec.StartSpan("shard.retrieve", "", ctx)
		var subResults []shard.SubResult
		var want []int
		for _, s := range plan.Scatter {
			subs := shard.SubsOf(s, shardK, total)
			part, err := shard.RetrieveSubs(e, a.Keywords, subs)
			if err != nil {
				return out, err
			}
			subResults = append(subResults, part...)
			want = append(want, subs...)
		}
		span.End()
		sort.Ints(want)
		span = rec.StartSpan("shard.merge", "", ctx)
		_, _, _, err = shard.MergeSubResults(e, subResults, want)
		span.End()
		if err != nil {
			return out, err
		}
		root.End()
	}

	out.spans = rec.Snapshot()
	spent := make(map[string]time.Duration)
	for _, s := range out.spans {
		spent[s.Name] += s.Duration()
	}
	per := func(name string, unit time.Duration) float64 {
		return float64(spent[name]) / float64(unit) / float64(n)
	}
	m := map[string]float64{
		"gate.http_ms":         per("gate.http", time.Millisecond),
		"gate.decode_us":       per("gate.decode", time.Microsecond),
		"gate.encode_us":       per("gate.encode", time.Microsecond),
		"live.serve_ms":        per("live.serve", time.Millisecond),
		"qcache.get_us":        per("qcache.get", time.Microsecond),
		"index.retrieve_ms":    per("index.retrieve", time.Millisecond),
		"shard.route_us":       per("shard.route", time.Microsecond),
		"shard.retrieve_ms":    per("shard.retrieve", time.Millisecond),
		"shard.merge_us":       per("shard.merge", time.Microsecond),
		"shard.legs_per_ask":   float64(legs) / float64(n),
		"qa.retrieved_per_ask": float64(retrieved) / float64(n),
		"qa.accepted_per_ask":  float64(accepted) / float64(n),
	}
	muxMS := per("live.mux", time.Millisecond)
	m["gate.edge_ms"] = m["gate.http_ms"] - muxMS
	m["live.transport_ms"] = muxMS - m["live.serve_ms"]
	qaSum, stages := 0.0, 0.0
	out.serving = make(map[string]float64)
	for _, st := range qaStages {
		v := per("qa."+st, time.Millisecond)
		m["qa."+strings.ToLower(st)+"_ms"] = v
		qaSum += v
		out.serving[st] = float64(serving[st]) / float64(time.Millisecond) / float64(n)
		stages += out.serving[st]
	}
	m["live.sched_ms"] = m["live.serve_ms"] - stages
	m["qa.pr_share"] = m["qa.pr_ms"] / qaSum
	m["qa.ap_share"] = (m["qa.ap_ms"] + m["qa.merge_ms"]) / qaSum
	m["trace.overhead_frac"] = m["gate.http_ms"]/mean(plain) - 1
	out.metrics = m
	return out, nil
}

// cacheGet is the answer cache's front: Normalize, Get, Put on a miss.
func cacheGet(c *qcache.Cache, q string) {
	k := qcache.Normalize(q)
	if _, ok := c.Get(k); !ok {
		c.Put(k, struct{}{})
	}
}

// recordServe records under the live.mux span what the node reported: a
// live.serve span as long as its ElapsedMS, ending where the node's root
// span ended, with the node's own spans beneath it. The SUT shares this
// machine's wall clock; each span is clamped into its new parent so the
// tree nests to the nanosecond.
//
// It returns the serving time each qa stage covered. Every instant of the
// node's root span is split evenly among the stage spans open at that
// instant, local stages and the sub-tasks the peer ran alike, so parallel
// work is not counted twice and the stages never sum past the serving
// time. What the stages leave uncovered is live.sched_ms.
func recordServe(rec *obs.Recorder, mux obs.Span, r *live.Response) (map[string]time.Duration, error) {
	var root obs.Span
	for _, s := range r.Spans {
		if s.Parent == 0 {
			root = s
		}
	}
	if root.ID == 0 {
		return nil, fmt.Errorf("reply carries no root span (%d spans)", len(r.Spans))
	}
	elapsed := time.Duration(r.ElapsedMS * float64(time.Millisecond))
	serve := clamp(obs.Span{QID: mux.QID, ID: obs.NewID(), Parent: mux.ID, Name: "live.serve",
		Node: r.ServedBy, Start: root.End.Add(-elapsed), End: root.End}, mux)
	rec.Record(serve)
	parents := map[int64]obs.Span{root.ID: serve}
	// A node records a span when it ends, so children precede parents;
	// walk the tree from the root down.
	for placed := true; placed; {
		placed = false
		for _, s := range r.Spans {
			p, ok := parents[s.Parent]
			if _, done := parents[s.ID]; !ok || done || s.ID == root.ID {
				continue
			}
			s.QID, s.Parent = mux.QID, p.ID
			s = clamp(s, p)
			rec.Record(s)
			parents[s.ID] = s
			placed = true
		}
	}

	var stages []obs.Span
	cuts := []time.Time{root.Start, root.End}
	for _, s := range r.Spans {
		if s.Stage != "" {
			s = clamp(s, root)
			stages = append(stages, s)
			cuts = append(cuts, s.Start, s.End)
		}
	}
	sort.Slice(cuts, func(i, j int) bool { return cuts[i].Before(cuts[j]) })
	covered := make(map[string]time.Duration)
	for i := 1; i < len(cuts); i++ {
		lo, hi := cuts[i-1], cuts[i]
		var open []string
		for _, s := range stages {
			if !s.Start.After(lo) && !s.End.Before(hi) {
				open = append(open, s.Stage)
			}
		}
		for _, st := range open {
			covered[st] += hi.Sub(lo) / time.Duration(len(open))
		}
	}
	return covered, nil
}

// clamp fits s inside parent p.
func clamp(s, p obs.Span) obs.Span {
	if s.Start.Before(p.Start) {
		s.Start = p.Start
	}
	if s.End.After(p.End) {
		s.End = p.End
	}
	if s.End.Before(s.Start) {
		s.End = s.Start
	}
	return s
}

// writeTrace writes the spans as Chrome trace-event JSON.
func writeTrace(path string, spans []obs.Span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteChromeJSON(f, obs.ChromeFromSpans(spans)); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printLedger prints the two ledger identities and, on the cold fact cycle,
// the module split beside the paper's Table 2: the share of the serving
// path each stage covered on the node, and the share of the sequential
// replay of the stage functions, which is how the paper measured it.
func printLedger(out io.Writer, w workload, m, serving map[string]float64, asks int) {
	qaSum, stages := 0.0, 0.0
	for _, st := range qaStages {
		qaSum += m["qa."+strings.ToLower(st)+"_ms"]
		stages += serving[st]
	}
	fmt.Fprintf(out, "ledger (unloaded, mean per ask over %d asks):\n", asks)
	fmt.Fprintf(out, "  gate.http_ms %.4f = gate.edge_ms %.4f + live.transport_ms %.4f + live.serve_ms %.4f\n",
		m["gate.http_ms"], m["gate.edge_ms"], m["live.transport_ms"], m["live.serve_ms"])
	fmt.Fprintf(out, "  live.serve_ms %.4f = Σ serving-path qa stages %.4f + live.sched_ms %.4f\n",
		m["live.serve_ms"], stages, m["live.sched_ms"])
	fmt.Fprintf(out, "   serving-path stages:")
	for _, st := range qaStages {
		fmt.Fprintf(out, " %s %.4f", st, serving[st])
	}
	fmt.Fprintf(out, "\n   sequential replay: Σ qa.*_ms %.4f\n", qaSum)
	if w.cycle != "cold" {
		return
	}
	paper := map[string][2]string{
		"QP": {"1.1", "1.2"}, "PR": {"44.4", "26.5"}, "PS": {"5.4", "2.2"},
		"PO": {"0.1", "0.1"}, "AP": {"48.7", "69.7"},
	}
	fmt.Fprintf(out, "Table 2, share of module time (AP includes answer merging, as in the paper):\n")
	fmt.Fprintf(out, "  %-6s %12s %12s %14s %14s\n", "module", "serving path", "replay", "paper TREC-8", "paper TREC-9")
	for _, st := range []string{"QP", "PR", "PS", "PO", "AP"} {
		v, live := m["qa."+strings.ToLower(st)+"_ms"], serving[st]
		if st == "AP" {
			v += m["qa.merge_ms"]
			live += serving["MERGE"]
		}
		fmt.Fprintf(out, "  %-6s %10.1f %% %10.1f %% %12s %% %12s %%\n", st, 100*live/stages, 100*v/qaSum, paper[st][0], paper[st][1])
	}
}
