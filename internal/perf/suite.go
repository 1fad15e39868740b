// The standard suite: the four baseline/candidate pairs proving out this
// PR's hot-path optimisations, runnable from qabench -perf.
package perf

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"distqa/internal/corpus"
	"distqa/internal/gate"
	"distqa/internal/index"
	"distqa/internal/live"
	"distqa/internal/nlp"
	"distqa/internal/qa"
	"distqa/internal/shard"
	"distqa/internal/wire"
)

// SuiteConfig tunes the standard suite.
type SuiteConfig struct {
	// Corpus is the collection configuration benchmarked against
	// (default corpus.Tiny(); use corpus.TREC8Like() for paper scale).
	Corpus corpus.Config
	// Budget is the wall-clock measuring time per benchmark (default 1s).
	Budget time.Duration
	// Workers is the parallel engine's fan-out (default 8).
	Workers int
	// Log, when non-nil, receives progress lines as the suite runs.
	Log io.Writer
}

func (c *SuiteConfig) defaults() {
	if c.Corpus.SubCollections == 0 {
		c.Corpus = corpus.Tiny()
	}
	if c.Budget <= 0 {
		c.Budget = time.Second
	}
	if c.Workers <= 0 {
		c.Workers = 8
	}
}

func (c *SuiteConfig) logf(format string, args ...any) {
	if c.Log != nil {
		fmt.Fprintf(c.Log, format, args...)
	}
}

// RunSuite executes the standard benchmark suite and returns its report:
//
//	rpc_oneshot / rpc_pooled            — connection-per-request vs pooled gob RPC
//	retrieve_uncached / retrieve_cached — Boolean retrieval without/with relaxation memo
//	retrieve_plain / retrieve_compressed — multi-block Boolean retrieval, plain sorted-slice vs compressed skip-indexed core (plus index_bytes_plain/index_bytes_compressed size rows)
//	pr_ps_sequential / pr_ps_parallel   — retrieval+scoring stages, 1 vs N workers
//	ask_sequential / ask_parallel       — full pipeline, 1 vs N workers
//	codec_gob_roundtrip / codec_wire_roundtrip — RPC message encode+decode, gob vs binary wire codec
//	pool_rpc_16 / mux_rpc_16            — 16 concurrent PR sub-tasks, pooled gob vs multiplexed binary conn
//	ask_cold / ask_cached               — paper-scale question over pooled loopback RPC, cache-disabled vs answer-cache hit
//	ask_full_replica / ask_sharded      — full pipeline over pooled RPC, full index vs K=2 scatter-gather
//	ask_sharded_scatter / ask_sharded_selective — K=4 scatter-gather on a shard-local workload, full fan-out vs summary-routed skips
func RunSuite(cfg SuiteConfig) (*Report, error) {
	cfg.defaults()
	r := NewReport()

	cfg.logf("building collection %q and indexes...\n", cfg.Corpus.Name)
	coll := corpus.Generate(cfg.Corpus)
	set := index.BuildAll(coll)
	seq := qa.NewEngine(coll, set)
	par := *seq
	par.Workers = cfg.Workers

	questions := make([]string, 0, 8)
	analyses := make([]nlp.QuestionAnalysis, 0, 8)
	for i := 0; i < 8 && i < len(coll.Facts); i++ {
		questions = append(questions, coll.Facts[i].Question)
		analyses = append(analyses, nlp.AnalyzeQuestion(coll.Facts[i].Question))
	}
	if len(questions) == 0 {
		return nil, fmt.Errorf("perf: collection %q has no fact questions", coll.Name)
	}

	// --- RPC: one-shot vs pooled, against a real node on loopback.
	cfg.logf("starting loopback node for RPC benchmarks...\n")
	node, err := live.StartNode(live.NodeConfig{
		Addr:           "127.0.0.1:0",
		Engine:         seq,
		HeartbeatEvery: time.Hour, // keep the wire quiet while measuring
		RequestTimeout: 10 * time.Second,
	})
	if err != nil {
		return nil, fmt.Errorf("perf: start node: %w", err)
	}
	defer node.Close()

	cfg.logf("bench rpc_oneshot...\n")
	r.Run("rpc_oneshot", cfg.Budget, func() {
		if _, err := live.QueryStatus(node.Addr(), 5*time.Second); err != nil {
			panic(fmt.Sprintf("rpc_oneshot: %v", err))
		}
	})
	pool := live.NewPool(live.PoolConfig{})
	defer pool.Close()
	cfg.logf("bench rpc_pooled...\n")
	r.Run("rpc_pooled", cfg.Budget, func() {
		if _, err := pool.QueryStatus(node.Addr(), 5*time.Second); err != nil {
			panic(fmt.Sprintf("rpc_pooled: %v", err))
		}
	})

	// --- Boolean retrieval: relaxation memo off vs on. A dedicated index
	// pair keeps cache state out of the engine benchmarks below.
	uncachedIx := index.Build(coll, 0)
	uncachedIx.SetRelaxCacheCap(0)
	cachedIx := index.Build(coll, 0)
	for _, a := range analyses {
		cachedIx.RetrieveParagraphs(a.Keywords) // warm the memo
	}
	i := 0
	cfg.logf("bench retrieve_uncached...\n")
	r.Run("retrieve_uncached", cfg.Budget, func() {
		uncachedIx.RetrieveParagraphs(analyses[i%len(analyses)].Keywords)
		i++
	})
	i = 0
	cfg.logf("bench retrieve_cached...\n")
	r.Run("retrieve_cached", cfg.Budget, func() {
		cachedIx.RetrieveParagraphs(analyses[i%len(analyses)].Keywords)
		i++
	})

	// --- Compressed postings core (PR-10): the plain sorted-slice core vs
	// the block-compressed, skip-indexed core, over a collection deep enough
	// that frequent stems span many 128-doc posting blocks (the suite corpus
	// tops out at one block per list, where the two cores share almost every
	// code path). Each query pairs one high-df stem — a multi-block list the
	// intersection skip-seeks across — with two mid-df stems, the shape
	// question analysis produces. Both relaxation memos are off so every op
	// prices the decode + intersection, not a cache hit. The same two indexes
	// also report their exact postings footprints (PostingsBytes) as
	// deterministic size rows; CheckSizes gates the ≥2x compression floor on
	// that pair.
	cfg.logf("building multi-block collection for the compressed-core benchmarks...\n")
	deepCfg := cfg.Corpus
	deepCfg.Name = cfg.Corpus.Name + "-deep"
	if deepCfg.DocsPerSub < 300 {
		deepCfg.DocsPerSub = 300
	}
	deepColl := corpus.Generate(deepCfg)
	plainIx := index.BuildWith(deepColl, 0, index.IndexOptions{Compressed: false})
	compIx := index.BuildWith(deepColl, 0, index.IndexOptions{Compressed: true})
	plainIx.SetRelaxCacheCap(0)
	compIx.SetRelaxCacheCap(0)
	type dfTerm struct {
		stem string
		df   int
	}
	var terms []dfTerm
	plainIx.EachTerm(func(stem string, df int) { terms = append(terms, dfTerm{stem, df}) })
	sort.Slice(terms, func(a, b int) bool {
		if terms[a].df != terms[b].df {
			return terms[a].df > terms[b].df
		}
		return terms[a].stem < terms[b].stem
	})
	mid := len(terms) / 3
	if len(terms) < mid+16 || terms[0].df <= wire.PostingBlockSize {
		return nil, fmt.Errorf("perf: collection %q too shallow for a multi-block retrieval measurement (top df %d, %d stems)",
			deepColl.Name, terms[0].df, len(terms))
	}
	kwSets := make([][]string, 8)
	for q := range kwSets {
		kwSets[q] = []string{terms[q%4].stem, terms[mid+2*q].stem, terms[mid+2*q+1].stem}
	}
	i = 0
	cfg.logf("bench retrieve_plain...\n")
	r.Run("retrieve_plain", cfg.Budget, func() {
		plainIx.RetrieveParagraphs(kwSets[i%len(kwSets)])
		i++
	})
	i = 0
	cfg.logf("bench retrieve_compressed...\n")
	r.Run("retrieve_compressed", cfg.Budget, func() {
		compIx.RetrieveParagraphs(kwSets[i%len(kwSets)])
		i++
	})
	r.AddSize("index_bytes_plain", plainIx.PostingsBytes())
	r.AddSize("index_bytes_compressed", compIx.PostingsBytes())

	// --- PR+PS stages and full pipeline: sequential vs parallel engine.
	stage := func(e *qa.Engine) func() {
		j := 0
		return func() {
			a := analyses[j%len(analyses)]
			rs, _ := e.RetrieveAll(a)
			e.ScoreParagraphs(a, rs)
			j++
		}
	}
	cfg.logf("bench pr_ps_sequential...\n")
	r.Run("pr_ps_sequential", cfg.Budget, stage(seq))
	cfg.logf("bench pr_ps_parallel...\n")
	r.Run("pr_ps_parallel", cfg.Budget, stage(&par))

	ask := func(e *qa.Engine) func() {
		j := 0
		return func() {
			e.AnswerSequential(questions[j%len(questions)])
			j++
		}
	}
	cfg.logf("bench ask_sequential...\n")
	r.Run("ask_sequential", cfg.Budget, ask(seq))
	cfg.logf("bench ask_parallel...\n")
	r.Run("ask_parallel", cfg.Budget, ask(&par))

	// --- Codec: one RPC exchange (ask request + answers response) encoded
	// and decoded in memory, pooled-gob baseline vs binary wire codec.
	gobOp, wireOp := live.CodecBenchOps()
	cfg.logf("bench codec_gob_roundtrip...\n")
	r.Run("codec_gob_roundtrip", cfg.Budget, gobOp)
	cfg.logf("bench codec_wire_roundtrip...\n")
	r.Run("codec_wire_roundtrip", cfg.Budget, wireOp)

	// --- Transport under concurrency: one op = 16 concurrent PR sub-tasks
	// against the loopback node, pooled gob conns vs one multiplexed binary
	// conn. The node's PR partial cache serves the repeats, so the work per
	// call is small and the transport dominates the measurement — exactly
	// the regime the mux was built for.
	prReq := live.PRSubtaskRequest(analyses[0].Keywords, []int{0})
	fanout := func(call func() error) func() {
		return func() {
			var wg sync.WaitGroup
			errs := make([]error, 16)
			for i := 0; i < 16; i++ {
				i := i
				wg.Add(1)
				go func() {
					defer wg.Done()
					errs[i] = call()
				}()
			}
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					panic(fmt.Sprintf("rpc_16: %v", err))
				}
			}
		}
	}
	cfg.logf("bench pool_rpc_16...\n")
	r.Run("pool_rpc_16", cfg.Budget, fanout(func() error {
		_, err := pool.Call(node.Addr(), prReq, 5*time.Second)
		return err
	}))
	muxFallback := live.NewPool(live.PoolConfig{})
	defer muxFallback.Close()
	mux := live.NewMuxTransport(live.MuxConfig{}, muxFallback)
	defer mux.Close()
	cfg.logf("bench mux_rpc_16...\n")
	r.Run("mux_rpc_16", cfg.Budget, fanout(func() error {
		_, err := mux.Call(node.Addr(), prReq, 5*time.Second)
		return err
	}))
	if st := mux.Stats(); st.Fallbacks > 0 {
		return nil, fmt.Errorf("perf: mux_rpc_16 degraded to the gob pool (%d fallbacks) — not a mux measurement", st.Fallbacks)
	}

	// --- Serving-path cache: a full question at paper scale (TREC8-like
	// collection) over the pooled transport, against a cache-disabled node
	// vs an answer-cache hit. The pooled transport keeps per-request
	// connection setup out of the measurement — through the one-shot Ask
	// helper the dial dominates both sides and hides the cache's effect —
	// and the paper-scale collection prices the cold pipeline realistically.
	cfg.logf("building paper-scale collection for the ask cache benchmarks...\n")
	askColl := corpus.Generate(corpus.TREC8Like())
	askEng := qa.NewEngine(askColl, index.BuildAll(askColl))
	askReq := live.AskRequest(askColl.Facts[0].Question)
	coldNode, err := live.StartNode(live.NodeConfig{
		Addr:           "127.0.0.1:0",
		Engine:         askEng,
		HeartbeatEvery: time.Hour,
		RequestTimeout: 30 * time.Second,
		Cache:          live.CacheConfig{Disabled: true},
	})
	if err != nil {
		return nil, fmt.Errorf("perf: start cache-disabled node: %w", err)
	}
	defer coldNode.Close()
	warmNode, err := live.StartNode(live.NodeConfig{
		Addr:           "127.0.0.1:0",
		Engine:         askEng,
		HeartbeatEvery: time.Hour,
		RequestTimeout: 30 * time.Second,
	})
	if err != nil {
		return nil, fmt.Errorf("perf: start cache-enabled node: %w", err)
	}
	defer warmNode.Close()
	cfg.logf("bench ask_cold...\n")
	r.Run("ask_cold", cfg.Budget, func() {
		resp, err := pool.Call(coldNode.Addr(), askReq, 30*time.Second)
		if err != nil {
			panic(fmt.Sprintf("ask_cold: %v", err))
		}
		if resp.CacheHit {
			panic("ask_cold: cache-disabled node served a cache hit")
		}
	})
	cfg.logf("bench ask_cached...\n")
	// Fill the answer cache before timing starts: the first ask is the cold
	// leader, everything after it must hit.
	if _, err := pool.Call(warmNode.Addr(), askReq, 30*time.Second); err != nil {
		return nil, fmt.Errorf("perf: warm ask: %w", err)
	}
	r.Run("ask_cached", cfg.Budget, func() {
		resp, err := pool.Call(warmNode.Addr(), askReq, 30*time.Second)
		if err != nil {
			panic(fmt.Sprintf("ask_cached: %v", err))
		}
		if !resp.CacheHit {
			panic("ask_cached: response was not a cache hit")
		}
	})

	// --- Sharded scatter-gather vs full replica: a two-node K=2/R=1 cluster
	// serves every ask over the scatter path (half the index local, half one
	// RPC away), measured against a single full-replica node. Caches are
	// disabled on both sides so every op prices the pipeline plus — on the
	// sharded side — the wire fan-out: the cost of halving per-node index
	// memory, which the floor bounds rather than celebrates.
	cfg.logf("starting sharded pair for the scatter-gather benchmarks...\n")
	fullNode, err := live.StartNode(live.NodeConfig{
		Addr:           "127.0.0.1:0",
		Engine:         seq,
		HeartbeatEvery: time.Hour,
		RequestTimeout: 10 * time.Second,
		Cache:          live.CacheConfig{Disabled: true},
	})
	if err != nil {
		return nil, fmt.Errorf("perf: start full-replica node: %w", err)
	}
	defer fullNode.Close()
	shardNodes := make([]*live.Node, 2)
	for i := range shardNodes {
		subs := shard.HoldingSubs(i, 2, 2, 1, len(coll.Subs))
		n, err := live.StartNode(live.NodeConfig{
			Addr:   "127.0.0.1:0",
			Engine: qa.NewEngine(coll, index.BuildSubset(coll, subs)),
			// The shard map rides heartbeats, so they cannot be fully quiet;
			// 100ms keeps map composition prompt while leaving the mux mostly
			// free for the scatter fan-out under measurement.
			HeartbeatEvery: 100 * time.Millisecond,
			RequestTimeout: 10 * time.Second,
			Cache:          live.CacheConfig{Disabled: true},
			Shard:          live.ShardConfig{K: 2, R: 1, NodeIndex: i, ClusterSize: 2},
		})
		if err != nil {
			return nil, fmt.Errorf("perf: start sharded node %d: %w", i, err)
		}
		defer n.Close()
		shardNodes[i] = n
	}
	shardNodes[0].AddPeer(shardNodes[1].Addr())
	shardNodes[1].AddPeer(shardNodes[0].Addr())
	mapDeadline := time.Now().Add(10 * time.Second)
	for {
		st, err := live.QueryStatus(shardNodes[0].Addr(), 2*time.Second)
		if err == nil && st.Shard != nil && st.Shard.Complete {
			break
		}
		if time.Now().After(mapDeadline) {
			return nil, fmt.Errorf("perf: sharded pair never composed a complete shard map")
		}
		time.Sleep(10 * time.Millisecond)
	}
	askVia := func(addr string, qs []string) func() {
		j := 0
		return func() {
			resp, err := pool.Call(addr, live.AskRequest(qs[j%len(qs)]), 10*time.Second)
			if err != nil {
				panic(fmt.Sprintf("ask via %s: %v", addr, err))
			}
			if resp.Err != "" {
				panic(fmt.Sprintf("ask via %s: %s", addr, resp.Err))
			}
			j++
		}
	}
	cfg.logf("bench ask_full_replica...\n")
	r.Run("ask_full_replica", cfg.Budget, askVia(fullNode.Addr(), questions))
	cfg.logf("bench ask_sharded...\n")
	r.Run("ask_sharded", cfg.Budget, askVia(shardNodes[0].Addr(), questions))

	// --- Selective routing vs full scatter (PR-7): two K=4/R=1 four-node
	// clusters sharing the same shard-scoped engines, one pinned to full
	// scatter and one with summary routing on, measured over a *shard-local*
	// workload (every question's keywords occur in exactly one shard, so
	// fresh summaries let the router skip the other three). This is the
	// workload the federated-search literature says selection pays off on;
	// the mixed-workload cost stays covered by ask_sharded above. The nodes
	// measured above are closed first (Close is idempotent, so the deferred
	// closes stay safe): on a single-proc runner an unrelated cluster's
	// heartbeat and gossip traffic lands on the same core as the measurement
	// and flattens exactly the fan-out difference this comparison exists to
	// see. The two K=4 twins themselves stay up together — their heartbeat
	// load is symmetric across the pair of rows, unlike measurement drift.
	fullNode.Close()
	for _, sn := range shardNodes {
		sn.Close()
	}
	cfg.logf("starting K=4 clusters for the selective routing benchmarks...\n")
	localQs := shardLocalQuestions(set, coll, 4)
	if len(localQs) == 0 {
		return nil, fmt.Errorf("perf: collection %q has no shard-local vocabulary for the selective workload", coll.Name)
	}
	k4Engines := make([]*qa.Engine, 4)
	for i := range k4Engines {
		subs := shard.HoldingSubs(i, 4, 4, 1, len(coll.Subs))
		k4Engines[i] = qa.NewEngine(coll, index.BuildSubset(coll, subs))
	}
	startK4 := func(routingOff bool) ([]*live.Node, error) {
		nodes := make([]*live.Node, 4)
		for i := range nodes {
			n, err := live.StartNode(live.NodeConfig{
				Addr:           "127.0.0.1:0",
				Engine:         k4Engines[i],
				HeartbeatEvery: 100 * time.Millisecond,
				RequestTimeout: 10 * time.Second,
				Cache:          live.CacheConfig{Disabled: true},
				Shard: live.ShardConfig{
					K: 4, R: 1, NodeIndex: i, ClusterSize: 4,
					Routing: live.RoutingConfig{Disabled: routingOff},
				},
			})
			if err != nil {
				return nil, fmt.Errorf("perf: start K=4 node %d: %w", i, err)
			}
			nodes[i] = n
		}
		for i, a := range nodes {
			for j, b := range nodes {
				if i != j {
					a.AddPeer(b.Addr())
				}
			}
		}
		return nodes, nil
	}
	waitComplete := func(addr, label string) error {
		deadline := time.Now().Add(10 * time.Second)
		for {
			st, err := live.QueryStatus(addr, 2*time.Second)
			if err == nil && st.Shard != nil && st.Shard.Complete {
				return nil
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("perf: %s cluster never composed a complete shard map", label)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	// Both rows ride the mux transport — the binary codec every inter-node
	// call uses — so client-side encode prices the serving path, not gob.
	// One sequential client, so the rows measure the latency regime: each
	// fan-out leg's wire cost lands on the critical path instead of being
	// hidden behind concurrent legs or amortized by the mux writer's frame
	// batching. That is the regime where the scatter tax is visible on a
	// tiny corpus, so the time floor on this pair is enforced only at
	// GOMAXPROCS=1 (see check.go: serialFanout); the machine-independent
	// invariant — selective routing does strictly less work per ask — is
	// gated everywhere through the pair's allocation ratio.
	askK4 := live.NewMuxTransport(live.MuxConfig{}, pool)
	defer askK4.Close()
	askViaMux := func(addr string, qs []string) func() {
		j := 0
		return func() {
			resp, err := askK4.Call(addr, live.AskRequest(qs[j%len(qs)]), 10*time.Second)
			if err != nil {
				panic(fmt.Sprintf("ask via %s: %v", addr, err))
			}
			if resp.Err != "" {
				panic(fmt.Sprintf("ask via %s: %s", addr, resp.Err))
			}
			j++
		}
	}
	// Both clusters come up and warm BEFORE either row is measured, and the
	// two measurements run back-to-back. A machine's throughput drifts over
	// seconds (frequency scaling, cgroup bursts); measuring the twins far
	// apart in time folds that drift into the ratio. Adjacent measurements
	// under identical background load (both clusters' heartbeats, which are
	// symmetric) keep the ratio about routing, not about when each row ran.
	scatterK4, err := startK4(true)
	if err != nil {
		return nil, err
	}
	for _, n := range scatterK4 {
		defer n.Close()
	}
	selectiveK4, err := startK4(false)
	if err != nil {
		return nil, err
	}
	for _, n := range selectiveK4 {
		defer n.Close()
	}
	if err := waitComplete(scatterK4[0].Addr(), "K=4 scatter"); err != nil {
		return nil, err
	}
	if err := waitComplete(selectiveK4[0].Addr(), "K=4 selective"); err != nil {
		return nil, err
	}
	// Warm every selective node until its summary view is fresh: gossip
	// pulls ride the heartbeats, and the first routed ask's gather
	// revalidates entries stamped before the map finished composing. Only
	// node 0 coordinates during the measurement, but a forwarded ask can
	// land anywhere, so every view must be routable before the clock starts.
	routeCounters := func() (skips, fallbacks int64, err error) {
		for _, n := range selectiveK4 {
			st, qerr := live.QueryStatus(n.Addr(), 2*time.Second)
			if qerr != nil {
				return 0, 0, fmt.Errorf("perf: selective cluster status via %s: %w", n.Addr(), qerr)
			}
			skips += st.Metrics.RouteSkips
			fallbacks += st.Metrics.RoutePlansFallback
		}
		return skips, fallbacks, nil
	}
	warmDeadline := time.Now().Add(10 * time.Second)
	for {
		fresh := true
		for _, n := range selectiveK4 {
			st, err := live.QueryStatus(n.Addr(), 2*time.Second)
			if err != nil || st.Shard == nil || len(st.Shard.Shards) == 0 {
				fresh = false
				break
			}
			for _, row := range st.Shard.Shards {
				if row.SummaryVersion == 0 || !row.SummaryFresh {
					fresh = false
					break
				}
			}
			if !fresh {
				break
			}
		}
		if fresh {
			break
		}
		if time.Now().After(warmDeadline) {
			return nil, fmt.Errorf("perf: selective cluster summaries never went fresh")
		}
		for _, n := range selectiveK4 {
			askK4.Call(n.Addr(), live.AskRequest(localQs[0]), 10*time.Second)
		}
		time.Sleep(20 * time.Millisecond)
	}
	// Pre-open the scatter coordinator's mux connection so the first measured
	// op doesn't pay the dial.
	for _, q := range localQs {
		if _, err := askK4.Call(scatterK4[0].Addr(), live.AskRequest(q), 10*time.Second); err != nil {
			return nil, fmt.Errorf("perf: warm scatter coordinator: %w", err)
		}
	}
	preSkips, preFallbacks, err := routeCounters()
	if err != nil {
		return nil, err
	}
	cfg.logf("bench ask_sharded_scatter...\n")
	r.Run("ask_sharded_scatter", cfg.Budget, askViaMux(scatterK4[0].Addr(), localQs))
	cfg.logf("bench ask_sharded_selective...\n")
	r.Run("ask_sharded_selective", cfg.Budget, askViaMux(selectiveK4[0].Addr(), localQs))
	postSkips, postFallbacks, err := routeCounters()
	if err != nil {
		return nil, err
	}
	if st := askK4.Stats(); st.Fallbacks > 0 {
		return nil, fmt.Errorf("perf: K=4 ask benchmarks degraded to the gob pool (%d fallbacks) — not a mux measurement", st.Fallbacks)
	}
	if postFallbacks > preFallbacks {
		return nil, fmt.Errorf("perf: ask_sharded_selective fell back to full scatter mid-measurement — not a selective measurement")
	}
	if postSkips <= preSkips {
		return nil, fmt.Errorf("perf: ask_sharded_selective skipped no shards — workload was not shard-local")
	}

	// --- The public front door (PR-8): the same paper-scale cache hit as
	// ask_cached, but through the entire HTTP gateway stack — JSON decode,
	// token bucket, admission, the mux hop to warmNode, JSON encode. The
	// comparison against ask_cached prices pure edge overhead: both sides
	// serve the identical answer from the identical node's cache. The K=4
	// clusters are closed first (Close is idempotent) so their heartbeat
	// traffic stays out of the measurement.
	for _, n := range scatterK4 {
		n.Close()
	}
	for _, n := range selectiveK4 {
		n.Close()
	}
	cfg.logf("starting gateway for the front-door benchmarks...\n")
	gw, err := gate.New(gate.Config{Addr: "127.0.0.1:0", Nodes: []string{warmNode.Addr()}})
	if err != nil {
		return nil, fmt.Errorf("perf: build gateway: %w", err)
	}
	if err := gw.Start(); err != nil {
		return nil, fmt.Errorf("perf: start gateway: %w", err)
	}
	defer gw.Close()
	httpClient := &http.Client{Timeout: 30 * time.Second}
	gateBody, _ := json.Marshal(gate.AskPayload{Question: askColl.Facts[0].Question})
	gateAsk := func() error {
		resp, err := httpClient.Post(gw.URL()+"/v1/ask", "application/json", bytes.NewReader(gateBody))
		if err != nil {
			return err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("status %d", resp.StatusCode)
		}
		return nil
	}
	// Pre-open the gateway's HTTP and mux connections (the answer cache is
	// already warm from ask_cached).
	if err := gateAsk(); err != nil {
		return nil, fmt.Errorf("perf: warm gateway: %w", err)
	}
	cfg.logf("bench gate_ask...\n")
	r.Run("gate_ask", cfg.Budget, func() {
		if err := gateAsk(); err != nil {
			panic(fmt.Sprintf("gate_ask: %v", err))
		}
	})

	for _, c := range []struct{ name, base, cand string }{
		{"rpc: pooled vs one-shot", "rpc_oneshot", "rpc_pooled"},
		{"retrieval: memo vs cold", "retrieve_uncached", "retrieve_cached"},
		// The PR-10 acceptance ratio: block decode + skip-seek intersection
		// against the plain sorted-slice core, same keywords, same corpus.
		{"retrieve: compressed vs plain", "retrieve_plain", "retrieve_compressed"},
		{"pr+ps: parallel vs sequential", "pr_ps_sequential", "pr_ps_parallel"},
		{"ask: parallel vs sequential", "ask_sequential", "ask_parallel"},
		{"codec: wire vs gob", "codec_gob_roundtrip", "codec_wire_roundtrip"},
		{"rpc16: mux vs pool", "pool_rpc_16", "mux_rpc_16"},
		{"ask: cached vs cold", "ask_cold", "ask_cached"},
		{"ask: sharded vs full replica", "ask_full_replica", "ask_sharded"},
		{"ask: selective vs scatter (K=4)", "ask_sharded_scatter", "ask_sharded_selective"},
		// The PR-7 acceptance ratio: the selective stack against the PR-5
		// sharded serving stack (`ask_sharded`, K=2 mixed workload, pooled gob
		// client). The twin comparison above isolates routing under identical
		// conditions; this one prices the end-to-end win of the PR.
		{"ask: selective vs sharded", "ask_sharded", "ask_sharded_selective"},
		// The PR-8 edge-overhead bound: the full HTTP gateway stack against
		// direct pooled RPC, both serving the same cache hit.
		{"ask: gateway vs direct (cached)", "ask_cached", "gate_ask"},
	} {
		if err := r.Compare(c.name, c.base, c.cand); err != nil {
			return nil, err
		}
	}

	// --- Open-loop load (PR-8 acceptance): a deliberately small gateway
	// (2 servers, queue of 4) fronting a cache-disabled full replica, so
	// saturation is reachable at modest offered rates. The serial service
	// time measured through the gateway sets the regimes — sub-threshold at
	// a quarter of capacity must shed ~nothing; over-threshold at 4x with
	// bursty arrivals must shed, keep its queue bounded, and keep the
	// admitted p99 under the bound computed from the service time. Those
	// structural assertions (CheckLoad) are machine-independent because the
	// rates are relative to this run's own capacity.
	// The target is the paper-scale cache-disabled node from the ask_cold
	// benchmark: multi-ms service demand puts the capacity threshold at
	// rates one client process can honestly generate (the tiny corpus's
	// sub-ms asks would put it in the unreachable tens of thousands of qps).
	cfg.logf("starting gateway for the open-loop load runs...\n")
	const loadInflight, loadQueue = 2, 16
	lgw, err := gate.New(gate.Config{
		Addr:        "127.0.0.1:0",
		Nodes:       []string{coldNode.Addr()},
		MaxInflight: loadInflight,
		MaxQueue:    loadQueue,
	})
	if err != nil {
		return nil, fmt.Errorf("perf: build load gateway: %w", err)
	}
	if err := lgw.Start(); err != nil {
		return nil, fmt.Errorf("perf: start load gateway: %w", err)
	}
	defer lgw.Close()
	// Serial calibration: the mean uncached ask time through the gateway,
	// over the same paper-scale questions the schedules will draw from.
	loadQs := make([]string, 0, 8)
	for i := 0; i < 8 && i < len(askColl.Facts); i++ {
		loadQs = append(loadQs, askColl.Facts[i].Question)
	}
	serialAsk := func(q string) error {
		body, _ := json.Marshal(gate.AskPayload{Question: q, TimeoutMS: 30000})
		resp, err := httpClient.Post(lgw.URL()+"/v1/ask", "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("status %d", resp.StatusCode)
		}
		return nil
	}
	if err := serialAsk(loadQs[0]); err != nil { // open conns before timing
		return nil, fmt.Errorf("perf: warm load gateway: %w", err)
	}
	const calibrationOps = 16
	calStart := time.Now()
	for i := 0; i < calibrationOps; i++ {
		if err := serialAsk(loadQs[i%len(loadQs)]); err != nil {
			return nil, fmt.Errorf("perf: calibrate load gateway: %w", err)
		}
	}
	service := time.Since(calStart).Seconds() / calibrationOps
	capacity := float64(loadInflight) / service
	// Bound each schedule's request count so a fast machine (huge capacity)
	// still finishes the runs in a couple of seconds.
	durFor := func(rate float64, maxN int) time.Duration {
		d := 2 * time.Second
		if byCount := time.Duration(float64(maxN) / rate * float64(time.Second)); byCount < d {
			d = byCount
		}
		if d < 250*time.Millisecond {
			d = 250 * time.Millisecond
		}
		return d
	}
	// Sub-threshold sits at 5% utilization: service demand is heavy-tailed,
	// so even modest utilization lets one expensive question briefly back the
	// queue up past its bound and shed — which is exactly what the "over" row
	// demonstrates and the "sub" row must not.
	subRate := 0.05 * capacity
	if subRate < 4 {
		subRate = 4
	}
	overRate := 4 * capacity
	serviceMs := service * 1000
	// Admitted-latency bound: full queue wait plus service with 10x slack,
	// floored at 750ms for loaded single-core runners (the generator, the
	// gateway and the node share the core during the over run). The gate is
	// the shape — a *bounded* queue keeps admitted p99 in this range, while
	// unbounded buffering of a 4x overload would push it into seconds.
	p99Bound := serviceMs * (1 + float64(loadQueue)/float64(loadInflight)) * 10
	if p99Bound < 750 {
		p99Bound = 750
	}
	cfg.logf("load calibration: service %.2fms, capacity %.0f qps (sub %.0f, over %.0f)\n",
		serviceMs, capacity, subRate, overRate)
	subRes, err := gate.RunLoad(gate.LoadConfig{
		BaseURL: lgw.URL(), Questions: loadQs,
		Rate: subRate, Duration: durFor(subRate, 1000),
		Arrivals: "poisson", Seed: 1, TimeoutMS: 30000,
	})
	if err != nil {
		return nil, fmt.Errorf("perf: sub-threshold load run: %w", err)
	}
	overRes, err := gate.RunLoad(gate.LoadConfig{
		BaseURL: lgw.URL(), Questions: loadQs,
		Rate: overRate, Duration: durFor(overRate, 1500),
		Arrivals: "burst", Seed: 2, TimeoutMS: 30000,
	})
	if err != nil {
		return nil, fmt.Errorf("perf: over-threshold load run: %w", err)
	}
	toRow := func(name, regime string, res gate.LoadResult, bound float64) LoadRow {
		return LoadRow{
			Name: name, Regime: regime, Arrivals: res.Arrivals,
			OfferedQPS: res.OfferedQPS, AchievedQPS: res.AchievedQPS,
			Sent: res.Sent, OK: res.OK, Shed: res.Shed,
			Timeouts: res.Timeouts, Errors: res.Errors, ShedRate: res.ShedRate,
			P50Ms: res.P50Ms, P99Ms: res.P99Ms,
			QueuePeak: res.QueuePeak, QueueBound: res.QueueBound,
			ServiceMs: serviceMs, P99BoundMs: bound, DurationS: res.DurationS,
		}
	}
	r.Load = append(r.Load,
		toRow("gate_sub", "sub", subRes, 0),
		toRow("gate_over", "over", overRes, p99Bound))
	return r, nil
}

// shardLocalQuestions synthesizes one "Tell me about <word>?" question per
// shard of the K-way split whose keywords occur *only* inside that shard —
// the selective-routing workload: with fresh summaries, the router provably
// skips every other shard. Mirrors the shard package's routed-equivalence
// test helper.
func shardLocalQuestions(set *index.Set, coll *corpus.Collection, k int) []string {
	total := len(coll.Subs)
	var qs []string
	for s := 0; s < k; s++ {
		inShard := make(map[int]bool)
		for _, sub := range shard.SubsOf(s, k, total) {
			inShard[sub] = true
		}
		absentOutside := func(stem string) bool {
			for sub := 0; sub < total; sub++ {
				if !inShard[sub] && set.Sub(sub).DocFreq(stem) > 0 {
					return false
				}
			}
			return true
		}
		found := false
		for sub := 0; sub < total && !found; sub++ {
			if !inShard[sub] {
				continue
			}
			for _, doc := range coll.Subs[sub].Docs {
				for _, p := range doc.Paragraphs {
					for _, tok := range p.Tokens {
						if tok.Stem == "" || len(tok.Text) < 4 {
							continue
						}
						if set.Sub(sub).DocFreq(tok.Stem) == 0 || !absentOutside(tok.Stem) {
							continue
						}
						q := "Tell me about " + tok.Text + "?"
						a := nlp.AnalyzeQuestion(q)
						hit, clean := false, len(a.Keywords) > 0
						for _, kw := range a.Keywords {
							if kw == tok.Stem {
								hit = true
							}
							if !absentOutside(kw) {
								clean = false
								break
							}
						}
						if hit && clean {
							qs = append(qs, q)
							found = true
							break
						}
					}
					if found {
						break
					}
				}
				if found {
					break
				}
			}
		}
	}
	return qs
}
