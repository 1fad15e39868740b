package live

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"distqa/internal/index"
	"distqa/internal/nlp"
	"distqa/internal/obs"
	"distqa/internal/qa"
	"distqa/internal/qcache"
)

// handleAsk wraps the full serving path with the PR-6 observability plane:
// it times the whole question (cache front included), feeds the "ask" SLO
// window, and offers the completed record — span tree plus annotations — to
// the slow-question flight recorder.
func (n *Node) handleAsk(req *Request) *Response {
	start := time.Now()
	resp := n.serveAsk(req)
	dur := time.Since(start)
	var qid int64
	if len(resp.Spans) > 0 {
		// Every span in a question's tree shares its QID; cache hits and
		// coalesced followers open marker spans, so the tree is never empty.
		qid = resp.Spans[0].QID
	}
	n.slo.Observe("ask", dur.Seconds(), qid, resp.Err != "")
	// ShouldConsider gates the record build itself: once the ring is full of
	// genuinely slow questions, a cache-hit ask must not pay for a span-tree
	// copy and annotation formatting it would only throw away.
	if qid != 0 && n.flight.ShouldConsider(dur) {
		rec := obs.QuestionRecord{
			QID:      qid,
			Question: req.Question,
			Node:     n.Addr(),
			Err:      resp.Err,
			Start:    start,
			Duration: dur,
			Spans:    append([]obs.Span(nil), resp.Spans...),
		}
		if resp.CacheHit {
			rec.Annotations = append(rec.Annotations, "cache-hit")
		}
		if resp.Coalesced {
			rec.Annotations = append(rec.Annotations, "coalesced")
		}
		if resp.Forwarded {
			rec.Annotations = append(rec.Annotations, "forwarded")
		}
		if n.sharded() {
			rec.Annotations = append(rec.Annotations, fmt.Sprintf("shards=%d", n.shardK))
		}
		recovers, routeSkips, routeFallbacks := 0, 0, 0
		for i := range resp.Spans {
			switch name := resp.Spans[i].Name; {
			case strings.HasPrefix(name, "recover:"):
				recovers++
			case strings.HasPrefix(name, "route:skip"):
				routeSkips++
			case strings.HasPrefix(name, "route:fallback"):
				routeFallbacks++
			}
		}
		if recovers > 0 {
			rec.Annotations = append(rec.Annotations, fmt.Sprintf("recoveries=%d", recovers))
		}
		// Routing verdicts explain the fan-out width: a wide scatter with
		// fallbacks is gossip lag or an epoch bump, not a routing miss.
		if routeSkips > 0 {
			rec.Annotations = append(rec.Annotations, fmt.Sprintf("routeSkips=%d", routeSkips))
		}
		if routeFallbacks > 0 {
			rec.Annotations = append(rec.Annotations, fmt.Sprintf("routeFallbacks=%d", routeFallbacks))
		}
		n.flight.Consider(rec)
	}
	if !req.WantSpans && len(resp.Spans) > 0 {
		// The tree was server-side payload (SLO window, flight recorder,
		// annotations above); drop it from the wire unless the client asked
		// to trace. Strip on a copy — a coalesced leader's Response is shared
		// with followers still reading it.
		stripped := *resp
		stripped.Spans = nil
		return &stripped
	}
	return resp
}

// serveAsk is the cache-and-coalesce front of the question path (PR-4):
// an answer-cache hit skips the entire pipeline (no admission, no QP, no
// fan-out); a miss runs the pipeline under a singleflight group so a burst
// of identical questions executes once — the leader runs askPipeline, every
// concurrent duplicate blocks and shares the result (Response.Coalesced).
// With caching disabled (chaos runs), this is a transparent passthrough to
// the PR-3 serving path.
func (n *Node) serveAsk(req *Request) *Response {
	start := time.Now()
	if n.askFlight == nil {
		return n.askPipeline(req, start)
	}
	key := qcache.Normalize(req.Question)
	if n.sharded() {
		// Scope answer-cache entries by the shard-map epoch: a cached answer
		// encodes which replicas served it, and after a placement change
		// (node death, re-admission) stale-epoch entries must miss rather
		// than mask the new topology. The epoch prefix makes rejection
		// structural — old entries simply stop being addressable and age out
		// of the LRU.
		key = "e" + strconv.FormatInt(n.shardMap().Epoch, 10) + "|" + key
	}
	if v, ok := n.answerCache.Get(key); ok {
		n.nm.cacheAnsHits.Inc()
		return n.cachedResponse(req, v.(*cachedAnswer), start, false)
	}
	n.nm.cacheAnsMisses.Inc()
	type flightOut struct {
		resp *Response
		ca   *cachedAnswer
	}
	v, shared, _ := n.askFlight.Do(key, func() (any, error) {
		resp := n.askPipeline(req, start)
		var ca *cachedAnswer
		if resp.Err == "" {
			ca = &cachedAnswer{answers: resp.Answers, apPeers: resp.APPeers}
			n.answerCache.Put(key, ca)
		}
		return flightOut{resp: resp, ca: ca}, nil
	})
	out := v.(flightOut)
	if !shared {
		return out.resp
	}
	// Coalesced follower: synthesize a response of its own (its own span
	// tree and timing) around the leader's answers.
	n.nm.cacheAnsCoalesced.Inc()
	if out.ca == nil {
		// The leader failed; hand the follower the same failure.
		r := *out.resp
		r.Coalesced = true
		return &r
	}
	return n.cachedResponse(req, out.ca, start, true)
}

// askPipeline drives a full question: question-dispatcher forwarding, local
// QP/PR/PS/PO, AP partitioning across under-loaded peers, and answer
// merging. It is the live counterpart of core.System.answer.
//
// Observability: the whole question runs under one span tree. The root
// "ask" span joins req.Span when the question was forwarded here (so the
// originating node's tree continues on this node); every pipeline stage and
// every remote sub-task becomes a child span, and the completed tree —
// including spans recorded on *other* nodes and shipped back in sub-task
// responses — travels to the client in Response.Spans.
func (n *Node) askPipeline(req *Request, start time.Time) *Response {
	// Per-question deadline budget: every remote call this question makes
	// (forward, PR sub-tasks, AP sub-tasks), including retries and
	// backoffs, shares this one allowance. When it runs out, remaining
	// remote work degrades to local execution immediately. An edge deadline
	// (Request.TimeoutMS, set by the gateway) clamps the budget further, so
	// ShardPR scatter legs and PR/AP sub-tasks never outlive the client.
	budget := start.Add(n.retryPolicy.Budget)
	var edge time.Time
	if req.TimeoutMS > 0 {
		edge = start.Add(time.Duration(req.TimeoutMS) * time.Millisecond)
		if edge.Before(budget) {
			budget = edge
		}
	}
	root := n.spans.StartSpan("ask", "", req.Span)
	ctx := root.Context()
	if req.Forwarded {
		n.nm.forwardsIn.Inc()
	}

	// Scheduling point 1: forward to a clearly less-loaded peer, once. The
	// candidate set excludes suspect/dead/breaker-open peers, and a failed
	// forward degrades gracefully to local execution (the same local
	// fallback the PR/AP sub-tasks have always had).
	if !req.Forwarded {
		if target, ok := n.pickLighterPeer(); ok {
			fwd := *req
			fwd.Forwarded = true
			if !edge.IsZero() {
				// The forwarded request carries the budget *remaining* at
				// forward time, so the serving node's clamp lands on the same
				// wall-clock instant as ours.
				remaining := time.Until(edge).Milliseconds()
				if remaining < 1 {
					remaining = 1
				}
				fwd.TimeoutMS = remaining
			}
			// The forwarding node always wants the remote tree back: it adopts
			// the spans into its own ring (flight recorder, local qactl -slow)
			// and handleAsk re-strips per the original client's WantSpans.
			fwd.WantSpans = true
			fwdSpan := n.spans.StartSpan("forward", "", ctx)
			fwd.Span = fwdSpan.Context()
			fwdStart := time.Now()
			if resp, err := n.callPeer(target, &fwd, budget, 0); err == nil {
				n.slo.Observe("forward", time.Since(fwdStart).Seconds(), ctx.QID, false)
				n.nm.forwardsOut.Inc()
				resp.Forwarded = true
				// Adopt the remote tree locally (for this node's span view),
				// close our spans, and ship the full tree to the client.
				for _, s := range resp.Spans {
					n.spans.Record(s)
				}
				fs := fwdSpan.End()
				rs := root.End()
				resp.Spans = append(resp.Spans, fs, rs)
				return resp
			}
			// The peer died between heartbeat and forward; serve locally.
			// Blame the specific peer so the chaos harness can attribute
			// the recovery (the marker span keeps it visible in traces).
			n.slo.Observe("forward", time.Since(fwdStart).Seconds(), ctx.QID, true)
			n.nm.failForward.Inc()
			n.spans.StartSpan("recover:forward peer="+target, "", fwdSpan.Context()).End()
			fwdSpan.End()
		}
	}

	// Admission: at most MaxConcurrent simultaneous questions. A question
	// with an edge deadline waits for a slot only until the deadline — work
	// the client has already abandoned must not occupy a slot.
	n.mu.Lock()
	n.queued++
	n.mu.Unlock()
	n.nm.queueDepth.Inc()
	admitted := true
	if edge.IsZero() {
		n.admit <- struct{}{}
	} else {
		wait := time.NewTimer(time.Until(edge))
		select {
		case n.admit <- struct{}{}:
			wait.Stop()
		case <-wait.C:
			admitted = false
		}
	}
	n.mu.Lock()
	n.queued--
	if admitted {
		n.questions++
	}
	n.mu.Unlock()
	n.nm.queueDepth.Dec()
	if !admitted {
		rs := root.End()
		return &Response{
			Err:       ErrDeadlineMsg,
			ServedBy:  n.Addr(),
			ElapsedMS: float64(time.Since(start).Microseconds()) / 1000,
			Spans:     n.spans.ByQID(rs.QID),
		}
	}
	n.nm.active.Inc()
	defer func() {
		n.mu.Lock()
		n.questions--
		n.mu.Unlock()
		n.nm.active.Dec()
		<-n.admit
	}()

	// QP locally; PR+PS partitioned across idle peers (scheduling point 2);
	// PO centralized here.
	qpSpan := n.spans.StartSpan("stage:QP", obs.StageQP, ctx)
	analysis, _ := n.engine.QuestionProcessing(req.Question)
	qpSpan.End()

	prPart := n.spans.StartSpan("partition:PR", "", ctx)
	var scored []qa.ScoredParagraph
	if n.sharded() {
		// Sharded serving path: scatter one PR sub-task per shard to the
		// least-PR-loaded live replica, failover through survivors, merge.
		var err error
		scored, err = n.scatterPR(analysis, prPart.Context(), budget, int(ctx.QID))
		if err != nil {
			prPart.End()
			rs := root.End()
			return &Response{
				Err:       err.Error(),
				ServedBy:  n.Addr(),
				ElapsedMS: float64(time.Since(start).Microseconds()) / 1000,
				Spans:     n.spans.ByQID(rs.QID),
			}
		}
	} else {
		scored = n.partitionPR(analysis, prPart.Context(), budget)
	}
	prPart.End()

	poSpan := n.spans.StartSpan("stage:PO", obs.StagePO, ctx)
	accepted, _ := n.engine.OrderParagraphs(scored)
	poSpan.End()

	// Scheduling point 3: partition AP across idle peers (plus ourselves).
	apPart := n.spans.StartSpan("partition:AP", "", ctx)
	groups, apPeers := n.partitionAP(analysis, accepted, apPart.Context(), budget)
	apPart.End()

	mergeSpan := n.spans.StartSpan("stage:MERGE", obs.StageMerge, ctx)
	final, _ := n.engine.MergeAnswerSets(groups)
	mergeSpan.End()

	n.nm.questions.Inc()
	n.nm.askSeconds.Observe(time.Since(start).Seconds())
	rs := root.End()

	return &Response{
		Answers:   final,
		ServedBy:  n.Addr(),
		APPeers:   apPeers,
		ElapsedMS: float64(time.Since(start).Microseconds()) / 1000,
		Spans:     n.spans.ByQID(rs.QID),
	}
}

// pickLighterPeer returns a peer whose committed load (running + queued)
// is at least two questions below ours (the anti-useless-migration rule).
// Only detector-alive, breaker-admitting peers are candidates.
func (n *Node) pickLighterPeer() (string, bool) {
	self := n.loadReport()
	selfLoad := self.Questions + self.Queued
	best, bestLoad := "", selfLoad
	for _, p := range n.candidatePeers() {
		if l := p.Questions + p.Queued; l < bestLoad {
			best, bestLoad = p.Addr, l
		}
	}
	if best != "" && selfLoad-bestLoad >= 2 {
		return best, true
	}
	return "", false
}

// partitionPR distributes the sub-collections of paragraph retrieval (and
// its co-located scoring) round-robin across this node and its idle peers.
// A failed remote sub-task is retried locally — the receiver-controlled
// recovery of Figure 6(b), simplified to one round. Local work records
// stage:PR/stage:PS spans; remote work ships its pr-subtask spans back and
// they are adopted under the same parent.
func (n *Node) partitionPR(analysis nlp.QuestionAnalysis, parent obs.SpanContext, budget time.Time) []qa.ScoredParagraph {
	globals := n.engine.Set.Globals()
	nSubs := len(globals)
	var idle []string
	for _, p := range n.candidatePeers() {
		if p.Questions == 0 && p.Queued == 0 && p.APTasks == 0 {
			idle = append(idle, p.Addr)
		}
	}
	workers := len(idle) + 1
	if workers > nSubs {
		workers = nSubs
	}
	// Deal sub-collections round-robin: worker 0 is this node. Subs travel
	// by global id (positional == global on full replicas; remote peers
	// validate coverage via Set.Has).
	assign := make([][]int, workers)
	for i, sub := range globals {
		assign[i%workers] = append(assign[i%workers], sub)
	}

	local := func(subs []int) []qa.ScoredParagraph {
		// PR partial cache: identical (keywords, assignment) work — the same
		// question again, or a different question sharing its keywords — is
		// served from memory. A hit is marked with a span so traces stay
		// honest about which stages actually ran.
		key := prCacheKey(analysis.Keywords, subs)
		if v, ok := n.prCache.Get(key); ok {
			n.nm.cachePRHits.Inc()
			n.spans.StartSpan("cache:pr", "", parent).End()
			cached := v.([]qa.ScoredParagraph)
			return append([]qa.ScoredParagraph(nil), cached...)
		}
		if n.prCache != nil {
			n.nm.cachePRMisses.Inc()
		}
		prSpan := n.spans.StartSpan("stage:PR", obs.StagePR, parent)
		var rs []index.Retrieved
		for _, sub := range subs {
			r, _ := n.engine.RetrieveSub(analysis, sub)
			rs = append(rs, r...)
		}
		prSpan.End()
		psSpan := n.spans.StartSpan("stage:PS", obs.StagePS, parent)
		sc, _ := n.engine.ScoreParagraphs(analysis, rs)
		psSpan.End()
		n.prCache.Put(key, append([]qa.ScoredParagraph(nil), sc...))
		return sc
	}

	results := make([][]qa.ScoredParagraph, workers)
	var wg sync.WaitGroup
	for i := 1; i < workers; i++ {
		i := i
		addr := idle[i-1]
		wg.Add(1)
		go func() {
			defer wg.Done()
			n.nm.prSent.Inc()
			resp, err := n.callPeer(addr, &Request{
				Kind:     kindPRSubtask,
				Span:     parent,
				Keywords: analysis.Keywords,
				Subs:     assign[i],
			}, budget, 0)
			if err != nil {
				// Failure recovery with blame: the aggregate counter keeps
				// its historical meaning, the per-peer counter and marker
				// span record *which* peer the retry-locally path blamed.
				n.nm.failPR.Inc()
				n.spans.StartSpan("recover:pr peer="+addr, "", parent).End()
				results[i] = local(assign[i]) // failure recovery
				return
			}
			paras, err := n.resolveRefs(resp.ParaRefs)
			if err != nil {
				n.nm.failPR.Inc()
				n.recordFailure("pr", addr, err)
				n.spans.StartSpan("recover:pr peer="+addr, "", parent).End()
				results[i] = local(assign[i])
				return
			}
			for _, s := range resp.Spans {
				n.spans.Record(s)
			}
			results[i] = paras
		}()
	}
	results[0] = local(assign[0])
	wg.Wait()
	var all []qa.ScoredParagraph
	for _, r := range results {
		all = append(all, r...)
	}
	return all
}

// minAPParasPerWorker is the AP fan-out break-even: below this many accepted
// paragraphs per worker, a remote AP sub-task's round-trip costs more than
// the extraction it offloads, so the partitioner narrows (possibly to fully
// local execution).
const minAPParasPerWorker = 8

// partitionAP splits the accepted paragraphs between this node and its idle
// peers with an interleaved (ISEND-style) split — the accepted array is
// rank-ordered, so interleaving equalises granularity. Failed remote
// sub-tasks are re-processed locally, the live analogue of the
// sender-controlled recovery of Figure 5(c). Remote ap-subtask spans carry
// the originating question's ID and come back in the sub-task response.
func (n *Node) partitionAP(analysis nlp.QuestionAnalysis, accepted []qa.ScoredParagraph, parent obs.SpanContext, budget time.Time) ([][]qa.Answer, int) {
	// Distribute only when every worker gets enough paragraphs to out-earn
	// its round-trip: an AP sub-task ships refs out and answers back
	// (~tens of µs on loopback), while extracting from a handful of
	// paragraphs is cheaper than that wire cost — the PR-2 adaptive-fanout
	// lesson applied to AP. Grouping never changes the answer bytes
	// (MergeAnswerSets is partition-insensitive), so the clamp is pure
	// scheduling. Below two workers' worth of paragraphs no peer can help,
	// so the peer table is not consulted at all.
	var idle []string
	if len(accepted) >= 2*minAPParasPerWorker {
		for _, p := range n.candidatePeers() {
			if p.Questions == 0 && p.Queued == 0 && p.APTasks == 0 {
				idle = append(idle, p.Addr)
			}
		}
	}
	workers := len(idle) + 1
	if w := len(accepted) / minAPParasPerWorker; w < workers {
		workers = w
	}
	if workers < 2 {
		workers = 1
	}
	localAP := func(paras []qa.ScoredParagraph) []qa.Answer {
		span := n.spans.StartSpan("stage:AP", obs.StageAP, parent)
		answers, _ := n.engine.ExtractAnswers(analysis, paras)
		span.End()
		return answers
	}
	if workers == 1 {
		return [][]qa.Answer{localAP(accepted)}, 1
	}

	parts := make([][]qa.ScoredParagraph, workers)
	for i, sp := range accepted {
		parts[i%workers] = append(parts[i%workers], sp)
	}

	groups := make([][]qa.Answer, workers)
	var wg sync.WaitGroup
	for i := 1; i < workers; i++ {
		i := i
		addr := idle[i-1]
		wg.Add(1)
		go func() {
			defer wg.Done()
			refs := make([]ParaRef, len(parts[i]))
			for k, sp := range parts[i] {
				refs[k] = ParaRef{ID: sp.Para.ID, Matched: sp.Matched, Score: sp.Score}
			}
			n.nm.apSent.Inc()
			resp, err := n.callPeer(addr, &Request{
				Kind:       kindAPSubtask,
				Span:       parent,
				Keywords:   analysis.Keywords,
				AnswerType: int(analysis.AnswerType),
				ParaRefs:   refs,
			}, budget, 0)
			if err != nil {
				// Failure recovery: process the partition locally, blaming
				// the peer that failed (counter + marker span).
				n.nm.failAP.Inc()
				n.spans.StartSpan("recover:ap peer="+addr, "", parent).End()
				groups[i] = localAP(parts[i])
				return
			}
			for _, s := range resp.Spans {
				n.spans.Record(s)
			}
			groups[i] = resp.Answers
		}()
	}
	groups[0] = localAP(parts[0])
	wg.Wait()
	return groups, workers
}

// ErrDeadlineMsg is the Response.Err a node returns when a question's edge
// deadline (Request.TimeoutMS) expires before the question could be served —
// still queued for admission when the budget ran out. Gateways map it to
// 504 Gateway Timeout.
const ErrDeadlineMsg = "edge deadline exceeded"

// Ask sends a question to any node of a live cluster and returns the
// response (the client side used by cmd/qactl and the examples).
func Ask(addr, question string, timeout time.Duration) (*Response, error) {
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	return roundTrip(addr, &Request{Kind: kindAsk, Question: question, WantSpans: true}, timeout)
}

// QueryEstimate asks a node for a cost prediction of question (Equation 9).
// On a sharded node the per-sub document frequencies are gathered from one
// live replica per shard and folded with the exact global df correction, so
// the estimate matches a full-replica node byte for byte.
func QueryEstimate(addr, question string, timeout time.Duration) (*qa.CostEstimate, error) {
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	resp, err := roundTrip(addr, &Request{Kind: kindEstimate, Question: question}, timeout)
	if err != nil {
		return nil, err
	}
	if resp.Estimate == nil {
		return nil, fmt.Errorf("live: %s returned no estimate", addr)
	}
	return resp.Estimate, nil
}

// QueryStatus fetches a node's status.
func QueryStatus(addr string, timeout time.Duration) (*Status, error) {
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	resp, err := roundTrip(addr, &Request{Kind: kindStatus}, timeout)
	if err != nil {
		return nil, err
	}
	if resp.Status == nil {
		return nil, fmt.Errorf("live: %s returned no status", addr)
	}
	return resp.Status, nil
}

// QueryMetrics fetches a node's metrics in the Prometheus text exposition
// format over the TCP status protocol (the transport behind
// `qactl -metrics`; the same text is served by qanode's -metrics-addr HTTP
// endpoint).
func QueryMetrics(addr string, timeout time.Duration) (string, error) {
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	resp, err := roundTrip(addr, &Request{Kind: kindMetrics}, timeout)
	if err != nil {
		return "", err
	}
	return resp.MetricsText, nil
}
