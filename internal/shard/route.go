package shard

import (
	"cmp"
	"fmt"
	"slices"

	"distqa/internal/qa"
)

// RouteAction is what selective routing decided for one shard.
type RouteAction uint8

const (
	// RouteScatter: a fresh summary admits at least one query term — ask the
	// shard (ranked by expected contribution).
	RouteScatter RouteAction = iota
	// RouteSkip: a fresh summary proves no query term occurs in the shard;
	// it cannot contribute a paragraph and is not asked.
	RouteSkip
	// RouteFallback: no usable summary (missing, or stale after an epoch
	// change) — scatter conservatively, exactly the pre-routing behaviour.
	RouteFallback
)

func (a RouteAction) String() string {
	switch a {
	case RouteScatter:
		return "scatter"
	case RouteSkip:
		return "skip"
	case RouteFallback:
		return "fallback"
	default:
		return fmt.Sprintf("RouteAction(%d)", uint8(a))
	}
}

// RouteDecision is one shard's routing verdict.
type RouteDecision struct {
	Shard  int
	Action RouteAction
	// Expect is the shard's expected contribution for the query terms
	// (Summary.Contribution); 0 for fallback shards. Ranking only.
	Expect int64
}

// RoutePlan is a full routing decision for one question over K shards.
type RoutePlan struct {
	// Decisions is indexed by shard id.
	Decisions []RouteDecision
	// Scatter lists the shards to ask: expected contribution descending,
	// shard id ascending on ties, fallback shards last in id order. The
	// order never changes *which* shards run, only dispatch order.
	Scatter []int
	// Skipped / Fallbacks count the per-shard verdicts.
	Skipped   int
	Fallbacks int
}

// Selective reports whether every routed shard had a fresh summary (even if
// nothing could be skipped). A non-selective plan is a full-scatter
// fallback for at least one shard.
func (p *RoutePlan) Selective() bool { return p.Fallbacks == 0 }

// ShortCircuit reports whether the plan eliminated the entire fan-out:
// every shard is provably unable to contribute, so gathering stops before
// it starts.
func (p *RoutePlan) ShortCircuit() bool { return len(p.Scatter) == 0 }

// PlanRoute classifies the K shards of a question: lookup returns the
// shard's summary and whether it is usable (fresh); a nil summary or
// ok=false forces the fallback verdict. Correctness never depends on the
// summaries — a skip requires a sound proof of absence, everything else
// scatters.
func PlanRoute(k int, keywords []string, lookup func(s int) (*Summary, bool)) RoutePlan {
	p := RoutePlan{Decisions: make([]RouteDecision, k)}
	for s := 0; s < k; s++ {
		d := RouteDecision{Shard: s}
		sum, ok := lookup(s)
		switch {
		case !ok || sum == nil:
			d.Action = RouteFallback
			p.Fallbacks++
		case sum.ProvablyEmpty(keywords):
			d.Action = RouteSkip
			p.Skipped++
		default:
			d.Action = RouteScatter
			d.Expect = sum.Contribution(keywords)
		}
		p.Decisions[s] = d
	}
	for s := 0; s < k; s++ {
		if p.Decisions[s].Action != RouteSkip {
			p.Scatter = append(p.Scatter, s)
		}
	}
	slices.SortStableFunc(p.Scatter, func(i, j int) int {
		a, b := p.Decisions[i], p.Decisions[j]
		if a.Expect != b.Expect {
			return cmp.Compare(b.Expect, a.Expect)
		}
		return cmp.Compare(a.Shard, b.Shard)
	})
	return p
}

// Summaries builds the term summary of every shard the cluster defines,
// from any replica holding it (the summaries are replica-agnostic). Used by
// the equivalence tests and the in-process routed answer path.
func (c *Cluster) Summaries(opts SummaryOptions) (map[int]*Summary, error) {
	out := make(map[int]*Summary, c.K)
	for s := 0; s < c.K; s++ {
		rep, ok := c.pickReplica(s, 0, nil)
		if !ok {
			return nil, fmt.Errorf("shard: no replica to summarise shard %d", s)
		}
		sum, err := BuildSummary(rep.Engine.Set, s, SubsOf(s, c.K, len(c.Coll.Subs)), opts)
		if err != nil {
			return nil, err
		}
		out[s] = &sum
	}
	return out, nil
}

// AnswerRouted is Answer with selective routing: shards the plan skips
// contribute empty sub-results without running retrieval. When every skip
// is backed by a sound proof (lookup only hands out real summaries of the
// live shard content), the answers, paragraph ranking and every downstream
// cost are byte-identical to Answer — only Costs.PR shrinks by exactly the
// retrieval work the skipped shards would have wasted. The routing
// equivalence property test pins this across the K×R grid with randomized
// staleness and missing summaries.
func (c *Cluster) AnswerRouted(question string, salt int, down map[int]bool, lookup func(s int) (*Summary, bool)) (qa.Result, RoutePlan, error) {
	coord := c.coordinator()
	var res qa.Result
	res.Question = question

	analysis, qpCost := coord.QuestionProcessing(question)
	res.Costs.QP = qpCost

	plan := PlanRoute(c.K, analysis.Keywords, lookup)
	var results []SubResult
	for s := 0; s < c.K; s++ {
		subs := SubsOf(s, c.K, len(c.Coll.Subs))
		if plan.Decisions[s].Action == RouteSkip {
			for _, sub := range subs {
				results = append(results, SubResult{Sub: sub})
			}
			continue
		}
		rep, ok := c.pickReplica(s, salt, down)
		if !ok {
			return res, plan, fmt.Errorf("shard: no surviving replica for shard %d", s)
		}
		srs, err := RetrieveSubs(rep.Engine, analysis.Keywords, subs)
		if err != nil {
			return res, plan, err
		}
		results = append(results, srs...)
	}
	wantSubs := make([]int, len(c.Coll.Subs))
	for i := range wantSubs {
		wantSubs[i] = i
	}
	scored, prCost, psCost, err := MergeSubResults(coord, results, wantSubs)
	if err != nil {
		return res, plan, err
	}
	res.Costs.PR = prCost
	res.Costs.PS = psCost
	res.Retrieved = len(scored)

	accepted, poCost := coord.OrderParagraphs(scored)
	res.Costs.PO = poCost
	res.Accepted = len(accepted)

	answers, apCost := coord.ExtractAnswers(analysis, accepted)
	res.Costs.AP = apCost

	final, sortCost := coord.MergeAnswerSets([][]qa.Answer{answers})
	res.Costs.Sort = sortCost
	res.Answers = final
	return res, plan, nil
}
