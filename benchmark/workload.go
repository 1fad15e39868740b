package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"

	"distqa/internal/corpus"
	"distqa/internal/index"
	"distqa/internal/nlp"
	"distqa/internal/qcache"
	"distqa/internal/shard"
)

// workload is one traffic mix. Each has a single latency mode: no
// distribution mixes answer-cache hits with misses, so no quantile sits on
// a mode boundary.
type workload struct {
	name string
	// serial runs one closed-loop client instead of nproc, so the peer node
	// is idle between asks and most asks are partitioned across both nodes.
	serial bool
	// cycle is "cold" (every distinct fact question), "hot" (hotQuestions of
	// them) or "mixed" (fact questions alternating with shard-local ones).
	cycle   string
	sharded bool
	// asksPerRunSecond freezes the measured phase's size: each trial runs
	// asksPerRunSecond × seconds / defaultTrials asks, calibrated so the
	// measured phases of one run take about -seconds on the 2-core
	// development box. Bounding by count, not time, gives every trial
	// identical work.
	asksPerRunSecond float64
}

var workloads = []workload{
	// Every ask misses the answer cache and runs the whole pipeline: the qa
	// and index layers do almost all the work.
	{name: "cold_closed", cycle: "cold", asksPerRunSecond: 900},
	// Every ask hits the answer cache: the pipeline is bypassed, and the
	// cost is the gateway, the cache front, mux/wire and bookkeeping.
	{name: "hot_closed", cycle: "hot", asksPerRunSecond: 16000},
	// The cold pipeline split across shards: routing, fan-out and merge.
	{name: "sharded_closed", cycle: "mixed", sharded: true, asksPerRunSecond: 1200},
	// One ask at a time (the paper's low-load setting): the scheduler's
	// PR/AP partitioning is on every ask's critical path.
	{name: "cold_serial", cycle: "cold", serial: true, asksPerRunSecond: 500},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

const (
	// defaultTrials is how many fresh SUT processes one run measures; the
	// run reports each metric's median across them.
	defaultTrials = 3
	// minSamples is the smallest measured phase: a p99 needs at least ten
	// samples beyond it.
	minSamples = 1000
	// hotQuestions is the hot cycle's length: it fits each node's 32-entry
	// answer cache, so after warm-up every ask is a hit.
	hotQuestions = 16
	// clusterSize is the SUT's node count; shardK is the sharded
	// deployment's shard count (R=1, one shard per node).
	clusterSize = 2
	shardK      = 2
)

// clients is the closed loop's client count.
func (w workload) clients() int {
	if w.serial {
		return 1
	}
	return runtime.NumCPU()
}

// measuredAsks is one trial's measured-phase size for a run of seconds.
func (w workload) measuredAsks(seconds float64) int {
	n := int(w.asksPerRunSecond * seconds / defaultTrials)
	if n < minSamples {
		n = minSamples
	}
	return n
}

func corpusConfig(name string) (corpus.Config, error) {
	switch name {
	case "trec8":
		return corpus.TREC8Like(), nil
	case "tiny":
		return corpus.Tiny(), nil
	}
	return corpus.Config{}, fmt.Errorf("unknown corpus %q (have trec8, tiny)", name)
}

// distinctFacts returns the collection's fact questions, deduplicated by the
// answer cache's own key (qcache.Normalize), in collection order.
func distinctFacts(coll *corpus.Collection) []string {
	seen := make(map[string]bool)
	var out []string
	for _, f := range coll.Facts {
		k := qcache.Normalize(f.Question)
		if !seen[k] {
			seen[k] = true
			out = append(out, f.Question)
		}
	}
	return out
}

// questionCycle builds the workload's question cycle. The seed only orders
// it; which questions it holds is fixed by the corpus.
func questionCycle(w workload, coll *corpus.Collection, set *index.Set, seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	facts := distinctFacts(coll)
	switch w.cycle {
	case "hot":
		n := hotQuestions
		if n > len(facts) {
			n = len(facts)
		}
		hot := make([]string, n)
		for i := range hot {
			hot[i] = facts[i*len(facts)/n]
		}
		return shuffled(rng, hot)
	case "mixed":
		local := shardLocalQuestions(set, coll, shardK, len(facts))
		facts = shuffled(rng, facts)
		local = shuffled(rng, local)
		n := len(facts)
		if len(local) < n {
			n = len(local)
		}
		out := make([]string, 0, 2*n)
		for i := 0; i < n; i++ {
			out = append(out, facts[i], local[i])
		}
		return out
	}
	return shuffled(rng, facts)
}

func shuffled(rng *rand.Rand, qs []string) []string {
	out := append([]string(nil), qs...)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// shardLocalQuestions synthesizes up to want distinct "Tell me about
// <word>?" questions whose keywords all occur in exactly one shard of the
// k-way split, taking shards in turn — the construction of the perf suite's
// selective-routing workload, extended past one question per shard. With
// fresh summaries the router skips every other shard for these.
func shardLocalQuestions(set *index.Set, coll *corpus.Collection, k, want int) []string {
	total := len(coll.Subs)
	absentOutside := func(s int, stem string) bool {
		for sub := 0; sub < total; sub++ {
			if shard.OfSub(sub, k) != s && set.Sub(sub).DocFreq(stem) > 0 {
				return false
			}
		}
		return true
	}
	perShard := make([][]string, k)
	seen := make(map[string]bool)  // stems already tried
	asked := make(map[string]bool) // questions already taken, by cache key
	for s := 0; s < k; s++ {
		quota := (want + k - 1) / k
	subs:
		for _, sub := range shard.SubsOf(s, k, total) {
			for _, doc := range coll.Subs[sub].Docs {
				for _, p := range doc.Paragraphs {
					for _, tok := range p.Tokens {
						if len(perShard[s]) >= quota {
							break subs
						}
						if tok.Stem == "" || len(tok.Text) < 4 || seen[tok.Stem] {
							continue
						}
						seen[tok.Stem] = true
						if set.Sub(sub).DocFreq(tok.Stem) == 0 || !absentOutside(s, tok.Stem) {
							continue
						}
						q := "Tell me about " + tok.Text + "?"
						a := nlp.AnalyzeQuestion(q)
						hit, clean := false, len(a.Keywords) > 0
						for _, kw := range a.Keywords {
							hit = hit || kw == tok.Stem
							clean = clean && absentOutside(s, kw)
						}
						if key := qcache.Normalize(q); hit && clean && !asked[key] {
							asked[key] = true
							perShard[s] = append(perShard[s], q)
						}
					}
				}
			}
		}
	}
	var out []string
	for i := 0; len(out) < want; i++ {
		added := false
		for s := 0; s < k && len(out) < want; s++ {
			if i < len(perShard[s]) {
				out = append(out, perShard[s][i])
				added = true
			}
		}
		if !added {
			break
		}
	}
	return out
}
