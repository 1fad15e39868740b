package qa

import (
	"runtime"
	"sync"
	"sync/atomic"

	"distqa/internal/index"
	"distqa/internal/nlp"
)

// Intra-node parallelism. The paper distributes PR across nodes because its
// 2001 testbed machines had one slow core each; on a modern multi-core host
// the same fan-out pays off *inside* one node. Engine.Workers > 1 enables a
// bounded worker pool for Paragraph Retrieval (one task per sub-collection
// index) and Paragraph Scoring (contiguous paragraph chunks).
//
// The parallel paths are bit-for-bit equivalent to the sequential ones:
// results are written into position-indexed slots and merged in input order,
// and the virtual-cost accounting is folded in exactly the sequential loop's
// float-addition order, so answers, scores and reported CPU/disk demands are
// byte-identical whichever path ran (TestParallelEquivalence enforces this).
// The simulator's engines keep Workers = 0: its virtual-time charging is
// independent of host-side wall clock either way, and sequential execution
// keeps simulated runs deterministic cheaply.

// psParallelChunk is the unit of PS work-stealing: paragraphs are scored in
// contiguous chunks of this size, claimed atomically.
const psParallelChunk = 64

// psParallelMin is the minimum paragraph count before PS fans out; below it
// the goroutine overhead exceeds the scoring work.
const psParallelMin = 2 * psParallelChunk

// prParallelMinSubParas is the mean sub-collection size, in paragraphs,
// below which PR does not fan out: one sub's retrieval then costs about as
// much as starting its worker. Measured at GOMAXPROCS=2, fan-out ran PR+PS
// at 0.8x on Tiny (92 paragraphs a sub) and 1.4x on TREC8Like (1,320).
const prParallelMinSubParas = 512

// workers returns the effective worker count (1 = sequential). The
// configured fan-out is clamped to the scheduler's parallelism budget
// (GOMAXPROCS): on a single-core container, goroutine fan-out buys no
// parallelism but still pays scheduling and synchronization per question —
// the measured 0.95x regression of the PR-2 benchmarks — so the engine
// falls back to the sequential path there. The clamp changes only *which*
// path runs, never its results (both are byte-identical; see
// TestParallelEquivalence and TestWorkersClampedToGOMAXPROCS).
func (e *Engine) workers() int {
	if e.Workers <= 1 {
		return 1
	}
	w := e.Workers
	if p := runtime.GOMAXPROCS(0); w > p {
		w = p
	}
	return w
}

// retrieveAllParallel fans RetrieveSub out across the sub-collection
// indexes. Each sub-collection is one task (the PR module's natural
// granularity, Table 2); results land in per-sub slots and are concatenated
// in sub order.
func (e *Engine) retrieveAllParallel(a nlp.QuestionAnalysis, workers int) ([]index.Retrieved, Cost) {
	subs := e.Set.Globals()
	n := len(subs)
	if workers > n {
		workers = n
	}
	type subResult struct {
		rs   []index.Retrieved
		cost Cost
	}
	results := make([]subResult, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				rs, c := e.RetrieveSub(a, subs[i])
				results[i] = subResult{rs: rs, cost: c}
			}
		}()
	}
	wg.Wait()
	// Deterministic merge: concatenation and cost folding both happen in
	// sub order — the sequential loop's exact element and float-addition
	// order.
	var out []index.Retrieved
	var cost Cost
	for i := range results {
		out = append(out, results[i].rs...)
		cost = cost.Add(results[i].cost)
	}
	return out, cost
}

// scoreParagraphsParallel scores paragraphs in atomically claimed contiguous
// chunks, writing each result into its input position. Cost accounting runs
// over the input in order afterwards (pure arithmetic, a tiny fraction of
// the scoring work), reproducing the sequential accumulation bit for bit.
func (e *Engine) scoreParagraphsParallel(a nlp.QuestionAnalysis, rs []index.Retrieved, workers int) ([]ScoredParagraph, Cost) {
	out := make([]ScoredParagraph, len(rs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := hitsPool.Get().(*keywordHits)
			defer hitsPool.Put(h)
			for {
				lo := int(next.Add(psParallelChunk)) - psParallelChunk
				if lo >= len(rs) {
					return
				}
				hi := lo + psParallelChunk
				if hi > len(rs) {
					hi = len(rs)
				}
				for i := lo; i < hi; i++ {
					out[i] = e.scoreOne(a, rs[i], h)
				}
			}
		}()
	}
	wg.Wait()
	cost := Cost{MemMB: e.Cost.MemBaseMB}
	for _, r := range rs {
		cost.CPUSeconds += e.Cost.PSPerParagraphCPU + e.Cost.PSPerTokenCPU*float64(len(r.Para.Tokens))
	}
	return out, cost
}
