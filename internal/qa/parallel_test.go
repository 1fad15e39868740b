package qa

import (
	"reflect"
	"runtime"
	"testing"

	"distqa/internal/index"
	"distqa/internal/nlp"
)

// newParallelEngine clones the shared test engine with intra-node PR/PS
// fan-out enabled.
func newParallelEngine(workers int) *Engine {
	par := *testEngine
	par.Workers = workers
	return &par
}

// TestParallelEquivalence is the contract of parallel.go: with Workers > 1
// the engine must produce byte-identical answers, paragraph sets, scores and
// virtual-cost accounting to the sequential path, for every fact question in
// the corpus. reflect.DeepEqual over Result covers answers (text, type,
// score, window positions, snippets) and ModuleCosts (float64 fields — any
// reordering of the cost fold would fail here).
func TestParallelEquivalence(t *testing.T) {
	par := newParallelEngine(8)
	for _, f := range testColl.Facts {
		seq := testEngine.AnswerSequential(f.Question)
		got := par.AnswerSequential(f.Question)
		if !reflect.DeepEqual(seq, got) {
			t.Fatalf("parallel result diverges from sequential for %q:\nseq: %+v\npar: %+v",
				f.Question, seq, got)
		}
	}
}

// TestParallelStageEquivalence checks the two parallelized stages in
// isolation, including element order of the merged slices.
func TestParallelStageEquivalence(t *testing.T) {
	par := newParallelEngine(8)
	for _, f := range testColl.Facts[:8] {
		a := nlp.AnalyzeQuestion(f.Question)

		seqRS, seqPRCost := testEngine.RetrieveAll(a)
		parRS, parPRCost := par.RetrieveAll(a)
		if seqPRCost != parPRCost {
			t.Fatalf("PR cost diverges for %q: %+v vs %+v", f.Question, seqPRCost, parPRCost)
		}
		if !sameRetrieved(seqRS, parRS) {
			t.Fatalf("PR paragraph order diverges for %q", f.Question)
		}
		// The test corpus is below prParallelMinSubParas, so RetrieveAll ran
		// sequentially above; drive the worker pool directly.
		poolRS, poolPRCost := par.retrieveAllParallel(a, 4)
		if poolPRCost != seqPRCost || !sameRetrieved(seqRS, poolRS) {
			t.Fatalf("PR worker pool diverges for %q", f.Question)
		}

		seqSP, seqPSCost := testEngine.ScoreParagraphs(a, seqRS)
		parSP, parPSCost := par.ScoreParagraphs(a, parRS)
		if seqPSCost != parPSCost {
			t.Fatalf("PS cost diverges for %q: %+v vs %+v", f.Question, seqPSCost, parPSCost)
		}
		if len(seqSP) != len(parSP) {
			t.Fatalf("PS length diverges for %q: %d vs %d", f.Question, len(seqSP), len(parSP))
		}
		for i := range seqSP {
			if seqSP[i] != parSP[i] {
				t.Fatalf("PS element %d diverges for %q: %+v vs %+v", i, f.Question, seqSP[i], parSP[i])
			}
		}
	}
}

// TestParallelScoreLargeSet forces the chunked PS path (the per-question
// paragraph sets of the tiny corpus can fall under psParallelMin) and checks
// order and scores against the sequential scorer.
func TestParallelScoreLargeSet(t *testing.T) {
	a := nlp.AnalyzeQuestion(testColl.Facts[0].Question)
	rs, _ := testEngine.RetrieveAll(a)
	for len(rs) < 3*psParallelMin {
		rs = append(rs, rs...)
		if len(rs) == 0 {
			t.Skip("no paragraphs retrieved")
		}
	}
	par := newParallelEngine(4)
	seqSP, seqCost := testEngine.ScoreParagraphs(a, rs)
	parSP, parCost := par.ScoreParagraphs(a, rs)
	if seqCost != parCost {
		t.Fatalf("cost diverges: %+v vs %+v", seqCost, parCost)
	}
	for i := range seqSP {
		if seqSP[i] != parSP[i] {
			t.Fatalf("scored paragraph %d diverges: %+v vs %+v", i, seqSP[i], parSP[i])
		}
	}
}

// TestWorkersClampedToGOMAXPROCS is the adaptive fan-out contract (PR-4):
// the effective worker count never exceeds the scheduler's parallelism
// budget, so a single-core host runs the sequential path (no goroutine
// overhead for zero parallelism — the fix for the 0.95x pr_ps_parallel
// regression) while multi-core hosts keep the configured fan-out.
func TestWorkersClampedToGOMAXPROCS(t *testing.T) {
	old := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(old)

	e := newParallelEngine(8)

	runtime.GOMAXPROCS(1)
	if w := e.workers(); w != 1 {
		t.Fatalf("workers() = %d on a 1-proc scheduler, want 1 (sequential)", w)
	}
	runtime.GOMAXPROCS(2)
	if w := e.workers(); w != 2 {
		t.Fatalf("workers() = %d with GOMAXPROCS=2, want 2", w)
	}
	runtime.GOMAXPROCS(16)
	if w := e.workers(); w != 8 {
		t.Fatalf("workers() = %d with headroom, want the configured 8", w)
	}

	// Workers ≤ 1 is sequential regardless of scheduler width.
	seq := newParallelEngine(0)
	if w := seq.workers(); w != 1 {
		t.Fatalf("workers() = %d for Workers=0, want 1", w)
	}

	// The clamp changes only which path runs, never the results: answers on
	// a clamped (sequential-forced) engine match the wide engine.
	runtime.GOMAXPROCS(1)
	for _, f := range testColl.Facts[:4] {
		clamped := e.AnswerSequential(f.Question)
		runtime.GOMAXPROCS(16)
		wide := e.AnswerSequential(f.Question)
		runtime.GOMAXPROCS(1)
		if !reflect.DeepEqual(clamped, wide) {
			t.Fatalf("clamped result diverges for %q", f.Question)
		}
	}
}

func sameRetrieved(a, b []index.Retrieved) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
