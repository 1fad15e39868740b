//go:build !race

// Allocation and layout budgets for the engine's hot stages and the token
// streams they read (CI runs this without -race; testing.AllocsPerRun is
// unreliable under the race detector because instrumentation allocates).
package qa

import (
	"testing"
	"unsafe"

	"distqa/internal/nlp"
)

// TestScoreParagraphsAllocsFlat pins Paragraph Scoring to a constant number
// of allocations whatever the paragraph count: keyword occurrences go into
// pooled buffers, never into a per-paragraph map.
func TestScoreParagraphsAllocsFlat(t *testing.T) {
	f := testColl.Facts[0]
	a, _ := testEngine.QuestionProcessing(f.Question)
	rs, _ := testEngine.RetrieveAll(a)
	if len(rs) < 8 {
		t.Fatalf("only %d paragraphs retrieved", len(rs))
	}
	testEngine.ScoreParagraphs(a, rs) // warm the pool
	few := testing.AllocsPerRun(100, func() { testEngine.ScoreParagraphs(a, rs[:len(rs)/8]) })
	all := testing.AllocsPerRun(100, func() { testEngine.ScoreParagraphs(a, rs) })
	t.Logf("%.1f allocs for %d paragraphs, %.1f for %d", all, len(rs), few, len(rs)/8)
	if all > few || all > 2 {
		t.Errorf("ScoreParagraphs allocates %.1f times for %d paragraphs and %.1f for %d, want the same ≤2",
			all, len(rs), few, len(rs)/8)
	}
}

// TestExtractAnswersAllocBudget pins Answer Processing to a small constant
// plus one allocation (the snippet) per answer it returns: candidates go
// straight into one pre-sized slice, and the candidates cut by N_a never
// render a snippet.
func TestExtractAnswersAllocBudget(t *testing.T) {
	for _, f := range testColl.Facts[:6] {
		a, _ := testEngine.QuestionProcessing(f.Question)
		rs, _ := testEngine.RetrieveAll(a)
		scored, _ := testEngine.ScoreParagraphs(a, rs)
		accepted, _ := testEngine.OrderParagraphs(scored)
		answers, _ := testEngine.ExtractAnswers(a, accepted)
		allocs := testing.AllocsPerRun(100, func() { testEngine.ExtractAnswers(a, accepted) })
		t.Logf("fact %d: %.1f allocs, %d paragraphs, %d answers", f.ID, allocs, len(accepted), len(answers))
		if budget := 2 + len(answers); allocs > float64(budget) {
			t.Errorf("fact %d: ExtractAnswers over %d paragraphs allocates %.1f times for %d answers, want ≤%d",
				f.ID, len(accepted), allocs, len(answers), budget)
		}
	}
}

// TestTokenLayout pins the token stream's footprint: a token is two string
// headers, and every token of one word — in any paragraph — shares its
// string data with every other.
func TestTokenLayout(t *testing.T) {
	if size := unsafe.Sizeof(nlp.Token{}); size != 32 {
		t.Fatalf("nlp.Token is %d bytes, want 32", size)
	}
	first := map[string]nlp.Token{}
	shared := 0
	for _, p := range testColl.Paragraphs() {
		for _, tok := range p.Tokens {
			prev, ok := first[tok.Text]
			if !ok {
				first[tok.Text] = tok
				continue
			}
			if unsafe.StringData(prev.Text) != unsafe.StringData(tok.Text) ||
				unsafe.StringData(prev.Stem) != unsafe.StringData(tok.Stem) {
				t.Fatalf("paragraph %d: token %q does not share its strings", p.ID, tok.Text)
			}
			shared++
		}
	}
	if shared == 0 {
		t.Fatal("no word occurs twice in the collection")
	}
}
