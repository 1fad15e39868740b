package index

import (
	"testing"
	"testing/quick"

	"distqa/internal/corpus"
	"distqa/internal/nlp"
)

var testColl = corpus.Generate(corpus.Tiny())

func TestBuildAllCoversCollection(t *testing.T) {
	s := BuildAll(testColl)
	if s.Len() != len(testColl.Subs) {
		t.Fatalf("indexes = %d, want %d", s.Len(), len(testColl.Subs))
	}
	for i, ix := range s.Indexes {
		if ix.Sub() != i {
			t.Fatalf("index %d claims sub %d", i, ix.Sub())
		}
		if ix.Terms() == 0 {
			t.Fatalf("index %d has no terms", i)
		}
		if ix.IndexBytes() == 0 {
			t.Fatalf("index %d reports zero size", i)
		}
	}
}

func TestDocFreqMatchesScan(t *testing.T) {
	ix := Build(testColl, 0)
	// Take a handful of stems and verify DocFreq against a manual scan.
	stems := []string{}
	for _, p := range testColl.Subs[0].Docs[0].Paragraphs {
		for _, tok := range p.Tokens {
			stems = append(stems, tok.Stem)
			if len(stems) > 10 {
				break
			}
		}
	}
	for _, stem := range stems {
		want := 0
		for _, doc := range testColl.Subs[0].Docs {
			found := false
			for _, p := range doc.Paragraphs {
				for _, tok := range p.Tokens {
					if tok.Stem == stem {
						found = true
					}
				}
			}
			if found {
				want++
			}
		}
		if got := ix.DocFreq(stem); got != want {
			t.Fatalf("DocFreq(%q) = %d, want %d", stem, got, want)
		}
	}
}

// TestTermRunsMatchTokens: every paragraph's term run holds exactly its
// distinct stems, sorted by ordinal, with their occurrence counts.
func TestTermRunsMatchTokens(t *testing.T) {
	for _, compressed := range []bool{true, false} {
		ix := BuildWith(testColl, 1, IndexOptions{Compressed: compressed})
		for local, doc := range ix.docs {
			for i, p := range doc.Paragraphs {
				want := map[string]uint32{}
				for _, tok := range p.Tokens {
					want[tok.Stem]++
				}
				run := ix.run(ix.docStart[local] + uint32(i))
				if len(run) != len(want) {
					t.Fatalf("paragraph %d: run has %d stems, tokens %d", p.ID, len(run), len(want))
				}
				for j, tc := range run {
					if j > 0 && tc.ord <= run[j-1].ord {
						t.Fatalf("paragraph %d: run not sorted by ordinal", p.ID)
					}
					if stem := ix.terms[tc.ord]; want[stem] != tc.count {
						t.Fatalf("paragraph %d: %q counted %d, tokens say %d", p.ID, stem, tc.count, want[stem])
					}
				}
			}
		}
	}
}

func TestRetrieveFindsGoldParagraph(t *testing.T) {
	s := BuildAll(testColl)
	missed := 0
	for _, f := range testColl.Facts {
		a := nlp.AnalyzeQuestion(f.Question)
		gold := testColl.Paragraph(f.GoldParagraph)
		found := false
		for _, ix := range s.Indexes {
			rs, _ := ix.RetrieveParagraphs(a.Keywords)
			for _, r := range rs {
				if r.Para.ID == gold.ID {
					found = true
				}
			}
		}
		if !found {
			missed++
			t.Logf("fact %d: gold paragraph not retrieved for %q (keywords %v)", f.ID, f.Question, a.Keywords)
		}
	}
	// Boolean retrieval with relaxation should find nearly all gold
	// paragraphs; allow a small number of pathological misses.
	if missed > len(testColl.Facts)/10 {
		t.Fatalf("missed %d/%d gold paragraphs", missed, len(testColl.Facts))
	}
}

func TestRetrievedParagraphsContainKeywords(t *testing.T) {
	ix := Build(testColl, 0)
	f := testColl.Facts[0]
	a := nlp.AnalyzeQuestion(f.Question)
	rs, st := ix.RetrieveParagraphs(a.Keywords)
	need := (len(dedup(a.Keywords)) + 1) / 2
	for _, r := range rs {
		if r.Matched < need {
			t.Fatalf("paragraph %d matched %d keywords, need ≥ %d", r.Para.ID, r.Matched, need)
		}
		// Verify Matched against the actual tokens.
		stems := map[string]bool{}
		for _, tok := range r.Para.Tokens {
			stems[tok.Stem] = true
		}
		count := 0
		for _, k := range dedup(a.Keywords) {
			if stems[k] {
				count++
			}
		}
		if count != r.Matched {
			t.Fatalf("paragraph %d Matched=%d but scan says %d", r.Para.ID, r.Matched, count)
		}
	}
	if len(rs) > 0 && st.DocsMatched == 0 {
		t.Fatal("stats report zero docs but paragraphs were extracted")
	}
	if st.RealBytesTouched == 0 {
		t.Fatal("retrieval reported zero bytes touched")
	}
}

func TestRelaxationWidensResults(t *testing.T) {
	ix := Build(testColl, 0)
	// A nonsense keyword ANDed with a real one must not zero out results:
	// relaxation drops the restrictive nonsense term.
	realStem := ""
	for _, p := range testColl.Subs[0].Docs[0].Paragraphs {
		for _, tok := range p.Tokens {
			if ix.DocFreq(tok.Stem) >= MinDocs {
				realStem = tok.Stem
				break
			}
		}
		if realStem != "" {
			break
		}
	}
	if realStem == "" {
		t.Skip("no frequent stem found in tiny corpus")
	}
	rs, st := ix.RetrieveParagraphs([]string{realStem, "zzzznonsense"})
	if st.DocsMatched == 0 {
		t.Fatal("relaxation failed: no documents matched")
	}
	if st.KeywordsUsed != 1 {
		t.Fatalf("keywords used = %d, want 1 after dropping nonsense", st.KeywordsUsed)
	}
	if len(rs) == 0 {
		t.Fatal("no paragraphs extracted after relaxation")
	}
}

func TestEmptyQuery(t *testing.T) {
	ix := Build(testColl, 0)
	rs, st := ix.RetrieveParagraphs(nil)
	if len(rs) != 0 || st.DocsMatched != 0 {
		t.Fatalf("empty query returned results: %d paragraphs", len(rs))
	}
}

func TestUnknownKeywords(t *testing.T) {
	ix := Build(testColl, 0)
	rs, _ := ix.RetrieveParagraphs([]string{"qqqq", "wwww"})
	if len(rs) != 0 {
		t.Fatalf("unknown keywords returned %d paragraphs", len(rs))
	}
}

func TestDuplicateKeywordsCollapse(t *testing.T) {
	ix := Build(testColl, 0)
	f := testColl.Facts[1]
	a := nlp.AnalyzeQuestion(f.Question)
	r1, _ := ix.RetrieveParagraphs(a.Keywords)
	doubled := append(append([]string(nil), a.Keywords...), a.Keywords...)
	r2, _ := ix.RetrieveParagraphs(doubled)
	if len(r1) != len(r2) {
		t.Fatalf("duplicate keywords changed results: %d vs %d", len(r1), len(r2))
	}
}

func TestIntersectSortedProperty(t *testing.T) {
	f := func(a, b []int32) bool {
		sa := sortedUnique(a)
		sb := sortedUnique(b)
		got := intersectInto(nil, sa, sb)
		inB := map[int32]bool{}
		for _, x := range sb {
			inB[x] = true
		}
		want := []int32{}
		for _, x := range sa {
			if inB[x] {
				want = append(want, x)
			}
		}
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// dedup returns the distinct non-empty keywords in first-seen order.
func dedup(ws []string) []string { return dedupInto(nil, ws) }

func sortedUnique(xs []int32) []int32 {
	seen := map[int32]bool{}
	var out []int32
	for _, x := range xs {
		if !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func TestPerSubCollectionGranularityVaries(t *testing.T) {
	// The work performed per sub-collection for the same query must vary —
	// the uneven PR granularity central to Section 6.2 of the paper.
	s := BuildAll(testColl)
	varies := false
	for _, f := range testColl.Facts[:10] {
		a := nlp.AnalyzeQuestion(f.Question)
		var touched []int
		for _, ix := range s.Indexes {
			_, st := ix.RetrieveParagraphs(a.Keywords)
			touched = append(touched, st.RealBytesTouched)
		}
		min, max := touched[0], touched[0]
		for _, b := range touched {
			if b < min {
				min = b
			}
			if b > max {
				max = b
			}
		}
		if max > 2*min {
			varies = true
		}
	}
	if !varies {
		t.Fatal("retrieval work is uniform across sub-collections; topic skew not propagating")
	}
}

func TestStatsBytesScaleWithDocsMatched(t *testing.T) {
	ix := Build(testColl, 0)
	// Compare queries; more docs matched should touch more bytes.
	type res struct {
		docs, bytes int
	}
	var results []res
	for _, f := range testColl.Facts[:6] {
		a := nlp.AnalyzeQuestion(f.Question)
		_, st := ix.RetrieveParagraphs(a.Keywords)
		results = append(results, res{st.DocsMatched, st.RealBytesTouched})
	}
	for _, r := range results {
		if r.docs > 0 && r.bytes < r.docs*10 {
			t.Fatalf("suspiciously low byte count %d for %d docs", r.bytes, r.docs)
		}
	}
}
