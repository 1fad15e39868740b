package qa

import (
	"strings"
	"testing"

	"distqa/internal/corpus"
	"distqa/internal/index"
	"distqa/internal/nlp"
)

var (
	testColl   = corpus.Generate(corpus.Tiny())
	testEngine = NewEngine(testColl, index.BuildAll(testColl))
)

func TestAnswerAccuracy(t *testing.T) {
	top1, top5 := 0, 0
	for _, f := range testColl.Facts {
		res := testEngine.AnswerSequential(f.Question)
		if len(res.Answers) == 0 {
			t.Logf("fact %d: no answers for %q (want %q)", f.ID, f.Question, f.Answer)
			continue
		}
		if strings.EqualFold(res.Answers[0].Text, f.Answer) {
			top1++
		}
		for _, a := range res.Answers {
			if strings.EqualFold(a.Text, f.Answer) {
				top5++
				break
			}
		}
	}
	n := len(testColl.Facts)
	t.Logf("top-1: %d/%d, top-5: %d/%d", top1, n, top5, n)
	// Falcon answered 66.4%/86.1% (short/long) at TREC-9; our planted corpus
	// should do at least comparably for the pipeline to be credible.
	if top5 < n*70/100 {
		t.Errorf("top-5 accuracy %d/%d below 70%%", top5, n)
	}
	if top1 < n*50/100 {
		t.Errorf("top-1 accuracy %d/%d below 50%%", top1, n)
	}
}

func TestAnswersMatchType(t *testing.T) {
	for _, f := range testColl.Facts[:10] {
		res := testEngine.AnswerSequential(f.Question)
		for _, a := range res.Answers {
			if a.Type != f.AnswerType {
				t.Errorf("fact %d: answer %q has type %v, want %v", f.ID, a.Text, a.Type, f.AnswerType)
			}
			if a.Snippet == "" {
				t.Errorf("fact %d: empty snippet for %q", f.ID, a.Text)
			}
		}
	}
}

func TestResultCounts(t *testing.T) {
	f := testColl.Facts[0]
	res := testEngine.AnswerSequential(f.Question)
	if res.Retrieved == 0 {
		t.Fatal("no paragraphs retrieved")
	}
	if res.Accepted == 0 || res.Accepted > res.Retrieved {
		t.Fatalf("accepted=%d retrieved=%d", res.Accepted, res.Retrieved)
	}
	if res.Accepted > testEngine.Params.MaxAccepted {
		t.Fatalf("accepted %d exceeds cap", res.Accepted)
	}
}

func TestDeterministicResults(t *testing.T) {
	f := testColl.Facts[3]
	r1 := testEngine.AnswerSequential(f.Question)
	r2 := testEngine.AnswerSequential(f.Question)
	if len(r1.Answers) != len(r2.Answers) {
		t.Fatalf("answer counts differ: %d vs %d", len(r1.Answers), len(r2.Answers))
	}
	for i := range r1.Answers {
		if r1.Answers[i] != r2.Answers[i] {
			t.Fatalf("answer %d differs: %+v vs %+v", i, r1.Answers[i], r2.Answers[i])
		}
	}
}

func TestCostProfileShape(t *testing.T) {
	// On the testbed hardware profile the AP module must dominate and PR
	// must be disk-bound — the paper's Table 2/Table 3 shape.
	var total ModuleCosts
	n := 0
	for _, f := range testColl.Facts {
		res := testEngine.AnswerSequential(f.Question)
		total.QP = total.QP.Add(res.Costs.QP)
		total.PR = total.PR.Add(res.Costs.PR)
		total.PS = total.PS.Add(res.Costs.PS)
		total.PO = total.PO.Add(res.Costs.PO)
		total.AP = total.AP.Add(res.Costs.AP)
		total.Sort = total.Sort.Add(res.Costs.Sort)
		n++
	}
	nom := total.Nominal(1.0, 25e6)
	t.Logf("avg nominal seconds: QP=%.2f PR=%.2f PS=%.2f PO=%.3f AP=%.2f total=%.2f",
		nom.QP/float64(n), nom.PR/float64(n), nom.PS/float64(n), nom.PO/float64(n), nom.AP/float64(n), nom.Total/float64(n))
	if nom.AP < nom.PR {
		t.Errorf("AP (%f) should dominate PR (%f) in the TREC-9-shaped profile", nom.AP, nom.PR)
	}
	if total.AP.DiskBytes != 0 {
		t.Errorf("AP must be pure CPU (Table 3), got %f disk bytes", total.AP.DiskBytes)
	}
	if total.PR.DiskBytes == 0 {
		t.Error("PR must be disk-bound (Table 3)")
	}
	cpuShare := total.PR.CPUSeconds / (total.PR.CPUSeconds + total.PR.DiskBytes/25e6)
	if cpuShare > 0.4 {
		t.Errorf("PR CPU share = %.2f, want ≤ 0.4 (paper: 0.20)", cpuShare)
	}
}

func TestRetrieveSubCostsVary(t *testing.T) {
	f := testColl.Facts[0]
	a, _ := testEngine.QuestionProcessing(f.Question)
	var costs []float64
	for sub := 0; sub < testEngine.Set.Len(); sub++ {
		_, c := testEngine.RetrieveSub(a, sub)
		costs = append(costs, c.DiskBytes)
		if c.DiskBytes <= 0 {
			t.Fatalf("sub %d charged no disk", sub)
		}
	}
	min, max := costs[0], costs[0]
	for _, c := range costs {
		if c < min {
			min = c
		}
		if c > max {
			max = c
		}
	}
	if max == min {
		t.Error("PR sub-task costs are identical; granularity variance missing")
	}
}

func TestOrderParagraphsSortedAndFiltered(t *testing.T) {
	f := testColl.Facts[2]
	a, _ := testEngine.QuestionProcessing(f.Question)
	retrieved, _ := testEngine.RetrieveAll(a)
	scored, _ := testEngine.ScoreParagraphs(a, retrieved)
	accepted, _ := testEngine.OrderParagraphs(scored)
	for i := 1; i < len(accepted); i++ {
		if accepted[i].Score > accepted[i-1].Score {
			t.Fatalf("accepted not sorted at %d", i)
		}
	}
	for _, sp := range accepted {
		if sp.Score < testEngine.Params.AcceptThreshold {
			t.Fatalf("paragraph below threshold accepted: %f", sp.Score)
		}
	}
	if len(accepted) > testEngine.Params.MaxAccepted {
		t.Fatalf("cap exceeded: %d", len(accepted))
	}
}

func TestScoreMonotonicInMatches(t *testing.T) {
	// A paragraph containing all keywords must outscore one with a strict
	// subset, all else equal. Construct synthetic paragraphs.
	a := nlp.QuestionAnalysis{Keywords: []string{"alpha", "beta", "gamma"}}
	full := &corpus.Paragraph{Tokens: nlp.Tokenize("alpha beta gamma together")}
	partial := &corpus.Paragraph{Tokens: nlp.Tokenize("alpha beta something else entirely")}
	sFull := testEngine.scoreOne(a, index.Retrieved{Para: full}, new(keywordHits))
	sPartial := testEngine.scoreOne(a, index.Retrieved{Para: partial}, new(keywordHits))
	if sFull.Score <= sPartial.Score {
		t.Fatalf("full=%f ≤ partial=%f", sFull.Score, sPartial.Score)
	}
	if sFull.Matched != 3 || sPartial.Matched != 2 {
		t.Fatalf("matched counts wrong: %d, %d", sFull.Matched, sPartial.Matched)
	}
}

func TestProximityBreaksTies(t *testing.T) {
	a := nlp.QuestionAnalysis{Keywords: []string{"alpha", "beta"}}
	near := &corpus.Paragraph{Tokens: nlp.Tokenize("alpha beta")}
	far := &corpus.Paragraph{Tokens: nlp.Tokenize("alpha one two three four five six seven beta")}
	sNear := testEngine.scoreOne(a, index.Retrieved{Para: near}, new(keywordHits))
	sFar := testEngine.scoreOne(a, index.Retrieved{Para: far}, new(keywordHits))
	if sNear.Score <= sFar.Score {
		t.Fatalf("near=%f ≤ far=%f", sNear.Score, sFar.Score)
	}
}

func TestMergeAnswerSetsDeduplicates(t *testing.T) {
	a1 := Answer{Text: "Port Kalmir", Score: 5, ParaID: 1}
	a2 := Answer{Text: "port kalmir", Score: 4, ParaID: 2}
	a3 := Answer{Text: "Lake Norin", Score: 4.5, ParaID: 3}
	merged, _ := testEngine.MergeAnswerSets([][]Answer{{a1}, {a2, a3}})
	if len(merged) != 2 {
		t.Fatalf("merged = %d answers, want 2 (dedup by text)", len(merged))
	}
	// Redundancy bonus: Port Kalmir appears twice → 5 + 0.3 = 5.3.
	if merged[0].Text != "Port Kalmir" {
		t.Fatalf("top answer %q, want Port Kalmir", merged[0].Text)
	}
	if merged[0].Score < 5.29 || merged[0].Score > 5.31 {
		t.Fatalf("redundancy bonus not applied: %f", merged[0].Score)
	}
}

func TestMergeAnswerSetsCapsAtRequested(t *testing.T) {
	var group []Answer
	for i := 0; i < 20; i++ {
		group = append(group, Answer{Text: strings.Repeat("x", i+1), Score: float64(i)})
	}
	merged, _ := testEngine.MergeAnswerSets([][]Answer{group})
	if len(merged) != testEngine.Params.AnswersRequested {
		t.Fatalf("merged = %d, want %d", len(merged), testEngine.Params.AnswersRequested)
	}
	if merged[0].Score < merged[len(merged)-1].Score {
		t.Fatal("merged answers not sorted")
	}
}

func TestExtractAnswersMemoryScalesWithParagraphs(t *testing.T) {
	f := testColl.Facts[1]
	a, _ := testEngine.QuestionProcessing(f.Question)
	retrieved, _ := testEngine.RetrieveAll(a)
	scored, _ := testEngine.ScoreParagraphs(a, retrieved)
	accepted, _ := testEngine.OrderParagraphs(scored)
	if len(accepted) < 2 {
		t.Skip("not enough accepted paragraphs")
	}
	_, cAll := testEngine.ExtractAnswers(a, accepted)
	_, cHalf := testEngine.ExtractAnswers(a, accepted[:len(accepted)/2])
	if cAll.MemMB <= cHalf.MemMB {
		t.Fatalf("memory should scale with paragraphs: %f vs %f", cAll.MemMB, cHalf.MemMB)
	}
	if cAll.CPUSeconds <= cHalf.CPUSeconds {
		t.Fatalf("CPU should scale with paragraphs: %f vs %f", cAll.CPUSeconds, cHalf.CPUSeconds)
	}
}

func TestPartitionedAPEquivalence(t *testing.T) {
	// Splitting the accepted paragraphs across AP sub-tasks and merging
	// must yield the same top answers as the sequential AP (the paper's
	// goal of mimicking sequential output, Section 3.2).
	for _, f := range testColl.Facts[:8] {
		a, _ := testEngine.QuestionProcessing(f.Question)
		retrieved, _ := testEngine.RetrieveAll(a)
		scored, _ := testEngine.ScoreParagraphs(a, retrieved)
		accepted, _ := testEngine.OrderParagraphs(scored)
		seq, _ := testEngine.ExtractAnswers(a, accepted)
		seqFinal, _ := testEngine.MergeAnswerSets([][]Answer{seq})

		var groups [][]Answer
		for i := 0; i < len(accepted); i += 7 {
			hi := i + 7
			if hi > len(accepted) {
				hi = len(accepted)
			}
			g, _ := testEngine.ExtractAnswers(a, accepted[i:hi])
			groups = append(groups, g)
		}
		parFinal, _ := testEngine.MergeAnswerSets(groups)
		if len(seqFinal) == 0 {
			continue
		}
		if len(parFinal) == 0 {
			t.Fatalf("fact %d: partitioned AP lost all answers", f.ID)
		}
		if !strings.EqualFold(seqFinal[0].Text, parFinal[0].Text) {
			t.Errorf("fact %d: top answer differs: sequential %q vs partitioned %q",
				f.ID, seqFinal[0].Text, parFinal[0].Text)
		}
	}
}

func TestWireSizes(t *testing.T) {
	f := testColl.Facts[0]
	a, _ := testEngine.QuestionProcessing(f.Question)
	if KeywordsWireBytes(a.Keywords) <= 0 {
		t.Fatal("keyword wire bytes must be positive")
	}
	retrieved, _ := testEngine.RetrieveAll(a)
	scored, _ := testEngine.ScoreParagraphs(a, retrieved)
	if len(scored) > 0 {
		if ParagraphWireBytes(scored[0]) <= float64(scored[0].Para.RealBytes) {
			t.Fatal("paragraph wire bytes must include header")
		}
		if ParagraphSetWireBytes(scored) <= ParagraphWireBytes(scored[0]) && len(scored) > 1 {
			t.Fatal("set wire bytes must sum")
		}
	}
	ans := Answer{Text: "x", Snippet: "some snippet text"}
	if AnswerWireBytes(ans) <= 0 || AnswerSetWireBytes([]Answer{ans, ans}) != 2*AnswerWireBytes(ans) {
		t.Fatal("answer wire sizing broken")
	}
}

func TestCostAdd(t *testing.T) {
	a := Cost{CPUSeconds: 1, DiskBytes: 10, MemMB: 30}
	b := Cost{CPUSeconds: 2, DiskBytes: 5, MemMB: 20}
	s := a.Add(b)
	if s.CPUSeconds != 3 || s.DiskBytes != 15 || s.MemMB != 30 {
		t.Fatalf("Add = %+v", s)
	}
	if got := a.NominalSeconds(2, 10); got != 0.5+1 {
		t.Fatalf("NominalSeconds = %f", got)
	}
}
