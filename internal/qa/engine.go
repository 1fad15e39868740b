package qa

import (
	"cmp"
	"slices"
	"strings"
	"sync"
	"time"

	"distqa/internal/corpus"
	"distqa/internal/index"
	"distqa/internal/nlp"
)

// StageObserver receives the wall-clock duration of each pipeline stage the
// engine executes. It is satisfied structurally by obs.Registry's
// StageObserver adapter (package qa stays free of obs imports); stage names
// are the paper's module abbreviations: QP, PR, PS, PO, AP, MERGE.
type StageObserver interface {
	ObserveStage(stage string, seconds float64)
}

// Params are the pipeline's tunables (Falcon's thresholds).
type Params struct {
	// AcceptThreshold is the minimum paragraph score the Paragraph Ordering
	// module lets through to Answer Processing.
	AcceptThreshold float64
	// MaxAccepted caps the paragraphs passed to Answer Processing.
	MaxAccepted int
	// AnswersRequested is N_a, the number of answers returned to the user.
	AnswersRequested int
	// ShortAnswerBytes and LongAnswerBytes are the TREC answer formats.
	ShortAnswerBytes int
	LongAnswerBytes  int
}

// DefaultParams mirrors the paper's TREC setting: 5 answers per question,
// 50-byte short answers, 250-byte long answers.
func DefaultParams() Params {
	return Params{
		AcceptThreshold:  3.0,
		MaxAccepted:      1000,
		AnswersRequested: 5,
		ShortAnswerBytes: 50,
		LongAnswerBytes:  250,
	}
}

// Engine binds the pipeline to one collection and its indexes. Engines are
// read-only after construction and safe for concurrent use; every simulated
// node holds the same Engine, modelling the paper's "each node has a copy of
// the collection".
type Engine struct {
	Coll   *corpus.Collection
	Set    *index.Set
	Cost   CostModel
	Params Params
	// Observer, when non-nil, receives the wall-clock duration of every
	// stage execution. Set it before the engine is shared between
	// goroutines; a nil observer costs one predictable branch per stage.
	Observer StageObserver
	// Workers, when > 1, bounds the worker pool used to fan Paragraph
	// Retrieval out across sub-collection indexes and Paragraph Scoring
	// across paragraph chunks (see parallel.go). 0 or 1 runs sequentially.
	// Answers and virtual-cost accounting are byte-identical either way;
	// set it before the engine is shared between goroutines (typically to
	// runtime.GOMAXPROCS(0) on serving nodes, 0 in the simulator).
	Workers int
}

// observe reports a completed stage to the observer. Call via
// `defer e.observe(stage, time.Now())` — the start time is captured when
// the defer statement executes, the report when the stage returns.
func (e *Engine) observe(stage string, start time.Time) {
	if e.Observer != nil {
		e.Observer.ObserveStage(stage, time.Since(start).Seconds())
	}
}

// NewEngine builds an engine with default cost model and parameters.
func NewEngine(c *corpus.Collection, s *index.Set) *Engine {
	return &Engine{Coll: c, Set: s, Cost: DefaultCostModel(), Params: DefaultParams()}
}

// ScoredParagraph is a paragraph with its PS relevance score.
type ScoredParagraph struct {
	Para *corpus.Paragraph
	// Matched is the number of distinct question keywords present.
	Matched int
	// Score is the PS heuristic combination.
	Score float64
}

// Answer is one extracted answer with its provenance.
type Answer struct {
	// Text is the candidate answer entity's surface form.
	Text string
	// Type is the entity class.
	Type nlp.EntityType
	// Score is the combined AP heuristic score (redundancy applied during
	// answer sorting).
	Score float64
	// ParaID is the source paragraph.
	ParaID int
	// WindowStart/WindowEnd are token positions of the answer window.
	WindowStart, WindowEnd int
	// CandStart/CandEnd are the candidate entity's token positions within
	// the paragraph (the span byte-capped rendering must preserve).
	CandStart, CandEnd int
	// Snippet is the answer-in-context text span.
	Snippet string
}

// ---------------------------------------------------------------------------
// Question Processing (QP)

// QuestionProcessing classifies the question and selects keywords.
func (e *Engine) QuestionProcessing(question string) (nlp.QuestionAnalysis, Cost) {
	defer e.observe("QP", time.Now())
	a := nlp.AnalyzeQuestion(question)
	cost := Cost{
		CPUSeconds: e.Cost.QPBaseCPU + e.Cost.QPPerTokenCPU*float64(len(a.Tokens)),
		MemMB:      e.Cost.MemBaseMB,
	}
	return a, cost
}

// ---------------------------------------------------------------------------
// Paragraph Retrieval (PR) — iterative over sub-collections

// RetrieveSub runs Boolean retrieval plus paragraph extraction over one
// sub-collection. This is the PR module's iteration unit (Table 2:
// granularity "Collection").
func (e *Engine) RetrieveSub(a nlp.QuestionAnalysis, sub int) ([]index.Retrieved, Cost) {
	defer e.observe("PR", time.Now())
	rs, st := e.Set.Sub(sub).RetrieveParagraphs(a.Keywords)
	disk := e.Cost.PRScanFraction*e.Coll.SubVirtualBytes(sub) +
		e.Cost.PRTouchedFactor*e.Coll.VirtualBytesOf(float64(st.RealBytesTouched))
	cost := Cost{
		CPUSeconds: e.Cost.PRCPUPerDiskByte * disk,
		DiskBytes:  disk,
		MemMB:      e.Cost.MemBaseMB,
	}
	return rs, cost
}

// RetrieveAll runs PR over every sub-collection (the sequential system's
// behaviour) and returns the concatenated paragraphs with the summed cost.
// With Engine.Workers > 1 and sub-collections large enough to repay a
// worker, they are retrieved by a bounded worker pool; the merge order and
// cost accounting are byte-identical to the sequential loop.
func (e *Engine) RetrieveAll(a nlp.QuestionAnalysis) ([]index.Retrieved, Cost) {
	if w := e.workers(); w > 1 && e.Set.Len() > 1 &&
		len(e.Coll.Paragraphs()) >= prParallelMinSubParas*len(e.Coll.Subs) {
		return e.retrieveAllParallel(a, w)
	}
	var out []index.Retrieved
	var cost Cost
	for _, sub := range e.Set.Globals() {
		rs, c := e.RetrieveSub(a, sub)
		out = append(out, rs...)
		cost = cost.Add(c)
	}
	return out, cost
}

// ---------------------------------------------------------------------------
// Paragraph Scoring (PS) — iterative over paragraphs

// ScoreParagraphs applies the three surface-text heuristics of the LASSO/
// Falcon paragraph scorer to each retrieved paragraph: keyword coverage,
// keyword proximity, and question-order preservation. With Engine.Workers
// > 1 large paragraph sets are scored by a bounded worker pool in
// contiguous chunks, with byte-identical output and cost accounting.
func (e *Engine) ScoreParagraphs(a nlp.QuestionAnalysis, rs []index.Retrieved) ([]ScoredParagraph, Cost) {
	defer e.observe("PS", time.Now())
	if w := e.workers(); w > 1 && len(rs) >= psParallelMin {
		return e.scoreParagraphsParallel(a, rs, w)
	}
	out := make([]ScoredParagraph, 0, len(rs))
	cost := Cost{MemMB: e.Cost.MemBaseMB}
	h := hitsPool.Get().(*keywordHits)
	for _, r := range rs {
		sp := e.scoreOne(a, r, h)
		out = append(out, sp)
		cost.CPUSeconds += e.Cost.PSPerParagraphCPU + e.Cost.PSPerTokenCPU*float64(len(r.Para.Tokens))
	}
	hitsPool.Put(h)
	return out, cost
}

// ScoreCost reconstructs the Paragraph Scoring cost of scoring the given
// paragraphs in order, without scoring them. This is the sharded
// scatter-gather coordinator's exact cost reconstruction: replicas score
// paragraphs where the index lives, and the coordinator refolds the
// per-paragraph cost terms over the merged list — the sequential loop's
// exact float-addition order, so the accounting is byte-identical no matter
// how the scoring work was split (the same trick scoreParagraphsParallel
// uses intra-node).
func (e *Engine) ScoreCost(paras []ScoredParagraph) Cost {
	cost := Cost{MemMB: e.Cost.MemBaseMB}
	for _, sp := range paras {
		cost.CPUSeconds += e.Cost.PSPerParagraphCPU + e.Cost.PSPerTokenCPU*float64(len(sp.Para.Tokens))
	}
	return cost
}

// scoreOne computes the PS heuristics for a single paragraph, collecting
// its keyword occurrences into h.
func (e *Engine) scoreOne(a nlp.QuestionAnalysis, r index.Retrieved, h *keywordHits) ScoredParagraph {
	h.collect(a.Keywords, r.Para.Tokens)
	matched := 0
	first, last := -1, -1
	order := 0
	prevPos := -1
	for k := range a.Keywords {
		c := h.canon[k]
		if h.count[c] == 0 {
			continue
		}
		p0 := int(h.first[c])
		matched++
		if first < 0 || p0 < first {
			first = p0
		}
		// Span over first occurrences: the tightest grouping determines
		// relevance; later repetitions of a keyword do not dilute it.
		if p0 > last {
			last = p0
		}
		// Order heuristic: does this keyword appear after the previous
		// question keyword's first occurrence?
		if prevPos >= 0 && p0 > prevPos {
			order++
		}
		prevPos = p0
	}
	score := 0.0
	if matched > 0 {
		span := last - first
		score = 3*float64(matched) + float64(order) + 4/float64(1+span)
	}
	return ScoredParagraph{Para: r.Para, Matched: matched, Score: score}
}

// keywordHits is one paragraph's keyword occurrences, collected into
// buffers reused across paragraphs and calls (hitsPool).
// Keywords are addressed by their index in the question's keyword list; a
// repeated keyword shares the occurrences of its first index, canon[k].
type keywordHits struct {
	// canon[k] is the first index holding keyword k's stem.
	canon []int
	// count[c] and first[c] are canonical keyword c's occurrence count and
	// first token position (-1 if absent).
	count, first []int32
	// kw and at list every occurrence in token order: the canonical keyword
	// index and the token position.
	kw, at []int32
	// best is buildWindow's per-keyword scratch.
	best []int32
}

var hitsPool = sync.Pool{New: func() any { return new(keywordHits) }}

// collect records the occurrences of keywords in tokens. Corpus tokens
// carry interned stems, so each comparison is a length check and, rarely, a
// short byte compare.
func (h *keywordHits) collect(keywords []string, tokens []nlp.Token) {
	h.canon, h.count, h.first = h.canon[:0], h.count[:0], h.first[:0]
	for k, kw := range keywords {
		c := k
		for j := 0; j < k; j++ {
			if keywords[j] == kw {
				c = j
				break
			}
		}
		h.canon = append(h.canon, c)
		h.count = append(h.count, 0)
		h.first = append(h.first, -1)
	}
	h.kw, h.at = h.kw[:0], h.at[:0]
	for i, t := range tokens {
		for k, kw := range keywords {
			if t.Stem == kw {
				// The first matching index is the canonical one.
				h.kw = append(h.kw, int32(k))
				h.at = append(h.at, int32(i))
				if h.count[k] == 0 {
					h.first[k] = int32(i)
				}
				h.count[k]++
				break
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Paragraph Ordering (PO) — centralized, sequential

// OrderParagraphs sorts scored paragraphs in descending rank order and
// applies the acceptance threshold and cap. It is deliberately centralized
// (Section 3.2): the filter must see all paragraphs to mimic the sequential
// system's output exactly.
func (e *Engine) OrderParagraphs(ps []ScoredParagraph) ([]ScoredParagraph, Cost) {
	defer e.observe("PO", time.Now())
	sorted := make([]ScoredParagraph, len(ps))
	copy(sorted, ps)
	slices.SortStableFunc(sorted, func(x, y ScoredParagraph) int {
		if x.Score != y.Score {
			return -cmp.Compare(x.Score, y.Score)
		}
		return cmp.Compare(x.Para.ID, y.Para.ID)
	})
	accepted := make([]ScoredParagraph, 0, len(sorted))
	for _, sp := range sorted {
		if sp.Score < e.Params.AcceptThreshold {
			break
		}
		accepted = append(accepted, sp)
		if len(accepted) >= e.Params.MaxAccepted {
			break
		}
	}
	cost := Cost{
		CPUSeconds: e.Cost.POBaseCPU + e.Cost.POPerParagraphCPU*float64(len(ps)),
		MemMB:      e.Cost.MemBaseMB,
	}
	return accepted, cost
}

// ---------------------------------------------------------------------------
// Answer Processing (AP) — iterative over paragraphs

// ExtractAnswers runs candidate detection, answer-window construction and
// the seven scoring heuristics over a set of accepted paragraphs, returning
// the local best answers (at most AnswersRequested — each AP sub-task
// returns N_a answers, Section 4.1).
func (e *Engine) ExtractAnswers(a nlp.QuestionAnalysis, paras []ScoredParagraph) ([]Answer, Cost) {
	defer e.observe("AP", time.Now())
	// Every candidate is an entity, so the entity count bounds the slice.
	entities := 0
	for _, sp := range paras {
		entities += len(sp.Para.Entities)
	}
	var all []Answer
	if entities > 0 {
		all = make([]Answer, 0, entities)
	}
	cost := Cost{
		// Per-invocation startup: question context, extraction state.
		CPUSeconds: e.Cost.APSubtaskBaseCPU,
		MemMB:      e.Cost.MemBaseMB + e.Cost.MemPerParagraphMB*float64(len(paras)),
	}
	h := hitsPool.Get().(*keywordHits)
	for _, sp := range paras {
		var c float64
		all, c = e.extractFromParagraph(all, a, sp, h)
		cost.CPUSeconds += c
	}
	hitsPool.Put(h)
	sortAnswers(all)
	if len(all) > e.Params.AnswersRequested {
		all = all[:e.Params.AnswersRequested]
	}
	// Only survivors get a snippet: it depends on nothing but the paragraph
	// and the window, so rendering it after the cut changes no output.
	for i := range all {
		all[i].Snippet = snippet(e.Coll.Paragraph(all[i].ParaID), all[i].WindowStart, all[i].WindowEnd)
	}
	return all, cost
}

// extractFromParagraph finds typed candidates, appends their scored windows
// to dst, and returns the CPU seconds covering NER, parsing and window
// scoring for this paragraph (Falcon's dominant cost).
func (e *Engine) extractFromParagraph(dst []Answer, a nlp.QuestionAnalysis, sp ScoredParagraph, h *keywordHits) ([]Answer, float64) {
	para := sp.Para
	cpu := e.Cost.APPerParagraphCPU + e.Cost.APPerTokenCPU*float64(len(para.Tokens))
	h.collect(a.Keywords, para.Tokens)
	// Window construction touches every (candidate, keyword occurrence)
	// combination, so keyword-rich paragraphs — exactly the ones the PO
	// module ranks highest — are the most expensive to process (the
	// rank/granularity correlation of Section 4.1.3).
	occurrences := 0
	for _, c := range h.canon {
		occurrences += int(h.count[c])
	}
	for _, ent := range para.Entities {
		// Falcon recognises and scores every entity before the answer-type
		// filter, so each entity costs NER + window work regardless of
		// whether it survives as a candidate.
		cpu += e.Cost.APPerCandidateCPU + e.Cost.APPerWindowCPU*float64(occurrences)
		if a.AnswerType != nlp.UnknownEntity && ent.Type != a.AnswerType {
			continue
		}
		dst = append(dst, e.buildWindow(a, para, sp, ent, h))
	}
	return dst, cpu
}

// buildWindow constructs the answer window around a candidate entity and
// applies the seven heuristics (Section 2.1: frequency and distance metrics
// requiring a candidate answer). h holds the paragraph's keyword
// occurrences. The window carries no snippet; ExtractAnswers renders one
// for each answer it keeps.
func (e *Engine) buildWindow(a nlp.QuestionAnalysis, para *corpus.Paragraph, sp ScoredParagraph, ent nlp.Entity, h *keywordHits) Answer {
	candMid := (ent.Start + ent.End - 1) / 2
	winStart, winEnd := ent.Start, ent.End-1

	// For each present keyword take the occurrence nearest the candidate,
	// the earliest on a tie.
	h.best = h.best[:0]
	for range h.canon {
		h.best = append(h.best, -1)
	}
	for n, c := range h.kw {
		if p := h.at[n]; h.best[c] < 0 || abs(int(p)-candMid) < abs(int(h.best[c])-candMid) {
			h.best[c] = p
		}
	}
	inWindow := 0
	order := 0
	nearest := 1 << 30
	prev := -1
	sameSentence := 0
	for k := range a.Keywords {
		c := h.canon[k]
		if h.count[c] == 0 {
			continue
		}
		best := int(h.best[c])
		inWindow++
		if best < winStart {
			winStart = best
		}
		if best > winEnd {
			winEnd = best
		}
		if d := abs(best - candMid); d < nearest {
			nearest = d
		}
		if prev >= 0 && best > prev {
			order++
		}
		prev = best
		if abs(best-candMid) <= 8 {
			sameSentence++
		}
	}

	span := winEnd - winStart
	h1 := 3.0 * float64(inWindow)                 // keywords in window
	h2 := 2.0 / float64(1+span)                   // window compactness
	h3 := 2.0 / float64(1+nearestOrZero(nearest)) // candidate-keyword distance
	h4 := 0.5 * float64(order)                    // order preservation
	h5 := 0.5 * float64(sameSentence)             // same-sentence bonus
	h6 := 0.2 * sp.Score                          // paragraph score carry-in
	// h7 (answer redundancy across paragraphs) is applied in sortAnswers /
	// MergeAnswerSets, where cross-paragraph information exists.
	score := h1 + h2 + h3 + h4 + h5 + h6

	return Answer{
		Text:        ent.Text,
		Type:        ent.Type,
		Score:       score,
		ParaID:      para.ID,
		WindowStart: winStart,
		WindowEnd:   winEnd + 1,
		CandStart:   ent.Start,
		CandEnd:     ent.End,
	}
}

func nearestOrZero(n int) int {
	if n == 1<<30 {
		return 0
	}
	return n
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// snippet renders the window with a little context, the paper's
// answer-in-text format (Table 1): the words joined by spaces, with "..."
// standing for text cut on either side. It makes one allocation.
func snippet(para *corpus.Paragraph, start, end int) string {
	lo := start - 4
	if lo < 0 {
		lo = 0
	}
	hi := end + 4
	if hi > len(para.Tokens) {
		hi = len(para.Tokens)
	}
	words := para.Tokens[lo:hi]
	size := len(words) + len("... ...")
	for _, t := range words {
		size += len(t.Text)
	}
	var b strings.Builder
	b.Grow(size)
	if lo > 0 {
		b.WriteString("...")
	}
	for _, t := range words {
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(t.Text)
	}
	if hi < len(para.Tokens) {
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		b.WriteString("...")
	}
	return b.String()
}

// AnswerInContext renders an answer in the TREC byte-capped format: the
// text span around the answer window, grown symmetrically token by token
// until the byte budget is reached (the paper's Table 1 shows the 50-byte
// short and 250-byte long formats).
func (e *Engine) AnswerInContext(a Answer, budgetBytes int) string {
	para := e.Coll.Paragraph(a.ParaID)
	toks := para.Tokens
	if len(toks) == 0 {
		return a.Text
	}
	lo, hi := a.WindowStart, a.WindowEnd
	if lo < 0 {
		lo = 0
	}
	if hi > len(toks) {
		hi = len(toks)
	}
	if lo >= hi {
		lo, hi = 0, 1
	}
	size := func(lo, hi int) int {
		n := 0
		for _, t := range toks[lo:hi] {
			n += len(t.Text) + 1
		}
		return n
	}
	// If the whole window overflows the budget, collapse to the candidate
	// span and grow from there — the answer itself must survive the cap.
	if size(lo, hi) > budgetBytes && a.CandEnd > a.CandStart {
		lo, hi = a.CandStart, a.CandEnd
		if lo < 0 {
			lo = 0
		}
		if hi > len(toks) {
			hi = len(toks)
		}
		if lo >= hi {
			lo, hi = 0, 1
		}
	}
	// Grow alternately left and right while the budget allows.
	for {
		grew := false
		if lo > 0 && size(lo-1, hi) <= budgetBytes {
			lo--
			grew = true
		}
		if hi < len(toks) && size(lo, hi+1) <= budgetBytes {
			hi++
			grew = true
		}
		if !grew {
			break
		}
	}
	words := make([]string, hi-lo)
	for i, t := range toks[lo:hi] {
		words[i] = t.Text
	}
	out := strings.Join(words, " ")
	prefix, suffix := "", ""
	if lo > 0 {
		prefix = "... "
	}
	if hi < len(toks) {
		suffix = " ..."
	}
	return prefix + out + suffix
}

// ShortAnswer renders the TREC 50-byte format.
func (e *Engine) ShortAnswer(a Answer) string {
	return e.AnswerInContext(a, e.Params.ShortAnswerBytes)
}

// LongAnswer renders the TREC 250-byte format.
func (e *Engine) LongAnswer(a Answer) string {
	return e.AnswerInContext(a, e.Params.LongAnswerBytes)
}

// ---------------------------------------------------------------------------
// Answer merging and sorting

// MergeAnswerSets combines the answer sets returned by (possibly remote) AP
// sub-tasks, applies the redundancy heuristic (h7), deduplicates by answer
// text, sorts globally, and returns the final top-N_a answers. This is the
// paper's answer merging + answer sorting stage.
func (e *Engine) MergeAnswerSets(groups [][]Answer) ([]Answer, Cost) {
	defer e.observe("MERGE", time.Now())
	var all []Answer
	for _, g := range groups {
		all = append(all, g...)
	}
	counts := make(map[string]int)
	for _, a := range all {
		counts[strings.ToLower(a.Text)]++
	}
	best := make(map[string]Answer)
	for _, a := range all {
		key := strings.ToLower(a.Text)
		a.Score += 0.3 * float64(counts[key]-1) // h7: redundancy bonus
		if cur, ok := best[key]; !ok || a.Score > cur.Score {
			best[key] = a
		}
	}
	merged := make([]Answer, 0, len(best))
	for _, a := range best {
		merged = append(merged, a)
	}
	sortAnswers(merged)
	if len(merged) > e.Params.AnswersRequested {
		merged = merged[:e.Params.AnswersRequested]
	}
	cost := Cost{
		CPUSeconds: e.Cost.SortBaseCPU + e.Cost.SortPerAnswerCPU*float64(len(all)),
		MemMB:      e.Cost.MemBaseMB,
	}
	return merged, cost
}

// sortAnswers orders answers by descending score with deterministic
// tie-breaks.
func sortAnswers(as []Answer) {
	slices.SortStableFunc(as, func(x, y Answer) int {
		if x.Score != y.Score {
			return -cmp.Compare(x.Score, y.Score)
		}
		if x.ParaID != y.ParaID {
			return cmp.Compare(x.ParaID, y.ParaID)
		}
		return strings.Compare(x.Text, y.Text)
	})
}
