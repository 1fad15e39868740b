package main

import (
	"bytes"
	"encoding/json"

	"distqa/internal/gate"
	"distqa/internal/qa"
)

// expectation holds the answer lists a correct reply to one question may
// carry, as the gateway serializes them: json.Marshal(gate.ProjectAnswers).
//
// A live node answers under one of two AP groupings. With no idle peer it
// extracts from all accepted paragraphs at once, which is AnswerSequential.
// With an idle peer, partitionAP deals the accepted paragraphs round-robin
// over two workers, each keeps its top answers, and MergeAnswerSets
// combines them. The merge's redundancy bonus counts only answers that
// survived each part's cut, so the two groupings can rank differently; the
// oracle therefore accepts either.
type expectation struct {
	grouped [2][]byte
	// prefix is what a correct 200 body starts with, per grouping: AskResult
	// encodes Answers first, then ServedBy.
	prefix [2][]byte
}

func newExpectation(e *qa.Engine, question string) expectation {
	a, _ := e.QuestionProcessing(question)
	rs, _ := e.RetrieveAll(a)
	scored, _ := e.ScoreParagraphs(a, rs)
	accepted, _ := e.OrderParagraphs(scored)

	whole, _ := e.ExtractAnswers(a, accepted)
	one, _ := e.MergeAnswerSets([][]qa.Answer{whole})

	parts := make([][]qa.ScoredParagraph, clusterSize)
	for i, sp := range accepted {
		parts[i%clusterSize] = append(parts[i%clusterSize], sp)
	}
	groups := make([][]qa.Answer, len(parts))
	for i, p := range parts {
		groups[i], _ = e.ExtractAnswers(a, p)
	}
	two, _ := e.MergeAnswerSets(groups)

	var x expectation
	for i, as := range [][]qa.Answer{one, two} {
		x.grouped[i] = answersJSON(as)
		x.prefix[i] = append(append([]byte(`{"answers":`), x.grouped[i]...), `,"served_by":`...)
	}
	return x
}

// buildOracle computes one expectation per cycle question.
func buildOracle(e *qa.Engine, cycle []string) []expectation {
	out := make([]expectation, len(cycle))
	for i, q := range cycle {
		out[i] = newExpectation(e, q)
	}
	return out
}

func answersJSON(as []qa.Answer) []byte {
	b, err := json.Marshal(gate.ProjectAnswers(as))
	if err != nil {
		panic(err) // only a non-finite score can fail: an engine bug
	}
	return b
}

// acceptsBody reports whether a 200 body from POST /v1/ask carries one of
// the expected answer lists.
func (x *expectation) acceptsBody(body []byte) bool {
	return bytes.HasPrefix(body, x.prefix[0]) || bytes.HasPrefix(body, x.prefix[1])
}

// acceptsAnswers reports whether answers (from a direct mux ask) match one
// of the expected lists.
func (x *expectation) acceptsAnswers(as []qa.Answer) bool {
	b := answersJSON(as)
	return bytes.Equal(b, x.grouped[0]) || bytes.Equal(b, x.grouped[1])
}

// differs reports whether the two groupings produce different lists.
func (x *expectation) differs() bool { return !bytes.Equal(x.grouped[0], x.grouped[1]) }
