package main

import (
	"bytes"
	"encoding/json"
	"testing"

	"distqa/internal/corpus"
	"distqa/internal/gate"
	"distqa/internal/index"
	"distqa/internal/qa"
)

// gatewayBody encodes answers the way the gateway writes a 200.
func gatewayBody(t *testing.T, answers []gate.AnswerJSON) []byte {
	t.Helper()
	var b bytes.Buffer
	res := &gate.AskResult{Answers: answers, ServedBy: "127.0.0.1:7101", NodeMS: 1.5, ElapsedMS: 2}
	if err := json.NewEncoder(&b).Encode(res); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

func TestOracleGroupings(t *testing.T) {
	coll := corpus.Generate(corpus.Tiny())
	e := qa.NewEngine(coll, index.BuildAll(coll))
	questions := distinctFacts(coll)
	differ := 0
	for _, q := range questions {
		x := newExpectation(e, q)
		if seq := answersJSON(e.AnswerSequential(q).Answers); !bytes.Equal(x.grouped[0], seq) {
			t.Errorf("%q: one-group expectation %s, AnswerSequential %s", q, x.grouped[0], seq)
		}
		for g, list := range x.grouped {
			var answers []gate.AnswerJSON
			if err := json.Unmarshal(list, &answers); err != nil {
				t.Fatal(err)
			}
			if !x.acceptsBody(gatewayBody(t, answers)) {
				t.Errorf("%q: grouping %d rejected", q, g+1)
			}
			if g == 0 {
				// Corrupt the list: nudge the top score, or invent an answer.
				if len(answers) > 0 {
					answers[0].Score += 0.5
				} else {
					answers = []gate.AnswerJSON{{Text: "Nowhere", Type: "LOCATION", Score: 1}}
				}
				if x.acceptsBody(gatewayBody(t, answers)) {
					t.Errorf("%q: corrupted list accepted", q)
				}
			}
		}
		if x.differs() {
			differ++
		}
	}
	// Evidence for the AP-partitioning issue: MergeAnswerSets is not
	// partition-insensitive, so a live node's answers depend on whether it
	// found an idle peer.
	t.Logf("%d of %d questions answer differently under the two AP groupings", differ, len(questions))
}
