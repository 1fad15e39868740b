package qa

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"

	"distqa/internal/corpus"
	"distqa/internal/index"
)

// goldenDigests are the sha256 digests of one collection's observable
// pipeline output, taken from the engine before the in-memory layout of
// tokens and paragraph term tables changed. They pin that change (and any
// later one) to byte-identical answers, bit-identical virtual costs — which
// the simulator's Tables 5–11 charge from — and a byte-identical DQIX
// snapshot.
type goldenDigests struct {
	// answers covers every field of every AnswerSequential answer (scores as
	// float bits) plus the Retrieved/Accepted counts.
	answers string
	// costs covers every module's Cost of AnswerSequential, as float bits.
	costs string
	// grouped covers a 2-way round-robin split of the accepted paragraphs:
	// both ExtractAnswers groups with their costs, then MergeAnswerSets.
	grouped string
	// snapshot is the digest of index.Set.Save over BuildAll.
	snapshot string
}

func TestGoldenAnswersCostsSnapshot(t *testing.T) {
	cases := []struct {
		cfg  corpus.Config
		want goldenDigests
	}{
		{corpus.Tiny(), goldenDigests{
			answers:  "745506e85b64c7b7684008eed883c982f03e482f2232e0f839e5427ddf5e0577",
			costs:    "bde18a36e2a17d0236b06320d76a93c520ec0a29649aa18cdc940acd43c4ef5a",
			grouped:  "dd58d38d61101eddbcc7aa93d90e7b61a3ff1a86f6fe8788af69ae97d3a8cb88",
			snapshot: "e346fcd9518b720a4aa1af02797fcd841358cff04c06f2900f4d3c78c48437bd",
		}},
		{corpus.TREC8Like(), goldenDigests{
			answers:  "ab94bdfb3d271f685bcbea27c064f96076a29f1d0f895b3c17ef9ba5e30e15b5",
			costs:    "27160da94f41636cc322c176a9c6fd16c028861d13bf477f49c74a77cfe4337c",
			grouped:  "4595bcc11cdc2459e3af8e981a15e3f8a490052a637d8a08d470f275da539458",
			snapshot: "42be04587165713bb8297e93e89cb41ba3266c16c55e799ef68a36fee9086e4a",
		}},
	}
	for _, tc := range cases {
		t.Run(tc.cfg.Name, func(t *testing.T) {
			coll := corpus.Generate(tc.cfg)
			got := goldenDigestsOf(t, coll)
			if got != tc.want {
				t.Errorf("digests changed:\n got  %+v\n want %+v", got, tc.want)
			}
		})
	}
}

func goldenDigestsOf(t *testing.T, coll *corpus.Collection) goldenDigests {
	t.Helper()
	set := index.BuildAll(coll)
	e := NewEngine(coll, set)
	answers, costs, grouped := sha256.New(), sha256.New(), sha256.New()
	for _, f := range coll.Facts {
		res := e.AnswerSequential(f.Question)
		hashInts(answers, res.Retrieved, res.Accepted)
		hashAnswers(answers, res.Answers)
		m := res.Costs
		for _, c := range []Cost{m.QP, m.PR, m.PS, m.PO, m.AP, m.Sort} {
			hashCost(costs, c)
		}

		a, _ := e.QuestionProcessing(f.Question)
		retrieved, _ := e.RetrieveAll(a)
		scored, _ := e.ScoreParagraphs(a, retrieved)
		accepted, _ := e.OrderParagraphs(scored)
		var split [2][]ScoredParagraph
		for i, sp := range accepted {
			split[i%2] = append(split[i%2], sp)
		}
		var groups [][]Answer
		for _, g := range split {
			as, c := e.ExtractAnswers(a, g)
			hashAnswers(grouped, as)
			hashCost(grouped, c)
			groups = append(groups, as)
		}
		merged, c := e.MergeAnswerSets(groups)
		hashAnswers(grouped, merged)
		hashCost(grouped, c)
	}
	var snap bytes.Buffer
	if err := set.Save(&snap); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(snap.Bytes())
	return goldenDigests{
		answers:  hex.EncodeToString(answers.Sum(nil)),
		costs:    hex.EncodeToString(costs.Sum(nil)),
		grouped:  hex.EncodeToString(grouped.Sum(nil)),
		snapshot: hex.EncodeToString(sum[:]),
	}
}

func hashAnswers(h hash.Hash, as []Answer) {
	hashInts(h, len(as))
	for _, a := range as {
		hashString(h, a.Text)
		hashInts(h, int(a.Type))
		hashFloats(h, a.Score)
		hashInts(h, a.ParaID, a.WindowStart, a.WindowEnd, a.CandStart, a.CandEnd)
		hashString(h, a.Snippet)
	}
}

func hashCost(h hash.Hash, c Cost) { hashFloats(h, c.CPUSeconds, c.DiskBytes, c.MemMB) }

func hashInts(h hash.Hash, xs ...int) {
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], uint64(x))
		h.Write(b[:])
	}
}

func hashFloats(h hash.Hash, xs ...float64) {
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
}

func hashString(h hash.Hash, s string) {
	hashInts(h, len(s))
	h.Write([]byte(s))
}
