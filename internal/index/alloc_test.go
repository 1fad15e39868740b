//go:build !race

// Allocation budgets for the compressed postings hot path (CI runs this
// without -race; testing.AllocsPerRun is unreliable under the race detector
// because instrumentation itself allocates).
package index

import (
	"math"
	"runtime"
	"testing"

	"distqa/internal/corpus"
	"distqa/internal/wire"
)

// TestIndexAllocBudget pins the block-decode allocation budget the
// compressed intersection relies on: decoding a posting block into a warm
// scratch buffer must not allocate at all (budget ≤1 for runtime headroom),
// and a cold decode — empty destination, no capacity — must cost at most 4
// (the decoder pre-grows once, so the expected count is exactly 1).
func TestIndexAllocBudget(t *testing.T) {
	docs := make([]int32, wire.PostingBlockSize)
	for i := range docs {
		docs[i] = int32(i * 13)
	}
	enc := wire.AppendPostingBlock(nil, docs)

	// Steady state: the destination already has block-sized capacity, as the
	// pooled scratch cursor does after its first use.
	dst := make([]int32, 0, wire.PostingBlockSize)
	steady := testing.AllocsPerRun(200, func() {
		var err error
		dst, err = wire.DecodePostingBlock(dst[:0], enc, len(docs))
		if err != nil {
			t.Fatal(err)
		}
	})
	if steady > 1 {
		t.Errorf("steady-state block decode allocates %.1f times per op, want ≤1", steady)
	}

	// Cold: no capacity at all. The decoder's single up-front grow bounds
	// this at 1; the budget of 4 leaves headroom for runtime changes.
	cold := testing.AllocsPerRun(200, func() {
		if _, err := wire.DecodePostingBlock(nil, enc, len(docs)); err != nil {
			t.Fatal(err)
		}
	})
	if cold > 4 {
		t.Errorf("cold block decode allocates %.1f times per op, want ≤4", cold)
	}
}

// TestIntersectionAllocBudget pins the whole compressed Boolean phase:
// with a warm pooled scratch and the relaxation memo disabled, repeating an
// intersection over multi-block lists must stay allocation-free — the
// cursor's block buffer and the candidate buffers all come from the pooled
// scratch.
func TestIntersectionAllocBudget(t *testing.T) {
	coll := equivCorpus(71, 300)
	ix := BuildWith(coll, 0, IndexOptions{Compressed: true})
	// Two frequent stems guarantee multi-block lists in the intersection.
	var ords []int
	ix.EachTerm(func(stem string, df int) {
		if df > wire.PostingBlockSize && len(ords) < 3 {
			ords = append(ords, ix.ordinal(stem))
		}
	})
	if len(ords) < 2 {
		t.Fatalf("corpus has no multi-block stems (got %d)", len(ords))
	}
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	ix.intersectCompressed(ords, sc) // warm the scratch buffers
	allocs := testing.AllocsPerRun(200, func() {
		ix.intersectCompressed(ords, sc)
	})
	if allocs > 1 {
		t.Errorf("warm compressed intersection allocates %.1f times per op, want ≤1", allocs)
	}
}

// TestIndexBytesTracksHeap pins IndexBytes to real memory: building every
// TREC8Like index must grow the live heap by IndexBytes within 15 %. The
// figure counts postings, term dictionary and paragraph term runs; the
// stems a built dictionary shares with the collection's interned tokens are
// counted but not allocated, which is part of the tolerance.
func TestIndexBytesTracksHeap(t *testing.T) {
	coll := corpus.Generate(corpus.TREC8Like())
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	set := BuildAll(coll)
	runtime.GC()
	runtime.ReadMemStats(&after)
	delta := float64(after.HeapAlloc) - float64(before.HeapAlloc)
	got := float64(set.IndexBytes())
	t.Logf("IndexBytes %.2f MB, heap delta %.2f MB", got/(1<<20), delta/(1<<20))
	if math.Abs(got-delta) > 0.15*delta {
		t.Errorf("IndexBytes %.0f B is not within 15%% of the %.0f B heap the build retained", got, delta)
	}
	runtime.KeepAlive(set)
}
