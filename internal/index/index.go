// Package index implements the Boolean information-retrieval substrate the
// paper's Paragraph Retrieval module is built on (the paper used a Boolean
// IR system built on top of NIST's Zprise). Each sub-collection is indexed
// separately — the unit of PR partitioning — and retrieval reports the
// virtual disk traffic it generated so the simulator can charge it.
//
// Retrieval follows Falcon's shape: a Boolean AND of the question keywords
// over the document index, relaxed by dropping the most restrictive keyword
// while too few documents match, followed by a post-processing phase that
// extracts from the matched documents the paragraphs containing enough of
// the original keywords. Documents and paragraphs are NOT ranked here; that
// is the job of the downstream Paragraph Scoring module (the paper is
// explicit that its Boolean IR returns unranked paragraphs).
package index

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"unsafe"

	"distqa/internal/corpus"
)

// MinDocs is the relaxation target: while fewer documents match, the most
// restrictive keyword is dropped (until a single keyword remains).
const MinDocs = 10

// IndexOptions selects the posting-storage core. The compressed core
// (default) stores each list as delta+varint blocks with a skip table
// (postings.go); the plain core keeps sorted []int32 slices and serves as
// the equivalence oracle for the compressed one. Everything observable —
// retrieval output, DocFreq, relaxation, Stats — is bit-identical across
// the two.
type IndexOptions struct {
	// Compressed selects the block-compressed postings core.
	Compressed bool
}

// DefaultOptions returns the production configuration: compressed postings.
func DefaultOptions() IndexOptions { return IndexOptions{Compressed: true} }

// Index is the inverted index of one sub-collection. Every per-term table
// is keyed by the term's ordinal in the sorted dictionary, which is also the
// layout of the DQIX snapshot (persist.go): save and load convert nothing.
type Index struct {
	coll *corpus.Collection
	sub  int
	docs []*corpus.Document

	// terms is the sorted term dictionary; a stem's position is its ordinal.
	terms []string

	// Exactly one postings store is populated, indexed by ordinal. postings
	// holds each stem's sorted local doc offsets (plain core); comp locates
	// each stem's compressed list in the shared blocks region and skips
	// table (compressed core).
	postings [][]int32
	comp     []compEntry
	blocks   []byte
	skips    []skipEntry

	// runs holds every paragraph's distinct stems as (ordinal, count) pairs
	// sorted by ordinal, paragraph after paragraph in document order: the
	// i-th paragraph of the sub-collection owns runs[runStart[i]:runStart[i+1]],
	// and docStart[d] is the number of local document d's first paragraph.
	runs     []termCount
	runStart []uint32
	docStart []uint32

	indexBytes int // real bytes of everything above (IndexBytes)

	// cache memoizes Boolean relaxation results per keyword set (cache.go).
	cache *relaxCache
}

// termCount is one entry of a paragraph's term run.
type termCount struct {
	ord, count uint32
}

// Build constructs the inverted index for sub-collection sub with the
// default options (compressed postings).
func Build(c *corpus.Collection, sub int) *Index {
	return BuildWith(c, sub, DefaultOptions())
}

// BuildWith constructs the inverted index for sub-collection sub with an
// explicit posting-core selection.
func BuildWith(c *corpus.Collection, sub int, opts IndexOptions) *Index {
	ix := &Index{
		coll:     c,
		sub:      sub,
		docs:     c.Subs[sub].Docs,
		docStart: make([]uint32, len(c.Subs[sub].Docs)),
		cache:    newRelaxCache(defaultRelaxCacheCap),
	}
	// Number stems in first-seen order while collecting each stem's postings
	// and each paragraph's (id, count) run; then sort the dictionary and
	// renumber everything by ordinal.
	ids := make(map[string]uint32)
	var stems []string
	var lists [][]int32
	var counts, touched []uint32
	var runs []termCount
	runStart := []uint32{0}
	for local, doc := range ix.docs {
		ix.docStart[local] = uint32(len(runStart) - 1)
		for _, p := range doc.Paragraphs {
			for _, t := range p.Tokens {
				if t.Stem == "" {
					continue
				}
				id, ok := ids[t.Stem]
				if !ok {
					id = uint32(len(stems))
					ids[t.Stem] = id
					stems = append(stems, t.Stem)
					lists = append(lists, nil)
					counts = append(counts, 0)
				}
				if counts[id] == 0 {
					touched = append(touched, id)
				}
				counts[id]++
				if l := lists[id]; len(l) == 0 || l[len(l)-1] != int32(local) {
					lists[id] = append(l, int32(local))
				}
			}
			for _, id := range touched {
				runs = append(runs, termCount{ord: id, count: counts[id]})
				counts[id] = 0
			}
			touched = touched[:0]
			runStart = append(runStart, uint32(len(runs)))
		}
	}

	byOrd := make([]uint32, len(stems))
	for i := range byOrd {
		byOrd[i] = uint32(i)
	}
	slices.SortFunc(byOrd, func(a, b uint32) int { return strings.Compare(stems[a], stems[b]) })
	ordOf := make([]uint32, len(stems))
	ix.terms = make([]string, len(stems))
	for ord, id := range byOrd {
		ix.terms[ord] = stems[id]
		ordOf[id] = uint32(ord)
	}
	ix.runs = make([]termCount, len(runs))
	for i, tc := range runs {
		ix.runs[i] = termCount{ord: ordOf[tc.ord], count: tc.count}
	}
	for i := 1; i < len(runStart); i++ {
		slices.SortFunc(ix.runs[runStart[i-1]:runStart[i]], func(a, b termCount) int { return cmp.Compare(a.ord, b.ord) })
	}
	// Exact-size copies: append's growth slack would stay resident.
	ix.runStart = append(make([]uint32, 0, len(runStart)), runStart...)

	if opts.Compressed {
		ix.comp = make([]compEntry, len(stems))
		var blocks []byte
		var skips []skipEntry
		for ord, id := range byOrd {
			blocks, skips, ix.comp[ord] = appendPostings(blocks, skips, lists[id])
		}
		ix.blocks = append(make([]byte, 0, len(blocks)), blocks...)
		ix.skips = append(make([]skipEntry, 0, len(skips)), skips...)
	} else {
		ix.postings = make([][]int32, len(stems))
		for ord, id := range byOrd {
			ix.postings[ord] = lists[id]
		}
	}
	ix.recomputeIndexBytes()
	return ix
}

// recomputeIndexBytes derives indexBytes from the live structures. Called
// at build time AND after snapshot load, so a reloaded index reports the
// same memory figure a fresh build would (the figure is never persisted;
// see persist.go).
func (ix *Index) recomputeIndexBytes() {
	total := ix.PostingsBytes()
	total += len(ix.terms) * int(unsafe.Sizeof(""))
	for _, t := range ix.terms {
		total += len(t)
	}
	total += len(ix.runs)*int(unsafe.Sizeof(termCount{})) + 4*(len(ix.runStart)+len(ix.docStart))
	ix.indexBytes = total
}

// PostingsBytes reports the real size of the postings core alone: per-term
// list records, posting data and skip tables. It is the part of IndexBytes
// the plain and compressed cores differ in.
func (ix *Index) PostingsBytes() int {
	if ix.comp != nil {
		return len(ix.comp)*int(unsafe.Sizeof(compEntry{})) + len(ix.blocks) +
			len(ix.skips)*int(unsafe.Sizeof(skipEntry{}))
	}
	total := len(ix.postings) * int(unsafe.Sizeof([]int32(nil)))
	for _, list := range ix.postings {
		total += 4 * len(list)
	}
	return total
}

// Sub returns the sub-collection id this index covers.
func (ix *Index) Sub() int { return ix.sub }

// Compressed reports whether this index uses the compressed postings core.
func (ix *Index) Compressed() bool { return ix.comp != nil }

// Terms reports the number of distinct indexed stems.
func (ix *Index) Terms() int { return len(ix.terms) }

// IndexBytes reports the real size of everything the index holds: the
// postings core, the term dictionary (stem bytes included, though a built
// index shares them with the collection's interned tokens) and the
// paragraph term runs.
func (ix *Index) IndexBytes() int { return ix.indexBytes }

// ordinal returns stem's dictionary ordinal, or -1 if it is not indexed.
func (ix *Index) ordinal(stem string) int {
	if ord, ok := slices.BinarySearch(ix.terms, stem); ok {
		return ord
	}
	return -1
}

// df returns the document frequency of ordinal ord (0 for -1).
func (ix *Index) df(ord int) int {
	switch {
	case ord < 0:
		return 0
	case ix.comp != nil:
		return int(ix.comp[ord].df)
	default:
		return len(ix.postings[ord])
	}
}

// list returns the compressed posting list of ordinal ord.
func (ix *Index) list(ord int) compList {
	return viewList(ix.blocks, ix.skips, ix.comp[ord])
}

// run returns the term run of the sub-collection's i-th paragraph.
func (ix *Index) run(i uint32) []termCount {
	return ix.runs[ix.runStart[i]:ix.runStart[i+1]]
}

// DocFreq reports how many documents of this sub-collection contain stem.
func (ix *Index) DocFreq(stem string) int { return ix.df(ix.ordinal(stem)) }

// EachTerm calls f once per indexed stem with its document frequency, in
// ascending stem order. It is the vocabulary-enumeration seam the shard
// term summaries (shard.BuildSummary) are built from; the postings
// themselves stay private.
func (ix *Index) EachTerm(f func(stem string, df int)) {
	for ord, stem := range ix.terms {
		f(stem, ix.df(ord))
	}
}

// Retrieved is one paragraph extracted by retrieval, with the number of
// distinct query keywords it contains.
type Retrieved struct {
	Para    *corpus.Paragraph
	Matched int
}

// Stats describes the work one retrieval performed, for virtual cost
// accounting.
type Stats struct {
	// KeywordsUsed is the number of keywords remaining after relaxation.
	KeywordsUsed int
	// DocsMatched is the number of documents satisfying the Boolean query.
	DocsMatched int
	// ParagraphsScanned counts paragraphs examined during extraction.
	ParagraphsScanned int
	// RealBytesTouched is the real text + postings bytes this retrieval
	// read; multiply by the collection scale for virtual disk traffic.
	RealBytesTouched int
}

// RetrieveParagraphs runs the Boolean query for the given keyword stems and
// extracts matching paragraphs from the matching documents. A paragraph
// qualifies if it contains at least half (rounded up) of the original
// keywords.
//
// Each keyword is resolved to its dictionary ordinal once. The
// Boolean-with-relaxation phase runs on sorted postings with a
// merge/galloping intersection over pooled scratch buffers, and its result
// is memoized in a small per-index LRU keyed by the (deduplicated, ordered)
// keyword set — repeated and near-identical questions skip the relaxation
// loop entirely. Paragraph extraction binary-searches each matched
// paragraph's term run for the keyword ordinals. The reported Stats are
// byte-identical whether the result came from the cache or a fresh
// evaluation: the virtual disk charge models the reads the Boolean engine
// logically performs, not host-side memoization luck, so the simulator's
// cost accounting stays reproducible.
func (ix *Index) RetrieveParagraphs(keywords []string) ([]Retrieved, Stats) {
	var st Stats
	if len(keywords) == 0 {
		return nil, st
	}
	// Deduplicate while preserving order.
	sc := scratchPool.Get().(*scratch)
	kws := dedupInto(sc.kws[:0], keywords)
	sc.kws = kws
	ords := sc.ords[:0]
	for _, k := range kws {
		ord := ix.ordinal(k)
		ords = append(ords, ord)
		// Charge postings reads for every keyword we look at.
		st.RealBytesTouched += len(k) + 4*ix.df(ord)
	}
	sc.ords = ords

	// Boolean AND with relaxation, memoized per keyword set.
	key := cacheKey(sc.key[:0], kws)
	sc.key = key
	rr, ok := ix.cache.get(key)
	if !ok {
		rr = ix.relax(ords, sc)
		ix.cache.put(key, rr)
	}
	st.KeywordsUsed = rr.used
	st.DocsMatched = len(rr.docs)

	// Paragraph extraction from matched documents.
	need := (len(kws) + 1) / 2
	if need < 1 {
		need = 1
	}
	var out []Retrieved
	for _, local := range rr.docs {
		doc := ix.docs[local]
		st.RealBytesTouched += doc.RealBytes
		first := ix.docStart[local]
		for i, p := range doc.Paragraphs {
			st.ParagraphsScanned++
			run := ix.run(first + uint32(i))
			matched := 0
			for _, ord := range ords {
				if ord >= 0 && runHas(run, uint32(ord)) {
					matched++
				}
			}
			if matched >= need {
				out = append(out, Retrieved{Para: p, Matched: matched})
			}
		}
	}
	scratchPool.Put(sc)
	return out, st
}

// runHas reports whether a term run holds ordinal ord.
func runHas(run []termCount, ord uint32) bool {
	lo, hi := 0, len(run)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if run[mid].ord < ord {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(run) && run[lo].ord == ord
}

// relaxResult is one memoized Boolean evaluation: how many keywords
// survived relaxation and the matching local doc offsets. docs is owned by
// the cache and must be treated as immutable.
type relaxResult struct {
	used int
	docs []int32
}

// relax runs the Boolean AND with relaxation: drop the most restrictive
// (lowest document frequency) keyword while too few documents match.
// Unknown keywords carry ordinal -1 and document frequency 0.
func (ix *Index) relax(ords []int, sc *scratch) relaxResult {
	active := append(sc.active[:0], ords...)
	var docs []int32
	for {
		docs = ix.intersect(active, sc)
		if len(docs) >= MinDocs || len(active) <= 1 {
			break
		}
		drop := 0
		for i := 1; i < len(active); i++ {
			if ix.df(active[i]) < ix.df(active[drop]) {
				drop = i
			}
		}
		active = append(active[:drop], active[drop+1:]...)
	}
	sc.active = active[:0]
	// Copy out of the scratch buffers: the returned result outlives this
	// call (it is cached), the scratch does not.
	return relaxResult{used: len(active), docs: append([]int32(nil), docs...)}
}

// scratch holds the per-retrieval working buffers, pooled so steady-state
// retrieval performs no intersection allocations.
type scratch struct {
	kws    []string
	ords   []int
	active []int
	key    []byte
	lists  [][]int32
	bufA   []int32
	bufB   []int32
	// Compressed-core working state: the per-query list selection and the
	// block-decode cursor (whose buffer is the single pooled scratch that
	// keeps steady-state block decode inside the alloc pin).
	comps []compList
	cur   compCursor
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// intersect returns the sorted doc offsets containing every ordinal in ords
// (none if any is -1). The result may alias sc's buffers or a postings list;
// callers must copy it before sc is reused.
func (ix *Index) intersect(ords []int, sc *scratch) []int32 {
	if ix.comp != nil {
		return ix.intersectCompressed(ords, sc)
	}
	if len(ords) == 0 {
		return nil
	}
	sc.lists = sc.lists[:0]
	for _, ord := range ords {
		if ord < 0 {
			return nil
		}
		sc.lists = append(sc.lists, ix.postings[ord])
	}
	// Intersect in ascending length order: the running result can only
	// shrink, so starting small bounds every later merge.
	sort.Slice(sc.lists, func(i, j int) bool { return len(sc.lists[i]) < len(sc.lists[j]) })
	result := sc.lists[0]
	a, b := sc.bufA, sc.bufB
	for _, list := range sc.lists[1:] {
		a = intersectInto(a[:0], result, list)
		result = a
		a, b = b, a
		if len(result) == 0 {
			break
		}
	}
	sc.bufA, sc.bufB = a, b
	return result
}

// intersectCompressed is the compressed-core twin of intersect: it decodes
// the shortest (lowest-df) list fully as the candidate seed, then runs each
// longer list through a skip-seeking cursor that decompresses only the
// blocks a surviving candidate can land in. The result is the same sorted
// intersection the plain core produces — set intersection is independent of
// operand order and representation — and may alias sc's buffers; callers
// must copy it before sc is reused.
func (ix *Index) intersectCompressed(ords []int, sc *scratch) []int32 {
	if len(ords) == 0 {
		return nil
	}
	sc.comps = sc.comps[:0]
	for _, ord := range ords {
		if ord < 0 {
			return nil
		}
		sc.comps = append(sc.comps, ix.list(ord))
	}
	// Ascending document frequency: the running result can only shrink, so
	// seeding with the rarest term bounds every later cursor walk. Insertion
	// sort — keyword sets are a handful of terms, and sort.Slice would cost
	// two allocations per query that the alloc pin forbids.
	for i := 1; i < len(sc.comps); i++ {
		for j := i; j > 0 && sc.comps[j].df < sc.comps[j-1].df; j-- {
			sc.comps[j], sc.comps[j-1] = sc.comps[j-1], sc.comps[j]
		}
	}
	a := sc.comps[0].decodeAll(sc.bufA[:0])
	b := sc.bufB
	result := a
	for _, cl := range sc.comps[1:] {
		b = intersectComp(b[:0], result, cl, &sc.cur)
		result = b
		a, b = b, a
		if len(result) == 0 {
			break
		}
	}
	sc.bufA, sc.bufB = a, b
	return result
}

// gallopRatio is the length skew at which the intersection switches from a
// linear merge to galloping search in the longer list.
const gallopRatio = 16

// intersectInto appends the intersection of sorted lists a and b to dst
// (len(a) <= len(b) is assumed by the galloping branch's profitability, not
// required for correctness).
func intersectInto(dst, a, b []int32) []int32 {
	if len(a) == 0 || len(b) == 0 {
		return dst
	}
	if len(b) >= gallopRatio*len(a) {
		// Galloping: for each element of the short list, exponential-probe
		// then binary-search the long list — O(len(a)·log(len(b)/len(a)))
		// instead of O(len(a)+len(b)).
		j := 0
		for _, x := range a {
			j += gallop(b[j:], x)
			if j >= len(b) {
				break
			}
			if b[j] == x {
				dst = append(dst, x)
				j++
			}
		}
		return dst
	}
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			dst = append(dst, a[i])
			i++
			j++
		}
	}
	return dst
}

// gallop returns the index of the first element of sorted s that is >= x,
// probing exponentially from the front and binary-searching the bracketed
// range.
func gallop(s []int32, x int32) int {
	hi := 1
	for hi < len(s) && s[hi-1] < x {
		hi <<= 1
	}
	lo := hi >> 1
	if hi > len(s) {
		hi = len(s)
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// dedupInto appends the distinct non-empty keywords to dst in first-seen
// order. Question keyword sets are small (a handful of stems), so a linear
// scan beats allocating a set per query.
func dedupInto(dst, ws []string) []string {
	for _, w := range ws {
		if w == "" {
			continue
		}
		seen := false
		for _, d := range dst {
			if d == w {
				seen = true
				break
			}
		}
		if !seen {
			dst = append(dst, w)
		}
	}
	return dst
}

// cacheKey appends the canonical cache key of an ordered keyword set to dst
// (keywords joined by a separator that cannot appear in a stem).
func cacheKey(dst []byte, kws []string) []byte {
	for i, k := range kws {
		if i > 0 {
			dst = append(dst, 0x1f)
		}
		dst = append(dst, k...)
	}
	return dst
}

// Set is a collection's index: one Index per held sub-collection. A full
// set (BuildAll) holds every sub-collection; a shard-scoped set (BuildSubset)
// holds only the subs assigned to a node's shards. Indexes are addressed by
// their *global* sub-collection id — for full sets that is the positional
// index, so pre-sharding callers are unchanged.
type Set struct {
	Coll    *corpus.Collection
	Indexes []*Index

	// globals[i] is the global sub-collection id of Indexes[i], always
	// strictly increasing. byGlobal is the reverse lookup; nil for full sets
	// (where global id == position and no map is needed).
	globals  []int
	byGlobal map[int]*Index

	// closer releases the mmap backing of a LoadMapped set; nil otherwise.
	closer func() error
}

// Close releases any resources backing the set (the mmap of a LoadMapped
// snapshot). The set must not be queried after Close; it is a no-op for
// built and stream-loaded sets.
func (s *Set) Close() error {
	if s.closer == nil {
		return nil
	}
	c := s.closer
	s.closer = nil
	return c()
}

// BuildAll indexes every sub-collection of c with the default options.
func BuildAll(c *corpus.Collection) *Set {
	return BuildAllWith(c, DefaultOptions())
}

// BuildAllWith indexes every sub-collection of c with an explicit
// posting-core selection.
func BuildAllWith(c *corpus.Collection, opts IndexOptions) *Set {
	s := &Set{Coll: c}
	for i := range c.Subs {
		s.Indexes = append(s.Indexes, BuildWith(c, i, opts))
		s.globals = append(s.globals, i)
	}
	return s
}

// BuildSubset indexes only the named sub-collections of c (global ids,
// strictly increasing). This is the shard-scoped build: a node holding
// shards covering subs {1,3} indexes those two subs and nothing else.
func BuildSubset(c *corpus.Collection, subs []int) *Set {
	return BuildSubsetWith(c, subs, DefaultOptions())
}

// BuildSubsetWith is BuildSubset with an explicit posting-core selection.
func BuildSubsetWith(c *corpus.Collection, subs []int, opts IndexOptions) *Set {
	indexes := make([]*Index, 0, len(subs))
	for _, sub := range subs {
		indexes = append(indexes, BuildWith(c, sub, opts))
	}
	return SetFrom(c, indexes)
}

// SetFrom composes a Set from prebuilt per-sub indexes (already sorted by
// ascending global sub id). It panics on out-of-order input: a Set's
// iteration order is the global sub order, which downstream merge logic
// relies on for byte-identical cost folding.
func SetFrom(c *corpus.Collection, indexes []*Index) *Set {
	s := &Set{Coll: c, Indexes: indexes}
	full := len(indexes) == len(c.Subs)
	for i, ix := range indexes {
		if i > 0 && ix.sub <= indexes[i-1].sub {
			panic("index: SetFrom indexes not strictly increasing by sub id")
		}
		s.globals = append(s.globals, ix.sub)
		if full && ix.sub != i {
			full = false
		}
	}
	if !full {
		s.byGlobal = make(map[int]*Index, len(indexes))
		for _, ix := range indexes {
			s.byGlobal[ix.sub] = ix
		}
	}
	return s
}

// Sub returns the index of global sub-collection id sub. For full sets this
// is positional (the pre-sharding behaviour); shard-scoped sets look the id
// up. Asking for a sub the set does not hold panics — callers gate with Has.
func (s *Set) Sub(sub int) *Index {
	if s.byGlobal == nil {
		return s.Indexes[sub]
	}
	ix, ok := s.byGlobal[sub]
	if !ok {
		panic(fmt.Sprintf("index: set does not hold sub-collection %d", sub))
	}
	return ix
}

// Has reports whether the set holds the index for global sub-collection sub.
func (s *Set) Has(sub int) bool {
	if s.byGlobal == nil {
		return sub >= 0 && sub < len(s.Indexes)
	}
	_, ok := s.byGlobal[sub]
	return ok
}

// Globals returns the global sub-collection ids this set holds, ascending.
// Callers must not mutate the returned slice.
func (s *Set) Globals() []int { return s.globals }

// Full reports whether the set covers every sub-collection of its
// collection.
func (s *Set) Full() bool { return len(s.Indexes) == len(s.Coll.Subs) && s.byGlobal == nil }

// Len returns the number of sub-collections this set holds.
func (s *Set) Len() int { return len(s.Indexes) }

// IndexBytes reports the total real size of every held sub-collection's
// index — postings, term dictionary and paragraph term runs (the figure
// qactl -status surfaces per node).
func (s *Set) IndexBytes() int {
	total := 0
	for _, ix := range s.Indexes {
		total += ix.indexBytes
	}
	return total
}
