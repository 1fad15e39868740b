package index

import (
	"distqa/internal/wire"
)

// The compressed postings core. A plain posting list is a sorted []int32 of
// local doc offsets; its compressed twin cuts that list into blocks of at
// most wire.PostingBlockSize documents, delta+varint encodes each block
// (wire.AppendPostingBlock) into one contiguous byte slice, and keeps a
// per-block skip entry carrying the block's byte extent, document count and
// maximum doc id. The skip table is what makes the galloping intersection
// seek block-to-block: a block whose maxDoc is below the candidate can be
// skipped without decompressing a single byte of it.
//
// Everything observable — retrieval results, DocFreq, relaxation order,
// Stats/RealBytesTouched, term enumeration — is bit-identical to the plain
// core; the property battery in compressed_test.go proves it and the plain
// core stays available (IndexOptions{Compressed: false}) as the oracle.

// skipEntry describes one encoded block of a compressed posting list.
type skipEntry struct {
	// max is the last (largest) doc id in the block: the skip-seek key.
	max int32
	// off is the block's starting byte offset within compList.data.
	off uint32
	// n is the number of documents encoded in the block (1..PostingBlockSize).
	n uint16
}

// compList is a view of one term's compressed posting list: its slices
// alias the owning index's shared block region and skip table (Index.list).
// Immutable; data may alias a read-only mmap region, so it must never be
// written.
type compList struct {
	// df is the document frequency — the total count across all blocks.
	df int32
	// data holds the concatenated delta+varint blocks.
	data []byte
	// skips has one entry per block, in doc-id order. It is nil when the
	// whole list fits a single block (df ≤ PostingBlockSize): rare terms
	// dominate the vocabulary, and a mandatory skip entry would cost them
	// a table the intersection could never skip over.
	skips []skipEntry
}

// compEntry is what an index stores per term of the compressed core: the
// list's extent in the index's block region and, for multi-block lists, the
// first of its skipBlocks(df) entries in the index's skip table.
type compEntry struct {
	df       int32
	off, end uint32
	skip     uint32
}

// skipBlocks returns the skip-table length of a list of df documents: one
// entry per block, none for a single-block list.
func skipBlocks(df int) int {
	if df <= wire.PostingBlockSize {
		return 0
	}
	return (df + wire.PostingBlockSize - 1) / wire.PostingBlockSize
}

// blocks returns the number of encoded blocks.
func (cl *compList) blocks() int {
	if cl.skips == nil {
		if cl.df == 0 {
			return 0
		}
		return 1
	}
	return len(cl.skips)
}

// blockBytes returns the encoded bytes of block i.
func (cl *compList) blockBytes(i int) []byte {
	if cl.skips == nil {
		return cl.data
	}
	start := cl.skips[i].off
	end := uint32(len(cl.data))
	if i+1 < len(cl.skips) {
		end = cl.skips[i+1].off
	}
	return cl.data[start:end]
}

// blockCount returns the number of documents encoded in block i.
func (cl *compList) blockCount(i int) int {
	if cl.skips == nil {
		return int(cl.df)
	}
	return int(cl.skips[i].n)
}

// appendPostings appends the compressed form of a sorted, strictly
// increasing postings list to a block region and a skip table, and returns
// the list's entry. Skip offsets are relative to the list's first block, so
// a list's bytes are the same wherever its region puts them.
func appendPostings(blocks []byte, skips []skipEntry, docs []int32) ([]byte, []skipEntry, compEntry) {
	e := compEntry{df: int32(len(docs)), off: uint32(len(blocks)), skip: uint32(len(skips))}
	if len(docs) <= wire.PostingBlockSize {
		blocks = wire.AppendPostingBlock(blocks, docs)
		e.end = uint32(len(blocks))
		return blocks, skips, e
	}
	for start := 0; start < len(docs); start += wire.PostingBlockSize {
		end := start + wire.PostingBlockSize
		if end > len(docs) {
			end = len(docs)
		}
		skips = append(skips, skipEntry{
			max: docs[end-1],
			off: uint32(len(blocks)) - e.off,
			n:   uint16(end - start),
		})
		blocks = wire.AppendPostingBlock(blocks, docs[start:end])
	}
	e.end = uint32(len(blocks))
	return blocks, skips, e
}

// viewList returns the compList view of entry e over a block region and a
// skip table.
func viewList(blocks []byte, skips []skipEntry, e compEntry) compList {
	cl := compList{df: e.df, data: blocks[e.off:e.end:e.end]}
	if n := skipBlocks(int(e.df)); n > 0 {
		cl.skips = skips[e.skip : int(e.skip)+n : int(e.skip)+n]
	}
	return cl
}

// compressPostings builds a standalone compressed list.
func compressPostings(docs []int32) compList {
	blocks, skips, e := appendPostings(nil, nil, docs)
	return viewList(blocks, skips, e)
}

// decodeAll appends every doc id of the list to dst. Used when the list is
// the seed (shortest) operand of an intersection and for equivalence
// checking; steady-state it reuses dst's capacity and allocates nothing.
func (cl *compList) decodeAll(dst []int32) []int32 {
	for i, nb := 0, cl.blocks(); i < nb; i++ {
		var err error
		dst, err = wire.DecodePostingBlock(dst, cl.blockBytes(i), cl.blockCount(i))
		if err != nil {
			// Unreachable on a built or load-verified list (the container
			// loader walks every block before accepting a file); an empty
			// tail is the defensive answer, never a panic.
			return dst
		}
	}
	return dst
}

// compCursor walks one compressed list during an intersection, decoding at
// most one block at a time into a scratch buffer and advancing monotonically
// — candidates arrive in ascending order, so each block is decoded at most
// once per intersection and blocks the skip table rules out are never
// decoded at all.
type compCursor struct {
	cl compList
	// block is the index of the currently decoded block, -1 when none.
	block int
	// buf holds the decoded docs of block; pos is the intra-block read head.
	buf []int32
	pos int
}

// reset binds the cursor to a list, keeping buf's capacity.
func (c *compCursor) reset(cl compList) {
	c.cl = cl
	c.block = -1
	c.buf = c.buf[:0]
	c.pos = 0
}

// contains reports whether x is in the list, assuming calls arrive with
// non-decreasing x. It gallops over the skip table to find the first block
// whose max ≥ x, decodes it only if it was not already decoded, and gallops
// within the decoded block.
func (c *compCursor) contains(x int32) bool {
	// Seek the first block that can hold x. Start from the current block:
	// candidates ascend, so earlier blocks are permanently done.
	nb := c.cl.blocks()
	b := c.block
	if b < 0 {
		b = 0
	}
	if b >= nb {
		return false
	}
	if skips := c.cl.skips; skips != nil && skips[b].max < x {
		// Gallop forward over skip entries: exponential probe then binary
		// search, so long runs of irrelevant blocks cost log, not linear.
		lo, hi := b+1, b+2
		for hi < len(skips) && skips[hi-1].max < x {
			step := hi - b
			lo = hi
			hi += step << 1
		}
		if hi > len(skips) {
			hi = len(skips)
		}
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if skips[mid].max < x {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		b = lo
		if b >= nb {
			c.block = nb
			return false
		}
	}
	if b != c.block {
		var err error
		c.buf, err = wire.DecodePostingBlock(c.buf[:0], c.cl.blockBytes(b), c.cl.blockCount(b))
		if err != nil {
			// Unreachable post-verification; treat as absent, never panic.
			c.block = nb
			return false
		}
		c.block = b
		c.pos = 0
	}
	// Gallop within the block from the current position.
	c.pos += gallop32(c.buf[c.pos:], x)
	return c.pos < len(c.buf) && c.buf[c.pos] == x
}

// gallop32 returns the index of the first element of sorted s that is ≥ x
// (the compCursor twin of gallop; shared shape, []int32-local positions).
func gallop32(s []int32, x int32) int {
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

// intersectComp intersects the sorted candidate list a against compressed
// list cl using cursor cur, appending survivors to dst. It is the compressed
// twin of intersectInto's galloping branch: candidates drive block seeks, so
// only blocks that can contain a candidate are ever decompressed.
func intersectComp(dst []int32, a []int32, cl compList, cur *compCursor) []int32 {
	cur.reset(cl)
	for _, x := range a {
		if cur.contains(x) {
			dst = append(dst, x)
		}
	}
	return dst
}
