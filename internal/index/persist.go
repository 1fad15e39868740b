package index

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"

	"distqa/internal/corpus"
	"distqa/internal/wire"
)

// On-disk index container ("DQIX" format, version 2 — version 1 was the gob
// snapshot this file replaces; old snapshots fail the magic check and the
// node's stale-snapshot path rebuilds them).
//
// Layout:
//
//	+-------+---------+-----------+------------------+-----+----------------+
//	| magic | version | headerLen | header (varint)  | pad | block regions  |
//	| 4 B   | 4 B LE  | 8 B LE    | headerLen B      |     | page-aligned   |
//	+-------+---------+-----------+------------------+-----+----------------+
//
// The header carries the collection identity, and per sub-collection index
// the sorted term dictionary (stem, df, data extent, skip table) and the
// paragraph→stem-count tables (stems referenced by dictionary ordinal, so
// every stem string is stored exactly once). The compressed posting blocks
// themselves live after the header in one contiguous region per index, each
// region aligned to pageSize: region i starts at the first page boundary at
// or after the end of region i-1 (the first at the page boundary after the
// header), so no absolute offsets need to be stored — both sides derive
// them from the region lengths.
//
// Loading parses and fully verifies the header and every posting block
// before accepting the file: after Load succeeds, query-time block decode
// cannot fail, which is what lets the intersection's decode paths treat
// errors as unreachable. Under LoadMapped the regions alias a read-only
// mmap, so the verification walk faults each page in once but the pages
// stay clean and evictable — the kernel can drop and re-fault them under
// memory pressure, which is how a shard-scoped index larger than RAM stays
// usable.

const (
	containerVersion = 2
	pageSize         = 4096
	// fixedHeader is the byte length of magic + version + headerLen.
	fixedHeader = 16
)

var containerMagic = [4]byte{'D', 'Q', 'I', 'X'}

// align rounds n up to the next pageSize multiple.
func align(n int64) int64 {
	return (n + pageSize - 1) &^ (pageSize - 1)
}

// Save serialises the index set to w in the DQIX container format. Together
// with the collection's corpus.Config (which regenerates the collection
// bit-for-bit), a snapshot lets a node come up without paying the indexing
// cost. The header is the in-memory layout written out: the sorted term
// dictionary, each list's extent, and each paragraph's (ordinal, count)
// run. Plain-core sets compress on the fly: the on-disk format is always
// the block-compressed one, and the core selection is re-applied at load.
func (s *Set) Save(w io.Writer) error {
	// Stage every index's posting lists in ordinal order first: the header
	// stores region lengths, so it must be encoded before any blocks are
	// written.
	type stagedIndex struct {
		ix        *Index
		lists     []compList
		regionLen int64
	}
	staged := make([]*stagedIndex, 0, len(s.Indexes))
	for _, ix := range s.Indexes {
		st := &stagedIndex{ix: ix, lists: make([]compList, len(ix.terms))}
		for ord := range ix.terms {
			if ix.comp != nil {
				st.lists[ord] = ix.list(ord)
			} else {
				st.lists[ord] = compressPostings(ix.postings[ord])
			}
			st.regionLen += int64(len(st.lists[ord].data))
		}
		staged = append(staged, st)
	}

	// Encode the header.
	hdr := wire.GetBuffer()
	defer wire.PutBuffer(hdr)
	hdr.String(s.Coll.Name)
	hdr.Int64(s.Coll.Cfg.Seed)
	hdr.Uint64(uint64(len(s.Coll.Paragraphs())))
	hdr.Uint64(uint64(len(staged)))
	for _, st := range staged {
		hdr.Uint64(uint64(st.ix.sub))
		hdr.Uint64(uint64(st.regionLen))
		hdr.Uint64(uint64(len(st.lists)))
		off := 0
		for ord, cl := range st.lists {
			hdr.String(st.ix.terms[ord])
			hdr.Uint64(uint64(cl.df))
			hdr.Uint64(uint64(off))
			hdr.Uint64(uint64(len(cl.data)))
			hdr.Uint64(uint64(len(cl.skips)))
			for _, sk := range cl.skips {
				hdr.Uint64(uint64(sk.max))
				hdr.Uint64(uint64(sk.off))
				hdr.Uint64(uint64(sk.n))
			}
			off += len(cl.data)
		}
		// Paragraph term runs in document order, which is ascending
		// paragraph id order.
		hdr.Uint64(uint64(len(st.ix.runStart) - 1))
		for local, doc := range st.ix.docs {
			first := st.ix.docStart[local]
			for i, p := range doc.Paragraphs {
				run := st.ix.run(first + uint32(i))
				hdr.Uint64(uint64(p.ID))
				hdr.Uint64(uint64(len(run)))
				for _, tc := range run {
					hdr.Uint64(uint64(tc.ord))
					hdr.Uint64(uint64(tc.count))
				}
			}
		}
	}

	// Emit: fixed prelude, header, then the page-aligned block regions.
	var fixed [fixedHeader]byte
	copy(fixed[:4], containerMagic[:])
	binary.LittleEndian.PutUint32(fixed[4:8], containerVersion)
	binary.LittleEndian.PutUint64(fixed[8:16], uint64(hdr.Len()))
	if _, err := w.Write(fixed[:]); err != nil {
		return fmt.Errorf("index: save: %w", err)
	}
	if _, err := w.Write(hdr.B); err != nil {
		return fmt.Errorf("index: save: %w", err)
	}
	written := int64(fixedHeader + hdr.Len())
	pad := func(to int64) error {
		if to < written {
			return fmt.Errorf("index: save: layout bug (pad %d < written %d)", to, written)
		}
		var zeros [pageSize]byte
		for written < to {
			n := to - written
			if n > pageSize {
				n = pageSize
			}
			m, err := w.Write(zeros[:n])
			written += int64(m)
			if err != nil {
				return fmt.Errorf("index: save: %w", err)
			}
		}
		return nil
	}
	for _, st := range staged {
		if err := pad(align(written)); err != nil {
			return err
		}
		for _, cl := range st.lists {
			n, err := w.Write(cl.data)
			written += int64(n)
			if err != nil {
				return fmt.Errorf("index: save: %w", err)
			}
		}
	}
	return nil
}

// Load deserialises an index set from r with the default options. It fails
// if the snapshot was built from a different collection (name, seed or
// paragraph count mismatch), names sub-collections the collection does not
// have, or fails structural verification anywhere. Shard-scoped snapshots
// (a strict subset of the sub-collections, strictly increasing) load the
// same way full ones do.
func Load(r io.Reader, c *corpus.Collection) (*Set, error) {
	return LoadWith(r, c, DefaultOptions())
}

// LoadWith is Load with an explicit posting-core selection: the on-disk
// blocks either alias into the loaded image (compressed core) or are decoded
// into plain sorted slices (plain core).
func LoadWith(r io.Reader, c *corpus.Collection, opts IndexOptions) (*Set, error) {
	buf, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("index: load: %w", err)
	}
	return parseContainer(buf, c, opts, nil)
}

// LoadMapped memory-maps the container at path and parses it in place: the
// posting-block regions alias the mapping, so block data is paged in on
// demand and stays evictable. The returned Set owns the mapping; call
// Set.Close when done with it. On platforms without mmap support the file
// is read into memory instead (same behaviour, no laziness).
func LoadMapped(path string, c *corpus.Collection) (*Set, error) {
	return LoadMappedWith(path, c, DefaultOptions())
}

// LoadMappedWith is LoadMapped with an explicit posting-core selection.
// Loading the plain core from a mapping would copy every block out and keep
// the mapping pinned for nothing, so plain loads read the file instead.
func LoadMappedWith(path string, c *corpus.Collection, opts IndexOptions) (*Set, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("index: load: %w", err)
	}
	defer f.Close()
	if !opts.Compressed {
		return LoadWith(f, c, opts)
	}
	data, closer, err := mmapFile(f)
	if err != nil {
		return nil, fmt.Errorf("index: load: mmap %s: %w", path, err)
	}
	s, err := parseContainer(data, c, opts, closer)
	if err != nil {
		closer()
		return nil, err
	}
	return s, nil
}

// parseContainer parses and fully verifies a DQIX container image. closer,
// when non-nil, releases the image's backing mapping and is attached to the
// returned Set.
func parseContainer(buf []byte, c *corpus.Collection, opts IndexOptions, closer func() error) (*Set, error) {
	if len(buf) < fixedHeader {
		return nil, fmt.Errorf("index: load: %w (short prelude)", wire.ErrTruncated)
	}
	if !bytes.Equal(buf[:4], containerMagic[:]) {
		return nil, fmt.Errorf("index: load: not a DQIX index container")
	}
	if v := binary.LittleEndian.Uint32(buf[4:8]); v != containerVersion {
		return nil, fmt.Errorf("index: load: container version %d, want %d", v, containerVersion)
	}
	headerLen := binary.LittleEndian.Uint64(buf[8:16])
	if headerLen > uint64(len(buf)-fixedHeader) {
		return nil, fmt.Errorf("index: load: %w (header length)", wire.ErrCorrupt)
	}
	hr := wire.NewReader(buf[fixedHeader : fixedHeader+int(headerLen)])

	name := hr.String()
	seed := hr.Int64()
	paragraphs := hr.Uint64()
	nindexes := hr.Uint64()
	if err := hr.Err(); err != nil {
		return nil, fmt.Errorf("index: load: %w", err)
	}
	if name != c.Name || seed != c.Cfg.Seed {
		return nil, fmt.Errorf("index: snapshot is for collection %q (seed %d), not %q (seed %d)",
			name, seed, c.Name, c.Cfg.Seed)
	}
	if paragraphs != uint64(len(c.Paragraphs())) {
		return nil, fmt.Errorf("index: snapshot covers %d paragraphs, collection has %d",
			paragraphs, len(c.Paragraphs()))
	}
	if nindexes == 0 || nindexes > uint64(len(c.Subs)) {
		return nil, fmt.Errorf("index: snapshot has %d sub-collection indexes, collection has %d",
			nindexes, len(c.Subs))
	}

	regionCursor := align(int64(fixedHeader) + int64(headerLen))
	indexes := make([]*Index, 0, nindexes)
	var decodeBuf []int32
	for i := 0; i < int(nindexes); i++ {
		sub := hr.Uint64()
		regionLen := hr.Uint64()
		nterms := hr.Uint64()
		if err := hr.Err(); err != nil {
			return nil, fmt.Errorf("index: load: %w", err)
		}
		if sub >= uint64(len(c.Subs)) {
			return nil, fmt.Errorf("index: snapshot names sub-collection %d, collection has %d", sub, len(c.Subs))
		}
		if i > 0 && int(sub) <= indexes[i-1].sub {
			return nil, fmt.Errorf("index: snapshot sub-collections out of order (%d after %d)",
				sub, indexes[i-1].sub)
		}
		regionOff := regionCursor
		if regionOff > int64(len(buf)) || regionLen > uint64(len(buf)) ||
			regionOff+int64(regionLen) > int64(len(buf)) {
			return nil, fmt.Errorf("index: load: %w (block region out of range)", wire.ErrCorrupt)
		}
		region := buf[regionOff : regionOff+int64(regionLen)]
		regionCursor = align(regionOff + int64(regionLen))

		ndocs := len(c.Subs[sub].Docs)
		// Minimum per-term header footprint: 1-byte stem length + 1 stem
		// byte + df + dataOff + dataLen + nskips ≥ 6 bytes. Bounds the term
		// count a corrupt header can demand.
		if nterms > uint64(hr.Remaining()/6+1) {
			return nil, fmt.Errorf("index: load: %w (term count)", wire.ErrCorrupt)
		}
		ix := &Index{
			coll:     c,
			sub:      int(sub),
			docs:     c.Subs[sub].Docs,
			terms:    make([]string, 0, nterms),
			docStart: make([]uint32, ndocs),
			cache:    newRelaxCache(defaultRelaxCacheCap),
		}
		if opts.Compressed {
			if regionLen > math.MaxUint32 {
				return nil, fmt.Errorf("index: load: %w (block region over 4 GiB)", wire.ErrCorrupt)
			}
			ix.comp = make([]compEntry, 0, nterms)
			ix.blocks = region
		} else {
			ix.postings = make([][]int32, 0, nterms)
		}
		var skips []skipEntry
		prevStem := ""
		for t := 0; t < int(nterms); t++ {
			stem := hr.String()
			df := hr.Uint64()
			dataOff := hr.Uint64()
			dataLen := hr.Uint64()
			nskips := hr.ListLen(3)
			if err := hr.Err(); err != nil {
				return nil, fmt.Errorf("index: load: %w", err)
			}
			if stem == "" || (t > 0 && stem <= prevStem) {
				return nil, fmt.Errorf("index: load: %w (term dictionary out of order)", wire.ErrCorrupt)
			}
			prevStem = stem
			if df == 0 || df > uint64(ndocs) {
				return nil, fmt.Errorf("index: load: %w (df %d of term %q, sub has %d docs)", wire.ErrCorrupt, df, stem, ndocs)
			}
			if dataLen > uint64(len(region)) || dataOff > uint64(len(region))-dataLen {
				return nil, fmt.Errorf("index: load: %w (term data out of range)", wire.ErrCorrupt)
			}
			if nskips != skipBlocks(int(df)) {
				return nil, fmt.Errorf("index: load: %w (%d skip entries for df %d)", wire.ErrCorrupt, nskips, df)
			}
			entry := compEntry{
				df:   int32(df),
				off:  uint32(dataOff),
				end:  uint32(dataOff + dataLen),
				skip: uint32(len(skips)),
			}
			remaining := int(df)
			for i := 0; i < nskips; i++ {
				max := hr.Uint64()
				off := hr.Uint64()
				n := hr.Uint64()
				if err := hr.Err(); err != nil {
					return nil, fmt.Errorf("index: load: %w", err)
				}
				want := wire.PostingBlockSize
				if remaining < want {
					want = remaining
				}
				if max >= uint64(ndocs) || off > dataLen || n != uint64(want) {
					return nil, fmt.Errorf("index: load: %w (skip entry of term %q)", wire.ErrCorrupt, stem)
				}
				if i == 0 && off != 0 {
					return nil, fmt.Errorf("index: load: %w (first block not at offset 0)", wire.ErrCorrupt)
				}
				if last := len(skips) - 1; i > 0 && (off <= uint64(skips[last].off) || max <= uint64(skips[last].max)) {
					return nil, fmt.Errorf("index: load: %w (skip table not increasing)", wire.ErrCorrupt)
				}
				skips = append(skips, skipEntry{max: int32(max), off: uint32(off), n: uint16(n)})
				remaining -= want
			}
			cl := viewList(region, skips, entry)
			// Structural verification: decode every block now so query-time
			// decode can never fail, checking counts, monotonicity across
			// blocks, the doc-id ceiling and the recorded per-block maxima.
			decodeBuf = decodeBuf[:0]
			for bi, nb := 0, cl.blocks(); bi < nb; bi++ {
				mark := len(decodeBuf)
				var err error
				decodeBuf, err = wire.DecodePostingBlock(decodeBuf, cl.blockBytes(bi), cl.blockCount(bi))
				if err != nil {
					return nil, fmt.Errorf("index: load: term %q block %d: %w", stem, bi, err)
				}
				if mark > 0 && decodeBuf[mark] <= decodeBuf[mark-1] {
					return nil, fmt.Errorf("index: load: %w (doc ids not increasing across blocks of %q)", wire.ErrCorrupt, stem)
				}
				last := decodeBuf[len(decodeBuf)-1]
				if int(last) >= ndocs {
					return nil, fmt.Errorf("index: load: %w (doc id %d of term %q, sub has %d docs)", wire.ErrCorrupt, last, stem, ndocs)
				}
				if cl.skips != nil && last != cl.skips[bi].max {
					return nil, fmt.Errorf("index: load: %w (block max mismatch of term %q)", wire.ErrCorrupt, stem)
				}
			}
			if len(decodeBuf) != int(df) {
				return nil, fmt.Errorf("index: load: %w (decoded %d docs of term %q, df %d)", wire.ErrCorrupt, len(decodeBuf), stem, df)
			}
			ix.terms = append(ix.terms, stem)
			if opts.Compressed {
				ix.comp = append(ix.comp, entry)
			} else {
				ix.postings = append(ix.postings, append([]int32(nil), decodeBuf...))
			}
		}
		if opts.Compressed {
			ix.skips = append(make([]skipEntry, 0, len(skips)), skips...)
		}

		// Paragraph term runs: one per paragraph of the sub-collection, in
		// document order, each strictly increasing by ordinal.
		nparas := hr.ListLen(2)
		if err := hr.Err(); err != nil {
			return nil, fmt.Errorf("index: load: %w", err)
		}
		paras := 0
		for _, doc := range ix.docs {
			paras += len(doc.Paragraphs)
		}
		if nparas != paras {
			return nil, fmt.Errorf("index: load: %w (%d paragraph runs, sub has %d paragraphs)", wire.ErrCorrupt, nparas, paras)
		}
		var runs []termCount
		ix.runStart = make([]uint32, 1, nparas+1)
		for local, doc := range ix.docs {
			ix.docStart[local] = uint32(len(ix.runStart) - 1)
			for _, p := range doc.Paragraphs {
				id := hr.Uint64()
				nstems := hr.ListLen(2)
				if err := hr.Err(); err != nil {
					return nil, fmt.Errorf("index: load: %w", err)
				}
				if id != uint64(p.ID) {
					return nil, fmt.Errorf("index: load: %w (paragraph id %d, want %d)", wire.ErrCorrupt, id, p.ID)
				}
				prevOrd := -1
				for i := 0; i < nstems; i++ {
					ord := hr.Uint64()
					count := hr.Uint64()
					if err := hr.Err(); err != nil {
						return nil, fmt.Errorf("index: load: %w", err)
					}
					if ord >= uint64(len(ix.terms)) || int(ord) <= prevOrd {
						return nil, fmt.Errorf("index: load: %w (paragraph %d stem ordinal)", wire.ErrCorrupt, id)
					}
					if count == 0 || count > uint64(1<<30) {
						return nil, fmt.Errorf("index: load: %w (paragraph %d stem count)", wire.ErrCorrupt, id)
					}
					prevOrd = int(ord)
					runs = append(runs, termCount{ord: uint32(ord), count: uint32(count)})
				}
				ix.runStart = append(ix.runStart, uint32(len(runs)))
			}
		}
		ix.runs = append(make([]termCount, 0, len(runs)), runs...)
		// The memory figure is never persisted: recompute it so a reloaded
		// index reports exactly what a fresh build would (the old gob format
		// stored the build-time figure and let it drift from the loaded
		// structures).
		ix.recomputeIndexBytes()
		indexes = append(indexes, ix)
	}
	if hr.Remaining() != 0 {
		return nil, fmt.Errorf("index: load: %w (trailing header bytes)", wire.ErrCorrupt)
	}
	if err := hr.Err(); err != nil {
		return nil, fmt.Errorf("index: load: %w", err)
	}
	s := SetFrom(c, indexes)
	s.closer = closer
	return s, nil
}
