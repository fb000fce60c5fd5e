package bloom

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"planetp/internal/golomb"
)

// A Chain is one peer's filter as gossip carries it (Section 3: PlanetP
// spreads Bloom-filter diffs, not whole filters): an optional full filter,
// the base, followed by diff segments, each tagged with the Seq it brings
// the filter to. Between two resets (a compaction, a recovery rebuild, a new
// epoch) a peer's filter only gains bits, so the segments past any version R
// at or after the chain's From, ORed into the filter held at R, give the
// filter at the chain's End — at every such R, not only at End-1. A segment
// never spans a reset: the origin starts a new chain, with a new base, at
// every reset.
//
// Wire encoding (version byte 2; Compress encodings are version 1):
//
//	[2 u8][epoch uvarint][based u8][from uvarint]
//	[if based: base length uvarint, base: a Compress encoding]
//	[segment count uvarint]
//	per segment: [to uvarint][diff length uvarint][diff: an EncodeDiff encoding]
//
// Decompress, DecodeCompact, DecodePositions, Header and CompactSmaller
// accept a based chain and read it as the union of its parts.
type Chain struct {
	// Epoch is the incarnation every part belongs to.
	Epoch uint32
	// From is the base's Seq; for a baseless chain, the Seq its first
	// segment applies on top of.
	From uint32
	// Base is the filter at From as a Compress encoding; nil for a baseless
	// chain, which only a holder at or past From can apply.
	Base []byte
	// Segs ascend strictly by To, the first To above From.
	Segs []Segment
}

// Segment is one diff of a chain: the positions set after the previous
// segment's To (or the chain's From) up to To, as an EncodeDiff encoding.
type Segment struct {
	To   uint32
	Diff []byte
}

// chainVersion is a chain encoding's version byte.
const chainVersion = 2

// minSegmentBytes is the fewest bytes a segment encodes to: a one-byte To,
// a one-byte length, and EncodeDiff's version, count and M bytes.
const minSegmentBytes = 5

// ErrChainGap reports a baseless chain that does not apply to the filter
// it was offered to: another epoch, or a From past what is held.
var ErrChainGap = errors.New("bloom: chain does not apply at the held version")

// IsChain reports whether buf is a chain encoding (as opposed to a Compress
// encoding).
func IsChain(buf []byte) bool { return len(buf) > 0 && buf[0] == chainVersion }

// End returns the Seq the chain brings its filter to.
func (c Chain) End() uint32 {
	if n := len(c.Segs); n > 0 {
		return c.Segs[n-1].To
	}
	return c.From
}

// SegBytes returns the bytes of the segments' diffs.
func (c Chain) SegBytes() int {
	n := 0
	for _, s := range c.Segs {
		n += len(s.Diff)
	}
	return n
}

// Size returns the length of the chain's encoding.
func (c Chain) Size() int {
	n := 2 + uvarintLen(uint64(c.Epoch)) + uvarintLen(uint64(c.From)) + uvarintLen(uint64(len(c.Segs)))
	if c.Base != nil {
		n += uvarintLen(uint64(len(c.Base))) + len(c.Base)
	}
	for _, s := range c.Segs {
		n += uvarintLen(uint64(s.To)) + uvarintLen(uint64(len(s.Diff))) + len(s.Diff)
	}
	return n
}

func uvarintLen(x uint64) int {
	var b [binary.MaxVarintLen64]byte
	return binary.PutUvarint(b[:], x)
}

// Encode returns the chain's wire encoding.
func (c Chain) Encode() []byte {
	b := make([]byte, 0, c.Size())
	b = append(b, chainVersion)
	b = binary.AppendUvarint(b, uint64(c.Epoch))
	if c.Base != nil {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	b = binary.AppendUvarint(b, uint64(c.From))
	if c.Base != nil {
		b = binary.AppendUvarint(b, uint64(len(c.Base)))
		b = append(b, c.Base...)
	}
	b = binary.AppendUvarint(b, uint64(len(c.Segs)))
	for _, s := range c.Segs {
		b = binary.AppendUvarint(b, uint64(s.To))
		b = binary.AppendUvarint(b, uint64(len(s.Diff)))
		b = append(b, s.Diff...)
	}
	return b
}

// ParseChain reads a chain encoding's structure: the header, the base's
// Compress header, every segment's EncodeDiff header, and Seqs that ascend.
// It decodes no positions, and it checks the segment count against the
// bytes left before it allocates anything. Base and the diffs alias buf.
func ParseChain(buf []byte) (Chain, error) {
	var c Chain
	if !IsChain(buf) {
		return c, ErrCorrupt
	}
	rest := buf[1:]
	next := func(limit uint64) (uint64, bool) {
		v, n := binary.Uvarint(rest)
		if n <= 0 || v > limit {
			return 0, false
		}
		rest = rest[n:]
		return v, true
	}
	// bytes reads a length-prefixed run of the bytes left.
	bytes := func() ([]byte, bool) {
		n, ok := next(math.MaxInt32)
		if !ok || n > uint64(len(rest)) {
			return nil, false
		}
		b := rest[:n:n]
		rest = rest[n:]
		return b, true
	}
	epoch, ok := next(math.MaxUint32)
	if !ok || len(rest) < 1 || rest[0] > 1 {
		return c, ErrCorrupt
	}
	based := rest[0] == 1
	rest = rest[1:]
	from, ok := next(math.MaxUint32)
	if !ok {
		return c, ErrCorrupt
	}
	c.Epoch, c.From = uint32(epoch), uint32(from)
	if based {
		if c.Base, ok = bytes(); !ok {
			return c, ErrCorrupt
		}
		if _, _, err := decodeWireHeader(c.Base); err != nil {
			return c, err
		}
	}
	nseg, ok := next(uint64(len(rest) / minSegmentBytes))
	if !ok {
		return c, ErrCorrupt
	}
	if nseg > 0 {
		c.Segs = make([]Segment, nseg)
	}
	prev := from
	for i := range c.Segs {
		to, ok := next(math.MaxUint32)
		if !ok || to <= prev {
			return c, ErrCorrupt
		}
		diff, ok := bytes()
		if !ok {
			return c, ErrCorrupt
		}
		if _, _, _, err := diffHeader(diff); err != nil {
			return c, err
		}
		c.Segs[i] = Segment{To: uint32(to), Diff: diff}
		prev = to
	}
	if len(rest) != 0 {
		return c, ErrCorrupt
	}
	return c, nil
}

// Apply resolves next, a chain for the same peer that arrived, against c, the
// based chain held for it. When next is of c's epoch and its From is at or
// before c's End, the segments c already covers are dropped and the rest
// appended — a based next too, so a holder keeps its own base and the
// segments it can serve to peers behind it. Otherwise a based next replaces
// c, and a baseless one returns ErrChainGap: the holder needs the full
// filter. Every segment taken from next is decoded and its positions checked
// against the base's nbits (checkSegs), so a stored chain always decodes. The
// result aliases both.
func (c Chain) Apply(next Chain) (Chain, error) {
	if c.Base == nil || next.Epoch != c.Epoch || next.From > c.End() {
		if next.Base == nil {
			return Chain{}, ErrChainGap
		}
		if err := checkSegs(next.Base, next.Segs); err != nil {
			return Chain{}, err
		}
		return next, nil
	}
	end := c.End()
	i := 0
	for i < len(next.Segs) && next.Segs[i].To <= end {
		i++
	}
	if i == len(next.Segs) {
		return c, nil
	}
	if err := checkSegs(c.Base, next.Segs[i:]); err != nil {
		return Chain{}, err
	}
	out := c
	out.Segs = append(slices.Clip(c.Segs), next.Segs[i:]...)
	return out, nil
}

// checkSegs decodes segs and checks every position against the nbits of
// base, a Compress encoding. ParseChain reads only the segments' headers; a
// segment past nbits stored unchecked would fail every later decode of the
// chain it joined.
func checkSegs(base []byte, segs []Segment) error {
	if len(segs) == 0 {
		return nil
	}
	hdr, _, err := decodeWireHeader(base)
	if err != nil {
		return err
	}
	var pos []uint64
	for _, s := range segs {
		if pos, err = appendDiff(pos[:0], s.Diff); err != nil {
			return err
		}
		// A diff's positions ascend: the last is the largest.
		if n := len(pos); n > 0 && pos[n-1] >= hdr.nbits {
			return ErrCorrupt
		}
	}
	return nil
}

// Since returns the baseless chain that brings a holder at Seq seq (at or
// past c.From, of c's epoch) to c's End: the segments past seq, merged into
// one segment. Its From is the To of the last segment at or before seq.
// Merging sorts the merged segments' positions: O(p log p) in their
// count p, never O(filter).
func (c Chain) Since(seq uint32) (Chain, error) {
	out := Chain{Epoch: c.Epoch, From: c.From}
	i := 0
	for i < len(c.Segs) && c.Segs[i].To <= seq {
		out.From = c.Segs[i].To
		i++
	}
	switch segs := c.Segs[i:]; len(segs) {
	case 0:
	case 1:
		out.Segs = segs
	default:
		var all []uint64
		var err error
		for _, s := range segs {
			if all, err = appendDiff(all, s.Diff); err != nil {
				return Chain{}, err
			}
		}
		slices.Sort(all)
		all = slices.Compact(all)
		nbits, _, _, ok := Header(c.Base)
		if !ok || (len(all) > 0 && all[len(all)-1] >= nbits) {
			return Chain{}, ErrCorrupt
		}
		diff, err := EncodeDiff(all, int(nbits))
		if err != nil {
			return Chain{}, err
		}
		out.Segs = []Segment{{To: c.End(), Diff: diff}}
	}
	return out, nil
}

// Fold folds into c's base every segment but the newest ones whose diffs
// total at most keep bytes: decoded once, compressed once. The segments kept
// still serve the holders just behind the chain's End. It returns c itself
// when there is nothing to fold.
func (c Chain) Fold(keep int) (Chain, error) {
	i := len(c.Segs)
	for i > 0 && keep >= len(c.Segs[i-1].Diff) {
		keep -= len(c.Segs[i-1].Diff)
		i--
	}
	if i == 0 {
		return c, nil
	}
	f, err := decodeChain(Chain{Epoch: c.Epoch, From: c.From, Base: c.Base, Segs: c.Segs[:i]})
	if err != nil {
		return Chain{}, err
	}
	return Chain{Epoch: c.Epoch, From: c.Segs[i-1].To, Base: f.Compress(), Segs: slices.Clip(c.Segs[i:])}, nil
}

// decodeChain decodes a based chain into the filter it stands for: the
// base's positions, validated before the bitset is allocated, then every
// segment's ORed in, each position checked against the base's nbits. The
// union needs no sort: the bitset orders it.
func decodeChain(c Chain) (*Filter, error) {
	if c.Base == nil {
		return nil, ErrCorrupt
	}
	hdr, positions, err := decodePositions(nil, c.Base)
	if err != nil {
		return nil, err
	}
	f := New(int(hdr.nbits), int(hdr.nhash))
	f.nkeys = hdr.nkeys
	for i := 0; ; i++ {
		if _, err := f.ApplyDiff(positions); err != nil {
			return nil, err
		}
		if i == len(c.Segs) {
			return f, nil
		}
		if positions, err = appendDiff(positions[:0], c.Segs[i].Diff); err != nil {
			return nil, err
		}
	}
}

// decodeChainPositions is decodePositions for a chain: the union of its
// parts' positions, ascending, in dst's storage.
func decodeChainPositions(dst []uint64, c Chain) (wireHeader, []uint64, error) {
	if len(c.Segs) == 0 {
		if c.Base == nil {
			return wireHeader{}, nil, ErrCorrupt
		}
		return decodePositions(dst, c.Base)
	}
	f, err := decodeChain(c)
	if err != nil {
		return wireHeader{}, nil, err
	}
	hdr := wireHeader{nbits: f.nbits, nhash: uint64(f.nhash), nkeys: f.nkeys, nset: f.setcnt}
	dst = slices.Grow(dst[:0], int(f.setcnt))
	for w, word := range f.bits {
		for word != 0 {
			dst = append(dst, uint64(w*64+bits.TrailingZeros64(word)))
			word &= word - 1
		}
	}
	return hdr, dst, nil
}

// diffHeader parses an EncodeDiff header: the position count, bounded by
// the payload's bits, and the Golomb parameter.
func diffHeader(buf []byte) (count, m uint64, rest []byte, err error) {
	if len(buf) < 1 || buf[0] != wireVersion {
		return 0, 0, nil, ErrCorrupt
	}
	rest = buf[1:]
	count, n := binary.Uvarint(rest)
	if n <= 0 {
		return 0, 0, nil, ErrCorrupt
	}
	rest = rest[n:]
	m, n = binary.Uvarint(rest)
	if n <= 0 {
		return 0, 0, nil, ErrCorrupt
	}
	rest = rest[n:]
	if count > maxWireBits || count > uint64(len(rest))*8 || m == 0 || m > maxWireM {
		return 0, 0, nil, ErrCorrupt
	}
	return count, m, rest, nil
}

// appendDiff decodes an EncodeDiff encoding's positions onto dst.
func appendDiff(dst []uint64, buf []byte) ([]uint64, error) {
	count, m, rest, err := diffHeader(buf)
	if err != nil {
		return dst, err
	}
	out, err := golomb.AppendGaps(dst, rest, m, int(count))
	if err != nil {
		return dst, fmt.Errorf("bloom: %w", err)
	}
	return out, nil
}

// chainHeader is decodeWireHeader for a chain: the base's header, with nset
// an upper bound (the base's set bits plus every segment's count, capped at
// nbits), read without decoding a position.
func chainHeader(buf []byte) (wireHeader, error) {
	c, err := ParseChain(buf)
	if err != nil {
		return wireHeader{}, err
	}
	if c.Base == nil {
		return wireHeader{}, ErrCorrupt
	}
	hdr, _, err := decodeWireHeader(c.Base)
	if err != nil {
		return hdr, err
	}
	for _, s := range c.Segs {
		count, _, _, _ := diffHeader(s.Diff) // ParseChain parsed it
		hdr.nset += count
	}
	hdr.nset = min(hdr.nset, hdr.nbits)
	return hdr, nil
}
