package bloom

import (
	"fmt"
	"sort"

	"planetp/internal/golomb"
)

// Compact is a succinct, probe-only representation of a Bloom filter: the
// sorted set-bit positions, decoded once from the Golomb wire payload and
// probed by binary search, without ever materializing the full bitset.
//
// For the sparse filters PlanetP gossips (a few thousand terms against the
// paper's 50 KB geometry) the position list is roughly an order of
// magnitude smaller resident than the decompressed bitset, which is what
// lets a directory replica keep every peer probeable (see
// internal/filtercache, which holds a filter in this form whenever it is
// the smaller of the two).
//
// Probing is bit-identical to Filter probing: both derive the same
// Kirsch–Mitzenmacher index sequence from a Digest, and a position is
// "set" in the Compact exactly when the corresponding bit is set in the
// decompressed Filter. The pinned-vector tests in compact_test.go enforce
// this equivalence, including the empty and single-bit edge cases.
type Compact struct {
	// positions are the sorted set-bit positions. uint32 suffices: the
	// wire format rejects filters beyond maxWireBits (2^28) bits.
	positions []uint32
	nbits     uint64
	nhash     uint32
	nkeys     uint64
}

// DecodeCompact parses a Compress encoding into a Compact without
// materializing the bitset. It validates exactly what Decompress validates
// — the two must accept and reject the same inputs.
func DecodeCompact(buf []byte) (*Compact, error) {
	hdr, rest, err := decodeWireHeader(buf)
	if err != nil {
		return nil, err
	}
	positions, err := golomb.DecodeGaps(rest, hdr.m, int(hdr.nset))
	if err != nil {
		return nil, fmt.Errorf("bloom: %w", err)
	}
	c := &Compact{
		positions: make([]uint32, len(positions)),
		nbits:     hdr.nbits,
		nhash:     uint32(hdr.nhash),
		nkeys:     hdr.nkeys,
	}
	for i, p := range positions {
		if p >= hdr.nbits {
			return nil, ErrCorrupt
		}
		c.positions[i] = uint32(p)
	}
	return c, nil
}

// CompactOf builds the succinct representation directly from a filter
// (equivalent to DecodeCompact(f.Compress()), without the wire round
// trip). Used by tests and by callers that already hold the filter.
func CompactOf(f *Filter) *Compact {
	positions := f.Positions()
	c := &Compact{
		positions: make([]uint32, len(positions)),
		nbits:     f.nbits,
		nhash:     f.nhash,
		nkeys:     f.nkeys,
	}
	for i, p := range positions {
		c.positions[i] = uint32(p)
	}
	return c
}

// NumBits returns the filter geometry's size in bits.
func (c *Compact) NumBits() int { return int(c.nbits) }

// NumHashes returns the number of hash functions.
func (c *Compact) NumHashes() int { return int(c.nhash) }

// Keys returns the encoded distinct-pattern insertion count.
func (c *Compact) Keys() int { return int(c.nkeys) }

// SetBits returns the number of one bits.
func (c *Compact) SetBits() int { return len(c.positions) }

// SizeBytes returns the resident footprint of the position list plus the
// struct header — what a byte-budgeted cache should charge for keeping
// this Compact in memory.
func (c *Compact) SizeBytes() int {
	const structOverhead = 48 // struct + slice header, rounded up
	return 4*len(c.positions) + structOverhead
}

// hasBit reports whether position p is set, by binary search over the
// sorted position list.
func (c *Compact) hasBit(p uint64) bool {
	v := uint32(p)
	i := sort.Search(len(c.positions), func(i int) bool { return c.positions[i] >= v })
	return i < len(c.positions) && c.positions[i] == v
}

// ContainsDigest reports whether the key summarized by d may be in the
// filter. The index sequence is identical to Filter.ContainsDigest.
func (c *Compact) ContainsDigest(d Digest) bool {
	h := d.H1
	for i := uint32(0); i < c.nhash; i++ {
		if !c.hasBit(h % c.nbits) {
			return false
		}
		h += d.H2
	}
	return true
}

// ContainsAllDigests reports whether every digested key may be present,
// stopping at the first miss (conjunctive probing).
func (c *Compact) ContainsAllDigests(ds []Digest) bool {
	for i := range ds {
		if !c.ContainsDigest(ds[i]) {
			return false
		}
	}
	return true
}

// Contains reports whether key may be in the filter.
func (c *Compact) Contains(key string) bool {
	return c.ContainsDigest(MakeDigest(key))
}
