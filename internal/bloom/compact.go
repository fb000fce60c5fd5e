package bloom

import (
	"fmt"
	"math/bits"

	"planetp/internal/golomb"
)

// Compact is a succinct, probe-only representation of a Bloom filter: its
// set-bit positions, decoded once from the Golomb wire payload and bucketed
// by their high bits, never materializing the bitset. Bucket b holds the
// positions in [b<<shift, (b+1)<<shift) as their low 16 bits; a bucket is
// at most 2^16 bits wide and aligned to its width, so the low half alone
// decides a probe, which scans one sorted run of about bucketFill entries.
// A set bit costs about 2.5 B (2 B plus its share of a 4-B bucket start),
// an order of magnitude under the bitset for the sparse filters PlanetP
// gossips — what lets a directory replica keep every peer probeable
// (internal/filtercache holds whichever form is smaller).
//
// Probing is bit-identical to Filter probing: both derive the same
// Kirsch–Mitzenmacher index sequence from a Digest, and a position is
// "set" in the Compact exactly when the corresponding bit is set in the
// decompressed Filter. The pinned-vector tests in compact_test.go enforce
// this equivalence, including the empty and single-bit edge cases.
type Compact struct {
	// starts[b] is where bucket b's run begins in lows; the last entry
	// is len(lows). uint32 suffices: the wire format rejects filters
	// beyond maxWireBits (2^28) bits.
	starts []uint32
	lows   []uint16 // each position's low 16 bits, in ascending position order
	nbits  uint64
	nkeys  uint64
	nhash  uint32
	shift  uint8 // buckets are 1<<shift bits wide, shift <= 16
}

// bucketFill is how many positions a bucket holds on average.
const bucketFill = 8

// bucketShift returns the bucket width for nset positions among nbits, as a
// power of two: the one nearest bucketFill*nbits/nset (a bucket then holds
// 6 to 12 positions on average), capped at 2^16.
func bucketShift(nbits, nset uint64) uint8 {
	w := bucketFill * nbits / max(nset, 1) // >= bucketFill: nset <= nbits
	return uint8(min(bits.Len64(w+w/2)-1, 16))
}

// compactBytes is the resident size of nset positions among nbits in the
// bucketed layout: 4 B per bucket start plus 2 B per position.
func compactBytes(nbits, nset uint64) uint64 {
	return 4*((nbits-1)>>bucketShift(nbits, nset)+2) + 2*nset
}

// newCompact lays out positions, which must ascend strictly and lie below
// nbits.
func newCompact(positions []uint64, nbits uint64, nhash uint32, nkeys uint64) *Compact {
	shift := bucketShift(nbits, uint64(len(positions)))
	c := &Compact{
		starts: make([]uint32, (nbits-1)>>shift+2),
		lows:   make([]uint16, len(positions)),
		shift:  shift,
		nbits:  nbits,
		nhash:  nhash,
		nkeys:  nkeys,
	}
	for i, p := range positions {
		c.lows[i] = uint16(p)
		c.starts[p>>shift+1]++
	}
	for b := 1; b < len(c.starts); b++ {
		c.starts[b] += c.starts[b-1]
	}
	return c
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
	// Positions ascend, so the last one bounds them all.
	if n := len(positions); n > 0 && positions[n-1] >= hdr.nbits {
		return nil, ErrCorrupt
	}
	return newCompact(positions, hdr.nbits, uint32(hdr.nhash), hdr.nkeys), nil
}

// CompactOf builds the succinct representation directly from a filter
// (equivalent to DecodeCompact(f.Compress()), without the wire round
// trip). Used by tests and by callers that already hold the filter.
func CompactOf(f *Filter) *Compact {
	return newCompact(f.Positions(), f.nbits, f.nhash, f.nkeys)
}

// NumBits returns the filter geometry's size in bits.
func (c *Compact) NumBits() int { return int(c.nbits) }

// NumHashes returns the number of hash functions.
func (c *Compact) NumHashes() int { return int(c.nhash) }

// Keys returns the encoded distinct-pattern insertion count.
func (c *Compact) Keys() int { return int(c.nkeys) }

// SetBits returns the number of one bits.
func (c *Compact) SetBits() int { return len(c.lows) }

// SizeBytes returns what a byte-budgeted cache should charge for keeping
// this Compact in memory: the bucket starts and low halves, plus 48 B for
// the two slice headers (the geometry fields, like the cache's per-entry
// bookkeeping, go uncharged).
func (c *Compact) SizeBytes() int {
	const headers = 48
	return 4*len(c.starts) + 2*len(c.lows) + headers
}

// hasBit reports whether position p is set, by a scan of its bucket.
func (c *Compact) hasBit(p uint64) bool {
	b, lo := p>>c.shift, uint16(p)
	for _, x := range c.lows[c.starts[b]:c.starts[b+1]] {
		if x >= lo {
			return x == lo
		}
	}
	return false
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
