// Package bloom implements the Bloom filters PlanetP uses to summarize each
// peer's inverted index (Section 2 of the paper). A filter supports
// insertion and membership tests over terms, merging (a peer may combine
// several peers' filters to trade accuracy for storage), diffing (PlanetP
// gossips Bloom-filter diffs rather than whole filters), and a compact
// Golomb-coded wire encoding (Section 7.1: run-length compression using
// Golomb codes, which outperformed gzip on sparse filters).
//
// Hashing uses 64-bit FNV-1a split into two 32-bit halves combined with the
// standard Kirsch–Mitzenmacher double-hashing construction, giving any
// number of index functions from a single pass over the key.
package bloom

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"

	"planetp/internal/golomb"
)

// Paper defaults (Section 7.1): constant-size 50 KB filters summarizing up
// to 50,000 terms with < 5% false-positive rate using two hash functions.
const (
	// DefaultBits is the paper's 50 KB filter size in bits.
	DefaultBits = 50 * 1024 * 8
	// DefaultHashes is the paper's hash-function count.
	DefaultHashes = 2
)

// Errors returned by the decoding paths.
var (
	ErrCorrupt      = errors.New("bloom: corrupt encoding")
	ErrIncompatible = errors.New("bloom: filters have different geometry")
)

// Filter is a Bloom filter over string keys. The zero value is not usable;
// construct with New or Default.
type Filter struct {
	bits   []uint64
	nbits  uint64
	nhash  uint32
	nkeys  uint64 // number of Insert calls that set at least one new bit pattern
	ngen   uint64 // total Insert calls (including duplicates)
	setcnt uint64 // number of set bits, maintained incrementally
}

// New returns a filter with nbits bits and nhash hash functions.
func New(nbits int, nhash int) *Filter {
	if nbits <= 0 {
		panic(fmt.Sprintf("bloom: invalid bit count %d", nbits))
	}
	if nhash <= 0 {
		panic(fmt.Sprintf("bloom: invalid hash count %d", nhash))
	}
	return &Filter{
		bits:  make([]uint64, (nbits+63)/64),
		nbits: uint64(nbits),
		nhash: uint32(nhash),
	}
}

// Default returns a filter with the paper's default geometry (50 KB, 2
// hash functions).
func Default() *Filter { return New(DefaultBits, DefaultHashes) }

// NumBits returns the filter's size in bits.
func (f *Filter) NumBits() int { return int(f.nbits) }

// NumHashes returns the number of hash functions.
func (f *Filter) NumHashes() int { return int(f.nhash) }

// Keys returns the number of distinct-pattern insertions observed. It is an
// approximation of the number of distinct keys inserted (two distinct keys
// can collide on every bit, though with the default geometry this is rare).
func (f *Filter) Keys() int { return int(f.nkeys) }

// SetBits returns the number of one bits.
func (f *Filter) SetBits() int { return int(f.setcnt) }

// SizeBytes returns the resident footprint of the bitset plus the struct
// header — what a byte-budgeted cache should charge for keeping this
// Filter in memory (the counterpart of Compact.SizeBytes).
func (f *Filter) SizeBytes() int {
	const structOverhead = 64
	return 8*len(f.bits) + structOverhead
}

// FNV-1a 64-bit parameters (FNV offset basis and prime).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// Digest is the hash-once summary of one key: the two base hashes the
// Kirsch–Mitzenmacher construction combines into any number of index
// functions. Computing a Digest walks the key exactly once; probing a
// filter with it costs only arithmetic. The query engine hashes each
// query term once and sweeps every peer's filter with the digests,
// instead of re-hashing per (peer, term).
type Digest struct {
	// H1 is FNV-1a over the key.
	H1 uint64
	// H2 continues the same FNV-1a state over a suffix byte, forced odd
	// so strides cover the whole bit table.
	H2 uint64
}

// MakeDigest hashes key once. The construction is bit-identical to the
// original two-pass form (FNV-1a of the key, and FNV-1a of the key plus
// the suffix byte 0x9e): FNV-1a is a running state, so the second hash is
// the first continued over one more byte.
func MakeDigest(key string) Digest {
	h := uint64(fnvOffset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= fnvPrime64
	}
	return Digest{H1: h, H2: ((h ^ 0x9e) * fnvPrime64) | 1}
}

// MakeDigests hashes every key once.
func MakeDigests(keys []string) []Digest {
	out := make([]Digest, len(keys))
	for i, k := range keys {
		out[i] = MakeDigest(k)
	}
	return out
}

// hashPair derives the two base hashes for a key.
func hashPair(key string) (uint64, uint64) {
	d := MakeDigest(key)
	return d.H1, d.H2
}

// indexes computes the nhash bit positions for key, appending to dst.
func (f *Filter) indexes(key string, dst []uint64) []uint64 {
	return f.IndexesDigest(MakeDigest(key), dst)
}

// IndexesDigest computes the nhash bit positions for a precomputed
// digest, appending to dst.
func (f *Filter) IndexesDigest(d Digest, dst []uint64) []uint64 {
	h := d.H1
	for i := uint32(0); i < f.nhash; i++ {
		dst = append(dst, h%f.nbits)
		h += d.H2
	}
	return dst
}

// setBit sets bit p, returning true if it was previously clear.
func (f *Filter) setBit(p uint64) bool {
	word, mask := p>>6, uint64(1)<<(p&63)
	if f.bits[word]&mask != 0 {
		return false
	}
	f.bits[word] |= mask
	f.setcnt++
	return true
}

// getBit reports whether bit p is set.
func (f *Filter) getBit(p uint64) bool {
	return f.bits[p>>6]&(uint64(1)<<(p&63)) != 0
}

// Insert adds key to the filter, returning true if the insertion changed
// the filter (i.e. at least one bit flipped — a proxy for "new key").
func (f *Filter) Insert(key string) bool {
	var buf [16]uint64
	idx := f.indexes(key, buf[:0])
	changed := false
	for _, p := range idx {
		if f.setBit(p) {
			changed = true
		}
	}
	f.ngen++
	if changed {
		f.nkeys++
	}
	return changed
}

// InsertAll adds every key, returning the number whose insertion changed
// the filter.
func (f *Filter) InsertAll(keys []string) int {
	n := 0
	for _, k := range keys {
		if f.Insert(k) {
			n++
		}
	}
	return n
}

// Contains reports whether key may be in the filter. False positives are
// possible; false negatives are not.
func (f *Filter) Contains(key string) bool {
	var buf [16]uint64
	for _, p := range f.indexes(key, buf[:0]) {
		if !f.getBit(p) {
			return false
		}
	}
	return true
}

// ContainsDigest reports whether the key summarized by d may be in the
// filter, without re-hashing it.
func (f *Filter) ContainsDigest(d Digest) bool {
	h := d.H1
	for i := uint32(0); i < f.nhash; i++ {
		if !f.getBit(h % f.nbits) {
			return false
		}
		h += d.H2
	}
	return true
}

// FillRatio returns the fraction of bits set.
func (f *Filter) FillRatio() float64 {
	return float64(f.setcnt) / float64(f.nbits)
}

// FalsePositiveRate estimates the probability that a random absent key
// tests positive, (fill)^k.
func (f *Filter) FalsePositiveRate() float64 {
	return math.Pow(f.FillRatio(), float64(f.nhash))
}

// EstimateCardinality estimates how many distinct keys produced the current
// fill using the standard inversion n ≈ -(m/k) ln(1 - X/m).
func (f *Filter) EstimateCardinality() int {
	x := f.FillRatio()
	if x >= 1 {
		return int(f.nbits) // saturated; no information
	}
	n := -(float64(f.nbits) / float64(f.nhash)) * math.Log(1-x)
	return int(math.Round(n))
}

// ExpectedFPRate predicts the false-positive rate after inserting n keys
// into a fresh filter with this geometry: (1 - e^{-kn/m})^k.
func ExpectedFPRate(nbits, nhash, nkeys int) float64 {
	return math.Pow(1-math.Exp(-float64(nhash)*float64(nkeys)/float64(nbits)), float64(nhash))
}

// Clone returns a deep copy.
func (f *Filter) Clone() *Filter {
	c := &Filter{
		bits:  make([]uint64, len(f.bits)),
		nbits: f.nbits, nhash: f.nhash,
		nkeys: f.nkeys, ngen: f.ngen, setcnt: f.setcnt,
	}
	copy(c.bits, f.bits)
	return c
}

// Equal reports whether two filters have identical geometry and contents.
func (f *Filter) Equal(g *Filter) bool {
	if f.nbits != g.nbits || f.nhash != g.nhash {
		return false
	}
	for i := range f.bits {
		if f.bits[i] != g.bits[i] {
			return false
		}
	}
	return true
}

// Merge ORs other into f. A peer may merge several peers' filters to save
// space at the cost of contacting the whole set on a hit (Section 2).
func (f *Filter) Merge(other *Filter) error {
	if f.nbits != other.nbits || f.nhash != other.nhash {
		return ErrIncompatible
	}
	var set uint64
	for i := range f.bits {
		merged := f.bits[i] | other.bits[i]
		set += uint64(bits.OnesCount64(merged))
		f.bits[i] = merged
	}
	f.setcnt = set
	f.nkeys += other.nkeys // upper bound; duplicates cannot be distinguished
	f.ngen += other.ngen
	return nil
}

// Positions returns the sorted positions of all set bits.
func (f *Filter) Positions() []uint64 {
	out := make([]uint64, 0, f.setcnt)
	for w, word := range f.bits {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			out = append(out, uint64(w*64+b))
			word &= word - 1
		}
	}
	return out
}

// Diff returns the positions set in f but not in old — the wire payload
// PlanetP gossips when a peer's index grows ("PlanetP sends diffs of the
// Bloom filters to save bandwidth", Section 7.2). old may be nil, in which
// case all set positions are returned.
func (f *Filter) Diff(old *Filter) ([]uint64, error) {
	if old == nil {
		return f.Positions(), nil
	}
	if f.nbits != old.nbits || f.nhash != old.nhash {
		return nil, ErrIncompatible
	}
	var out []uint64
	for w := range f.bits {
		word := f.bits[w] &^ old.bits[w]
		for word != 0 {
			b := bits.TrailingZeros64(word)
			out = append(out, uint64(w*64+b))
			word &= word - 1
		}
	}
	return out, nil
}

// ApplyDiff sets the given bit positions (received from a gossiped diff).
// It returns the number of bits newly set.
func (f *Filter) ApplyDiff(positions []uint64) (int, error) {
	n := 0
	for _, p := range positions {
		if p >= f.nbits {
			return n, ErrCorrupt
		}
		if f.setBit(p) {
			n++
		}
	}
	return n, nil
}

// wire format version for Compress/Decompress and diff encoding.
const wireVersion = 1

// Decode-side sanity bounds: a filter larger than 32 MB (2^28 bits) or a
// Golomb parameter beyond OptimalM's ceiling (2^30, the empty-filter
// value) cannot come from our encoder, and rejecting them up front keeps
// hostile headers from forcing huge allocations or degenerate decoders.
const (
	maxWireBits = 1 << 28
	maxWireM    = 1 << 30
)

// Compress returns the Golomb-coded wire encoding of the filter:
//
//	[version u8][nbits uvarint][nhash uvarint][nkeys uvarint]
//	[nset uvarint][M uvarint][payload]
func (f *Filter) Compress() []byte {
	positions := f.Positions()
	p := f.FillRatio()
	m := golomb.OptimalM(p)
	payload, err := golomb.EncodeGaps(positions, m)
	if err != nil {
		// Positions from a bitmap are always strictly increasing.
		panic("bloom: internal error: " + err.Error())
	}
	hdr := make([]byte, 0, 32)
	hdr = append(hdr, wireVersion)
	hdr = binary.AppendUvarint(hdr, f.nbits)
	hdr = binary.AppendUvarint(hdr, uint64(f.nhash))
	hdr = binary.AppendUvarint(hdr, f.nkeys)
	hdr = binary.AppendUvarint(hdr, uint64(len(positions)))
	hdr = binary.AppendUvarint(hdr, m)
	return append(hdr, payload...)
}

// wireHeader is the parsed fixed part of a Compress encoding, shared by
// Decompress and DecodeCompact so the two accept and reject identical
// inputs.
type wireHeader struct {
	nbits uint64
	nhash uint64
	nkeys uint64
	nset  uint64
	m     uint64
}

// decodeWireHeader parses and validates the Compress header, returning
// the remaining Golomb payload.
func decodeWireHeader(buf []byte) (wireHeader, []byte, error) {
	var hdr wireHeader
	if len(buf) < 1 || buf[0] != wireVersion {
		return hdr, nil, ErrCorrupt
	}
	rest := buf[1:]
	next := func() (uint64, error) {
		v, n := binary.Uvarint(rest)
		if n <= 0 {
			return 0, ErrCorrupt
		}
		rest = rest[n:]
		return v, nil
	}
	var err error
	if hdr.nbits, err = next(); err != nil {
		return hdr, nil, err
	}
	if hdr.nhash, err = next(); err != nil {
		return hdr, nil, err
	}
	if hdr.nkeys, err = next(); err != nil {
		return hdr, nil, err
	}
	if hdr.nset, err = next(); err != nil {
		return hdr, nil, err
	}
	if hdr.m, err = next(); err != nil {
		return hdr, nil, err
	}
	if hdr.nbits == 0 || hdr.nbits > maxWireBits || hdr.nhash == 0 || hdr.nhash > 64 || hdr.nset > hdr.nbits {
		return hdr, nil, ErrCorrupt
	}
	if hdr.m == 0 || hdr.m > maxWireM {
		return hdr, nil, ErrCorrupt
	}
	return hdr, rest, nil
}

// CompactSmaller reports whether a Compress encoding's Compact form (about
// 2.5 B per set bit, compactBytes) would be resident no larger than its
// Filter (nbits/8 B), read off the header alone: no positions are decoded,
// so a caller can pick the smaller form before paying for either decode.
// The forms cost the same near one set bit in 20. A header that does not
// parse reports false; both decoders reject it.
func CompactSmaller(buf []byte) bool {
	hdr, err := header(buf)
	return err == nil && compactBytes(hdr.nbits, hdr.nset) <= hdr.nbits/8
}

// Header reads a Compress encoding's geometry and set-bit count off its
// header alone; ok is false where every decoder refuses the header. For a
// chain the count is an upper bound (chainHeader).
func Header(buf []byte) (nbits, nhash, nset uint64, ok bool) {
	hdr, err := header(buf)
	return hdr.nbits, hdr.nhash, hdr.nset, err == nil
}

// header is decodeWireHeader for either encoding, without the payload.
func header(buf []byte) (wireHeader, error) {
	if IsChain(buf) {
		return chainHeader(buf)
	}
	hdr, _, err := decodeWireHeader(buf)
	return hdr, err
}

// DecodePositions decodes a Compress or chain encoding's set-bit positions,
// ascending and below its nbits, into dst's storage. It accepts and rejects
// exactly what Decompress does.
func DecodePositions(dst []uint64, buf []byte) ([]uint64, error) {
	_, positions, err := decodePositions(dst[:0], buf)
	return positions, err
}

// decodePositions is the validation every decoder shares: the header, the
// Golomb gaps, and the last position below nbits. Positions are decoded
// before any filter is allocated, so a corrupt header cannot cost a large
// allocation for garbage payload. A chain decodes as the union of its parts.
func decodePositions(dst []uint64, buf []byte) (wireHeader, []uint64, error) {
	if IsChain(buf) {
		c, err := ParseChain(buf)
		if err != nil {
			return wireHeader{}, nil, err
		}
		return decodeChainPositions(dst, c)
	}
	hdr, rest, err := decodeWireHeader(buf)
	if err != nil {
		return hdr, nil, err
	}
	positions, err := golomb.AppendGaps(dst, rest, hdr.m, int(hdr.nset))
	if err != nil {
		return hdr, nil, fmt.Errorf("bloom: %w", err)
	}
	// Positions ascend, so the last one bounds them all.
	if n := len(positions); n > 0 && positions[n-1] >= hdr.nbits {
		return hdr, nil, ErrCorrupt
	}
	return hdr, positions, nil
}

// Decompress reconstructs a filter from its Compress encoding, or from a
// based chain (the union of its parts).
func Decompress(buf []byte) (*Filter, error) {
	if IsChain(buf) {
		c, err := ParseChain(buf)
		if err != nil {
			return nil, err
		}
		return decodeChain(c)
	}
	hdr, positions, err := decodePositions(nil, buf)
	if err != nil {
		return nil, err
	}
	f := New(int(hdr.nbits), int(hdr.nhash))
	f.nkeys = hdr.nkeys
	if _, err := f.ApplyDiff(positions); err != nil {
		return nil, err
	}
	return f, nil
}

// EncodeDiff serializes a diff (bit positions) with the same Golomb scheme:
//
//	[version u8][count uvarint][M uvarint][payload]
func EncodeDiff(positions []uint64, totalBits int) ([]byte, error) {
	density := float64(len(positions)) / float64(totalBits)
	m := golomb.OptimalM(density)
	payload, err := golomb.EncodeGaps(positions, m)
	if err != nil {
		return nil, err
	}
	hdr := make([]byte, 0, 16)
	hdr = append(hdr, wireVersion)
	hdr = binary.AppendUvarint(hdr, uint64(len(positions)))
	hdr = binary.AppendUvarint(hdr, m)
	return append(hdr, payload...), nil
}

// DecodeDiff reverses EncodeDiff.
func DecodeDiff(buf []byte) ([]uint64, error) {
	return appendDiff([]uint64{}, buf)
}
