// Package golomb implements Golomb run-length coding of non-negative
// integers, as used by PlanetP to compress sparse Bloom filters before
// gossiping them (Section 7.1 of the paper).
//
// A Golomb code with parameter M encodes a value v as a unary quotient
// q = v / M followed by a binary remainder r = v % M using the truncated
// binary encoding. For geometrically distributed inputs — such as the gaps
// between set bits in a sparse bit vector — choosing M near 0.69/p (p the
// bit density) yields near-entropy compression, which is why the paper found
// it to outperform gzip on Bloom filters.
package golomb

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// ErrCorrupt is returned when a decoder runs off the end of its input or
// encounters an impossible encoding.
var ErrCorrupt = errors.New("golomb: corrupt input")

// BitWriter accumulates bits into a byte slice, most significant bit first
// within each byte. Whole bytes are appended as they fill; fewer than eight
// bits wait in acc between calls.
type BitWriter struct {
	buf  []byte
	acc  uint64 // pending bits, right-aligned
	nacc uint   // number of pending bits, < 8 between calls
}

// NewBitWriter returns an empty BitWriter.
func NewBitWriter() *BitWriter { return &BitWriter{} }

// WriteBit appends a single bit (any non-zero b writes 1).
func (w *BitWriter) WriteBit(b uint) {
	if b != 0 {
		b = 1
	}
	w.WriteBits(uint64(b), 1)
}

// WriteBits appends the low n bits of v, most significant first. n must be
// at most 64.
func (w *BitWriter) WriteBits(v uint64, n uint) {
	if n > 32 { // keep pending + n within the 64-bit accumulator
		w.WriteBits(v>>32, n-32)
		n = 32
	}
	w.acc = w.acc<<n | v&(1<<n-1)
	w.nacc += n
	for w.nacc >= 8 {
		w.nacc -= 8
		w.buf = append(w.buf, byte(w.acc>>w.nacc))
	}
}

// WriteUnary appends q one-bits followed by a terminating zero-bit.
func (w *BitWriter) WriteUnary(q uint64) {
	for ; q >= 32; q -= 32 {
		w.WriteBits(1<<32-1, 32)
	}
	w.WriteBits((1<<q-1)<<1, uint(q)+1)
}

// Len returns the number of whole bytes needed to hold the written bits.
func (w *BitWriter) Len() int { return len(w.buf) + int(w.nacc+7)/8 }

// Bits returns the total number of bits written.
func (w *BitWriter) Bits() int { return len(w.buf)*8 + int(w.nacc) }

// Bytes returns the accumulated bytes. Unused trailing bits are zero.
func (w *BitWriter) Bytes() []byte {
	if w.nacc == 0 {
		return w.buf
	}
	return append(w.buf, byte(w.acc<<(8-w.nacc)))
}

// BitReader consumes bits from a byte slice in the order BitWriter wrote
// them.
type BitReader struct {
	buf []byte
	pos int // absolute bit position
}

// NewBitReader returns a reader over buf.
func NewBitReader(buf []byte) *BitReader { return &BitReader{buf: buf} }

// ReadBit returns the next bit, or an error at end of input.
func (r *BitReader) ReadBit() (uint, error) {
	byteIdx := r.pos >> 3
	if byteIdx >= len(r.buf) {
		return 0, ErrCorrupt
	}
	bit := uint(r.buf[byteIdx]>>(7-uint(r.pos&7))) & 1
	r.pos++
	return bit, nil
}

// peek returns the bits from the current position on, left-aligned in a
// word and zero-padded past the end of input. At least 57 of them are
// real unless the input ends sooner.
func (r *BitReader) peek() uint64 {
	i := r.pos >> 3
	var w uint64
	if i+8 <= len(r.buf) {
		w = binary.BigEndian.Uint64(r.buf[i:])
	} else {
		for k := i; k < len(r.buf); k++ {
			w |= uint64(r.buf[k]) << (56 - 8*uint(k-i))
		}
	}
	return w << uint(r.pos&7)
}

// ReadBits reads n bits (n <= 64) into the low bits of the result.
func (r *BitReader) ReadBits(n uint) (uint64, error) {
	if int(n) > len(r.buf)*8-r.pos {
		return 0, ErrCorrupt
	}
	if n > 57 { // more than one peek is sure to hold
		hi, _ := r.ReadBits(n - 32)
		lo, _ := r.ReadBits(32)
		return hi<<32 | lo, nil
	}
	v := r.peek() >> (64 - n)
	r.pos += int(n)
	return v, nil
}

// ReadUnary reads a unary-coded quantity (count of ones before a zero).
// The limit guards against corrupt input producing unbounded loops.
func (r *BitReader) ReadUnary(limit uint64) (uint64, error) {
	var q uint64
	for {
		avail := min(64-r.pos&7, len(r.buf)*8-r.pos)
		if avail <= 0 {
			return 0, ErrCorrupt
		}
		ones := bits.LeadingZeros64(^r.peek())
		if ones < avail {
			q += uint64(ones)
			r.pos += ones + 1
			if q > limit {
				return 0, ErrCorrupt
			}
			return q, nil
		}
		q += uint64(avail)
		r.pos += avail
		if q > limit {
			return 0, ErrCorrupt
		}
	}
}

// Pos returns the current absolute bit position.
func (r *BitReader) Pos() int { return r.pos }

// Encoder writes Golomb-coded values with a fixed parameter M.
type Encoder struct {
	w *BitWriter
	m uint64
	b uint   // ceil(log2(m))
	t uint64 // 2^b - m, the truncated-binary threshold
}

// NewEncoder returns an Encoder with parameter m (m >= 1).
func NewEncoder(m uint64) *Encoder {
	if m < 1 {
		panic(fmt.Sprintf("golomb: invalid parameter M=%d", m))
	}
	b := uint(bitsFor(m))
	return &Encoder{w: NewBitWriter(), m: m, b: b, t: (uint64(1) << b) - m}
}

// bitsFor returns ceil(log2(m)) with bitsFor(1) == 0.
func bitsFor(m uint64) int {
	if m <= 1 {
		return 0
	}
	return bits.Len64(m - 1)
}

// Put encodes one value.
func (e *Encoder) Put(v uint64) {
	q := v / e.m
	r := v % e.m
	e.w.WriteUnary(q)
	if e.m == 1 {
		return
	}
	// Truncated binary encoding of the remainder: the first t values use
	// b-1 bits; the rest use b bits offset by t.
	if r < e.t {
		e.w.WriteBits(r, e.b-1)
	} else {
		e.w.WriteBits(r+e.t, e.b)
	}
}

// Bytes returns the encoded byte stream.
func (e *Encoder) Bytes() []byte { return e.w.Bytes() }

// Bits returns the number of bits emitted so far.
func (e *Encoder) Bits() int { return e.w.Bits() }

// Decoder reads Golomb-coded values with a fixed parameter M.
type Decoder struct {
	r *BitReader
	m uint64
	b uint
	t uint64
	// maxQuotient bounds unary runs so corrupt input fails fast.
	maxQuotient uint64
}

// NewDecoder returns a Decoder over buf with parameter m.
func NewDecoder(buf []byte, m uint64) *Decoder {
	if m < 1 {
		panic(fmt.Sprintf("golomb: invalid parameter M=%d", m))
	}
	b := uint(bitsFor(m))
	return &Decoder{
		r: NewBitReader(buf), m: m, b: b, t: (uint64(1) << b) - m,
		maxQuotient: uint64(len(buf))*8 + 1,
	}
}

// Get decodes one value.
func (d *Decoder) Get() (uint64, error) {
	q, err := d.r.ReadUnary(d.maxQuotient)
	if err != nil {
		return 0, err
	}
	if d.m == 1 {
		return q, nil
	}
	r, err := d.r.ReadBits(d.b - 1)
	if err != nil {
		return 0, err
	}
	if r >= d.t {
		bit, err := d.r.ReadBit()
		if err != nil {
			return 0, err
		}
		r = r<<1 | uint64(bit) - d.t
	}
	// q*m + r overflowing uint64 cannot come from our encoder; fail
	// instead of returning a wrapped value.
	if q > (math.MaxUint64-r)/d.m {
		return 0, ErrCorrupt
	}
	return q*d.m + r, nil
}

// OptimalM returns the Golomb parameter that (approximately) minimizes the
// code length for gap sequences whose underlying bit density is p, i.e. the
// probability that any given bit is set. The classical rule is
// M = round(-1/log2(1-p)) ≈ 0.6931/p for small p.
func OptimalM(p float64) uint64 {
	if p <= 0 {
		return 1 << 30 // effectively raw binary; gaps are enormous
	}
	if p >= 1 {
		return 1
	}
	m := math.Round(-1 / math.Log2(1-p))
	if m < 1 {
		return 1
	}
	return uint64(m)
}

// EncodeGaps Golomb-encodes the gaps between successive sorted positions.
// positions must be strictly increasing. The first value encoded is
// positions[0], then positions[i]-positions[i-1]-1 for each subsequent one
// (the -1 exploits strict monotonicity to shave a bit per gap).
func EncodeGaps(positions []uint64, m uint64) ([]byte, error) {
	e := NewEncoder(m)
	prev := int64(-1)
	for _, p := range positions {
		if int64(p) <= prev {
			return nil, fmt.Errorf("golomb: positions not strictly increasing at %d", p)
		}
		e.Put(p - uint64(prev+1))
		prev = int64(p)
	}
	return e.Bytes(), nil
}

// DecodeGaps reverses EncodeGaps, returning count positions. count is
// validated against the input length before any allocation, so a hostile
// count cannot force a huge buffer.
func DecodeGaps(buf []byte, m uint64, count int) ([]uint64, error) {
	return AppendGaps([]uint64{}, buf, m, count)
}

// AppendGaps is DecodeGaps appending to dst, so a caller decoding many
// payloads can reuse one buffer.
func AppendGaps(dst []uint64, buf []byte, m uint64, count int) ([]uint64, error) {
	if count < 0 {
		return nil, ErrCorrupt
	}
	// Every encoded value costs at least one bit (its unary terminator),
	// so more values than input bits is corrupt by construction.
	if uint64(count) > uint64(len(buf))*8 {
		return nil, ErrCorrupt
	}
	d := NewDecoder(buf, m)
	out := slices.Grow(dst, count)
	next := uint64(0) // smallest position the next value may take
	overflowed := false
	for i := 0; i < count; i++ {
		gap, err := d.Get()
		if err != nil {
			return nil, err
		}
		// Positions must stay strictly increasing in uint64; any
		// wraparound means the input is corrupt.
		if overflowed {
			return nil, ErrCorrupt
		}
		p := next + gap
		if p < next {
			return nil, ErrCorrupt
		}
		out = append(out, p)
		next = p + 1
		overflowed = next == 0
	}
	return out, nil
}
