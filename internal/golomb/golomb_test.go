package golomb

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestBitWriterReaderRoundTrip(t *testing.T) {
	w := NewBitWriter()
	pattern := []uint{1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1, 0, 0, 0, 1}
	for _, b := range pattern {
		w.WriteBit(b)
	}
	if got := w.Bits(); got != len(pattern) {
		t.Fatalf("Bits() = %d, want %d", got, len(pattern))
	}
	r := NewBitReader(w.Bytes())
	for i, want := range pattern {
		got, err := r.ReadBit()
		if err != nil {
			t.Fatalf("ReadBit(%d): %v", i, err)
		}
		if got != want {
			t.Fatalf("bit %d = %d, want %d", i, got, want)
		}
	}
}

func TestBitWriterWriteBits(t *testing.T) {
	w := NewBitWriter()
	w.WriteBits(0b1011, 4)
	w.WriteBits(0xFF, 8)
	w.WriteBits(0, 3)
	r := NewBitReader(w.Bytes())
	if v, _ := r.ReadBits(4); v != 0b1011 {
		t.Errorf("first field = %b", v)
	}
	if v, _ := r.ReadBits(8); v != 0xFF {
		t.Errorf("second field = %x", v)
	}
	if v, _ := r.ReadBits(3); v != 0 {
		t.Errorf("third field = %b", v)
	}
}

func TestBitReaderEOF(t *testing.T) {
	r := NewBitReader([]byte{0xAA})
	if _, err := r.ReadBits(8); err != nil {
		t.Fatalf("within bounds: %v", err)
	}
	if _, err := r.ReadBit(); err != ErrCorrupt {
		t.Fatalf("expected ErrCorrupt past end, got %v", err)
	}
}

func TestUnary(t *testing.T) {
	w := NewBitWriter()
	for q := uint64(0); q < 20; q++ {
		w.WriteUnary(q)
	}
	r := NewBitReader(w.Bytes())
	for q := uint64(0); q < 20; q++ {
		got, err := r.ReadUnary(100)
		if err != nil {
			t.Fatalf("ReadUnary: %v", err)
		}
		if got != q {
			t.Fatalf("unary %d decoded as %d", q, got)
		}
	}
}

func TestUnaryLimit(t *testing.T) {
	r := NewBitReader([]byte{0xFF, 0xFF})
	if _, err := r.ReadUnary(5); err != ErrCorrupt {
		t.Fatalf("expected ErrCorrupt for runaway unary, got %v", err)
	}
}

// TestWordKernelMatchesBitAtATime pins the word-at-a-time WriteBits,
// WriteUnary, ReadBits and ReadUnary to the bit-at-a-time definition:
// the same fields written through WriteBit alone give the same bytes,
// and read back through ReadBit alone give the same values, at every
// alignment and at widths and run lengths that cross the 32- and 64-bit
// boundaries.
func TestWordKernelMatchesBitAtATime(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	type field struct {
		unary bool
		v     uint64
		n     uint
	}
	var fields []field
	for i := 0; i < 4000; i++ {
		if rng.Intn(2) == 0 {
			q := uint64(rng.Intn(8))
			if rng.Intn(16) == 0 {
				q = uint64(rng.Intn(200))
			}
			fields = append(fields, field{unary: true, v: q})
		} else {
			n := uint(rng.Intn(65))
			fields = append(fields, field{v: rng.Uint64(), n: n})
		}
	}
	fast, slow := NewBitWriter(), NewBitWriter()
	for _, f := range fields {
		if f.unary {
			fast.WriteUnary(f.v)
			for i := uint64(0); i < f.v; i++ {
				slow.WriteBit(1)
			}
			slow.WriteBit(0)
			continue
		}
		fast.WriteBits(f.v, f.n)
		for i := int(f.n) - 1; i >= 0; i-- {
			slow.WriteBit(uint(f.v>>uint(i)) & 1)
		}
	}
	if fast.Bits() != slow.Bits() || fast.Len() != slow.Len() {
		t.Fatalf("Bits/Len = %d/%d, bit-at-a-time %d/%d", fast.Bits(), fast.Len(), slow.Bits(), slow.Len())
	}
	if !reflect.DeepEqual(fast.Bytes(), slow.Bytes()) {
		t.Fatal("word-at-a-time writer produced different bytes")
	}
	r, ref := NewBitReader(fast.Bytes()), NewBitReader(fast.Bytes())
	for i, f := range fields {
		var got, want uint64
		var err error
		if f.unary {
			got, err = r.ReadUnary(1 << 20)
			for b, _ := ref.ReadBit(); b == 1; b, _ = ref.ReadBit() {
				want++
			}
		} else {
			got, err = r.ReadBits(f.n)
			for k := uint(0); k < f.n; k++ {
				b, _ := ref.ReadBit()
				want = want<<1 | uint64(b)
			}
		}
		if err != nil || got != want || r.Pos() != ref.Pos() {
			t.Fatalf("field %d (%+v): got %d at bit %d (%v), want %d at bit %d", i, f, got, r.Pos(), err, want, ref.Pos())
		}
	}
	// A run of ones that reaches the end of input has no terminator.
	if _, err := NewBitReader([]byte{0xFF, 0xFF, 0xFF}).ReadUnary(1 << 20); err != ErrCorrupt {
		t.Fatalf("unterminated run = %v, want ErrCorrupt", err)
	}
	if _, err := NewBitReader(make([]byte, 7)).ReadBits(57); err != ErrCorrupt {
		t.Fatalf("ReadBits past end = %v, want ErrCorrupt", err)
	}
}

func TestBitsFor(t *testing.T) {
	cases := map[uint64]int{1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4, 1024: 10}
	for m, want := range cases {
		if got := bitsFor(m); got != want {
			t.Errorf("bitsFor(%d) = %d, want %d", m, got, want)
		}
	}
}

func TestEncoderDecoderSmallValues(t *testing.T) {
	for _, m := range []uint64{1, 2, 3, 4, 5, 7, 8, 10, 64, 100} {
		e := NewEncoder(m)
		for v := uint64(0); v < 200; v++ {
			e.Put(v)
		}
		d := NewDecoder(e.Bytes(), m)
		for v := uint64(0); v < 200; v++ {
			got, err := d.Get()
			if err != nil {
				t.Fatalf("M=%d v=%d: %v", m, v, err)
			}
			if got != v {
				t.Fatalf("M=%d: decoded %d, want %d", m, got, v)
			}
		}
	}
}

func TestEncoderDecoderRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		m := uint64(rng.Intn(500) + 1)
		vals := make([]uint64, 1+rng.Intn(300))
		for i := range vals {
			vals[i] = uint64(rng.Intn(10000))
		}
		e := NewEncoder(m)
		for _, v := range vals {
			e.Put(v)
		}
		d := NewDecoder(e.Bytes(), m)
		for i, v := range vals {
			got, err := d.Get()
			if err != nil {
				t.Fatalf("trial %d M=%d idx %d: %v", trial, m, i, err)
			}
			if got != v {
				t.Fatalf("trial %d M=%d idx %d: got %d want %d", trial, m, i, got, v)
			}
		}
	}
}

// Property: encode/decode round-trips arbitrary bounded gap values for a
// spread of Golomb parameters.
func TestQuickRoundTrip(t *testing.T) {
	f := func(raw []uint16, mRaw uint8) bool {
		m := uint64(mRaw)%257 + 1
		e := NewEncoder(m)
		for _, v := range raw {
			e.Put(uint64(v))
		}
		d := NewDecoder(e.Bytes(), m)
		for _, v := range raw {
			got, err := d.Get()
			if err != nil || got != uint64(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestOptimalM(t *testing.T) {
	// For small p, M ≈ 0.693/p.
	if m := OptimalM(0.01); m < 60 || m > 80 {
		t.Errorf("OptimalM(0.01) = %d, want ≈69", m)
	}
	if m := OptimalM(0.5); m != 1 {
		t.Errorf("OptimalM(0.5) = %d, want 1", m)
	}
	if m := OptimalM(0); m < 1<<20 {
		t.Errorf("OptimalM(0) should be huge, got %d", m)
	}
	if m := OptimalM(1); m != 1 {
		t.Errorf("OptimalM(1) = %d, want 1", m)
	}
}

func TestEncodeDecodeGaps(t *testing.T) {
	positions := []uint64{0, 1, 5, 6, 100, 10000, 10001}
	buf, err := EncodeGaps(positions, 64)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeGaps(buf, 64, len(positions))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, positions) {
		t.Fatalf("round trip: got %v want %v", got, positions)
	}
}

func TestEncodeGapsRejectsUnsorted(t *testing.T) {
	if _, err := EncodeGaps([]uint64{5, 5}, 8); err == nil {
		t.Fatal("expected error for duplicate positions")
	}
	if _, err := EncodeGaps([]uint64{5, 3}, 8); err == nil {
		t.Fatal("expected error for decreasing positions")
	}
}

// Property: gap encoding round-trips any strictly increasing position set.
func TestQuickGaps(t *testing.T) {
	f := func(deltas []uint16, mRaw uint8) bool {
		m := uint64(mRaw)%100 + 1
		positions := make([]uint64, 0, len(deltas))
		cur := uint64(0)
		for _, d := range deltas {
			cur += uint64(d) + 1 // strictly increasing
			positions = append(positions, cur)
		}
		buf, err := EncodeGaps(positions, m)
		if err != nil {
			return false
		}
		got, err := DecodeGaps(buf, m, len(positions))
		if err != nil {
			return false
		}
		return reflect.DeepEqual(got, positions)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Sparse bit vectors with density p should compress to roughly the entropy
// bound rather than the raw bitmap size.
func TestCompressionBeatsRawBitmap(t *testing.T) {
	const nbits = 400000 // the paper's 50KB filter
	const nset = 2000    // sparse
	rng := rand.New(rand.NewSource(7))
	seen := map[uint64]bool{}
	positions := make([]uint64, 0, nset)
	for len(positions) < nset {
		p := uint64(rng.Intn(nbits))
		if !seen[p] {
			seen[p] = true
			positions = append(positions, p)
		}
	}
	sortU64(positions)
	m := OptimalM(float64(nset) / float64(nbits))
	buf, err := EncodeGaps(positions, m)
	if err != nil {
		t.Fatal(err)
	}
	rawBytes := nbits / 8
	if len(buf) >= rawBytes/4 {
		t.Fatalf("compressed %d bytes; expected < %d (raw %d)", len(buf), rawBytes/4, rawBytes)
	}
}

func sortU64(v []uint64) {
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j-1] > v[j]; j-- {
			v[j-1], v[j] = v[j], v[j-1]
		}
	}
}

func BenchmarkEncode1000Gaps(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	positions := make([]uint64, 1000)
	cur := uint64(0)
	for i := range positions {
		cur += uint64(rng.Intn(400)) + 1
		positions[i] = cur
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := EncodeGaps(positions, 256); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecode1000Gaps(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	positions := make([]uint64, 1000)
	cur := uint64(0)
	for i := range positions {
		cur += uint64(rng.Intn(400)) + 1
		positions[i] = cur
	}
	buf, err := EncodeGaps(positions, 256)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeGaps(buf, 256, len(positions)); err != nil {
			b.Fatal(err)
		}
	}
}
