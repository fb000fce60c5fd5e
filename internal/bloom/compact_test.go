package bloom

import (
	"encoding/hex"
	"math/rand"
	"sort"
	"testing"
)

// mustDecodeCompact decodes or fails the test.
func mustDecodeCompact(t *testing.T, buf []byte) *Compact {
	t.Helper()
	c, err := DecodeCompact(buf)
	if err != nil {
		t.Fatalf("DecodeCompact: %v", err)
	}
	return c
}

// checkEquivalent probes f and c with the same digests and fails on any
// disagreement — the bit-identical contract.
func checkEquivalent(t *testing.T, f *Filter, c *Compact, keys []string) {
	t.Helper()
	for _, k := range keys {
		d := MakeDigest(k)
		if got, want := c.ContainsDigest(d), f.ContainsDigest(d); got != want {
			t.Fatalf("ContainsDigest(%q): compact=%v filter=%v", k, got, want)
		}
		if got, want := c.ContainsDigest(d), f.Contains(k); got != want {
			t.Fatalf("Contains(%q): compact=%v filter=%v", k, got, want)
		}
	}
}

// positionsOf reads c's set positions back out of its buckets: bucket b's
// high bits with each low half.
func positionsOf(c *Compact) []uint32 {
	out := make([]uint32, 0, len(c.lows))
	for b := 0; b+1 < len(c.starts); b++ {
		high := uint32(b) << c.shift &^ 0xffff
		for _, lo := range c.lows[c.starts[b]:c.starts[b+1]] {
			out = append(out, high|uint32(lo))
		}
	}
	return out
}

// TestCompactPinnedVectors pins the exact wire bytes, set positions, and
// probe outcomes for a small fixed filter, so any drift in hashing, the
// Golomb payload, or Compact's bucketed probing is caught against
// constants rather than against a co-evolving reference.
func TestCompactPinnedVectors(t *testing.T) {
	f := New(256, 3)
	for _, k := range []string{"alpha", "bravo", "charlie"} {
		f.Insert(k)
	}
	const wantWire = "01800203030913b6970e53fbab70"
	wire := f.Compress()
	if got := hex.EncodeToString(wire); got != wantWire {
		t.Fatalf("wire = %s, want %s", got, wantWire)
	}
	c := mustDecodeCompact(t, wire)
	wantPositions := []uint32{33, 43, 59, 67, 73, 81, 174, 186, 202}
	positions := positionsOf(c)
	if len(positions) != len(wantPositions) {
		t.Fatalf("positions = %v, want %v", positions, wantPositions)
	}
	for i, p := range wantPositions {
		if positions[i] != p {
			t.Fatalf("positions = %v, want %v", positions, wantPositions)
		}
	}
	if c.NumBits() != 256 || c.NumHashes() != 3 || c.Keys() != 3 || c.SetBits() != 9 {
		t.Fatalf("geometry = (%d,%d,%d,%d), want (256,3,3,9)",
			c.NumBits(), c.NumHashes(), c.Keys(), c.SetBits())
	}
	// Pinned digests and probe outcomes (inserted keys positive, the
	// absent ones negative at this fill).
	vectors := []struct {
		key      string
		h1, h2   uint64
		contains bool
	}{
		{"alpha", 0x8ac625bb85ed202b, 0xbbd2d2a491ee938f, true},
		{"bravo", 0xb469211dfdbe6043, 0x4d0422f62a7e9787, true},
		{"charlie", 0xa3683978114e2021, 0xf83a660567c1a48d, true},
		{"delta", 0x52076675ec13a0c1, 0x763379602559816d, false},
		{"echo", 0x3000e56026044164, 0x95c7bc60993c1bcf, false},
		{"foxtrot", 0xe9d5f383e02ade2f, 0x816b7a15e8d866c3, false},
		{"golf", 0x9cefca720ea68439, 0x51f9a6cee4f367c5, false},
		{"hotel", 0x42aaef7b47cd3d5d, 0x15b2b17b01bff259, false},
	}
	for _, v := range vectors {
		d := MakeDigest(v.key)
		if d.H1 != v.h1 || d.H2 != v.h2 {
			t.Fatalf("MakeDigest(%q) = {%#x, %#x}, want {%#x, %#x}",
				v.key, d.H1, d.H2, v.h1, v.h2)
		}
		if got := c.ContainsDigest(d); got != v.contains {
			t.Errorf("compact.ContainsDigest(%q) = %v, want %v", v.key, got, v.contains)
		}
		if got := f.ContainsDigest(d); got != v.contains {
			t.Errorf("filter.ContainsDigest(%q) = %v, want %v", v.key, got, v.contains)
		}
	}
}

// TestCompactEmptyFilter pins the empty-filter encoding and checks that an
// empty Compact rejects everything, exactly like the empty Filter.
func TestCompactEmptyFilter(t *testing.T) {
	f := New(128, 2)
	wire := f.Compress()
	if got, want := hex.EncodeToString(wire), "0180010200008080808004"; got != want {
		t.Fatalf("empty wire = %s, want %s", got, want)
	}
	c := mustDecodeCompact(t, wire)
	if c.SetBits() != 0 {
		t.Fatalf("SetBits = %d, want 0", c.SetBits())
	}
	checkEquivalent(t, f, c, []string{"", "a", "b", "anything at all"})
	if c.ContainsDigest(MakeDigest("x")) {
		t.Fatal("empty compact claims membership")
	}
}

// TestCompactSingleBit probes a filter with exactly one set bit: the
// bucket-scan edge cases (first/last/only element) all collapse here.
func TestCompactSingleBit(t *testing.T) {
	f := New(64, 1)
	if _, err := f.ApplyDiff([]uint64{5}); err != nil {
		t.Fatal(err)
	}
	c := mustDecodeCompact(t, f.Compress())
	if positions := positionsOf(c); c.SetBits() != 1 || positions[0] != 5 {
		t.Fatalf("positions = %v, want [5]", positions)
	}
	// Sweep digests whose single probe index covers every bit position.
	for h1 := uint64(0); h1 < 64; h1++ {
		d := Digest{H1: h1, H2: 1}
		if got, want := c.ContainsDigest(d), f.ContainsDigest(d); got != want {
			t.Fatalf("position %d: compact=%v filter=%v", h1, got, want)
		}
		if c.ContainsDigest(d) != (h1 == 5) {
			t.Fatalf("position %d: want hit only at 5", h1)
		}
	}
}

// TestCompactEquivalenceRandom cross-checks Compact against Filter on
// random corpora across several geometries, via both construction paths
// (wire decode and CompactOf).
func TestCompactEquivalenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	geoms := []struct{ nbits, nhash, nkeys int }{
		{512, 2, 20},
		{4096, 4, 200},
		{DefaultBits, DefaultHashes, 2000}, // paper geometry
		{1 << 16, 8, 1000},
	}
	for _, g := range geoms {
		f := New(g.nbits, g.nhash)
		keys := make([]string, 0, 2*g.nkeys)
		for i := 0; i < g.nkeys; i++ {
			k := randKey(rng)
			f.Insert(k)
			keys = append(keys, k)
		}
		for i := 0; i < g.nkeys; i++ {
			keys = append(keys, randKey(rng)) // mostly-absent probes
		}
		wire := f.Compress()
		c := mustDecodeCompact(t, wire)
		checkEquivalent(t, f, c, keys)
		checkEquivalent(t, f, CompactOf(f), keys)
		// Positive probes must all hit (no false negatives through the
		// succinct path).
		for _, k := range keys[:g.nkeys] {
			if !c.ContainsDigest(MakeDigest(k)) {
				t.Fatalf("geometry %+v: inserted key %q missing from compact", g, k)
			}
		}
	}
}

// TestCompactRejectsCorrupt requires DecodeCompact to reject exactly what
// Decompress rejects.
func TestCompactRejectsCorrupt(t *testing.T) {
	f := New(1024, 2)
	f.Insert("x")
	wire := f.Compress()
	bad := [][]byte{
		nil,
		{},
		{0xff},             // wrong version
		wire[:1],           // truncated header
		wire[:len(wire)/2], // truncated payload
	}
	for i, buf := range bad {
		if _, err := DecodeCompact(buf); err == nil {
			t.Errorf("case %d: DecodeCompact accepted corrupt input", i)
		}
		if _, err := Decompress(buf); err == nil {
			t.Errorf("case %d: Decompress accepted corrupt input", i)
		}
	}
}

// TestCompactBucketsMatchFilter probes the bucketed layout where it can
// slip: no position and one, every position in one bucket, the first and
// last bit, positions on both sides of every bucket boundary, geometries
// that are not powers of two, and one wide enough that the 2^16 width cap
// sets the bucket count. Every bit is probed alone against Filter, then
// random digests for 1 to 8 hashes.
func TestCompactBucketsMatchFilter(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	// fill adds distinct random positions below nbits to have until it
	// holds n.
	fill := func(nbits uint64, have []uint64, n int) []uint64 {
		in := make(map[uint64]bool, n)
		for _, p := range have {
			in[p] = true
		}
		for len(have) < n {
			if p := uint64(rng.Int63n(int64(nbits))); !in[p] {
				in[p] = true
				have = append(have, p)
			}
		}
		return have
	}
	// boundaries returns nset positions among nbits: both sides of every
	// boundary of the buckets nset positions get, then random ones.
	boundaries := func(nbits uint64, nset int) []uint64 {
		var out []uint64
		width := uint64(1) << bucketShift(nbits, uint64(nset))
		for b := width; b < nbits; b += width {
			out = append(out, b-1, b)
		}
		return fill(nbits, out, nset)
	}
	cases := []struct {
		name      string
		nbits     uint64
		positions []uint64
		buckets   int // 0: not checked
	}{
		{"none", 1000, nil, 0},
		{"only the first bit", 1000, []uint64{0}, 0},
		{"only the last bit", 1000, []uint64{999}, 0},
		{"all in bucket 2 of 8", 8192, seq(2048, 64), 8},
		{"first, last and random", 12345, fill(12345, []uint64{0, 12344}, 300), 0},
		{"every boundary, paper geometry", DefaultBits, boundaries(DefaultBits, 2000), 200},
		{"width capped at 2^16", 1<<20 + 3, boundaries(1<<20+3, 32), 17},
	}
	for _, tc := range cases {
		positions := append([]uint64(nil), tc.positions...)
		sort.Slice(positions, func(i, j int) bool { return positions[i] < positions[j] })
		for nhash := 1; nhash <= 8; nhash++ {
			f := New(int(tc.nbits), nhash)
			if _, err := f.ApplyDiff(positions); err != nil {
				t.Fatal(err)
			}
			for _, c := range []*Compact{CompactOf(f), mustDecodeCompact(t, f.Compress())} {
				if tc.buckets > 0 && len(c.starts)-1 != tc.buckets {
					t.Fatalf("%s: %d buckets, want %d", tc.name, len(c.starts)-1, tc.buckets)
				}
				got := positionsOf(c)
				for i := range got {
					if len(got) != len(positions) || uint64(got[i]) != positions[i] {
						t.Fatalf("%s: positions read back as %v, want %v", tc.name, got, positions)
					}
				}
				if want := compactBytes(tc.nbits, uint64(len(positions))) + 48; uint64(c.SizeBytes()) != want {
					t.Fatalf("%s: SizeBytes %d, want %d", tc.name, c.SizeBytes(), want)
				}
				if nhash == 1 {
					for p := uint64(0); p < tc.nbits; p++ {
						if d := (Digest{H1: p}); c.ContainsDigest(d) != f.ContainsDigest(d) {
							t.Fatalf("%s: bit %d: compact=%v filter=%v", tc.name, p, c.ContainsDigest(d), f.ContainsDigest(d))
						}
					}
				}
				for i := 0; i < 2000; i++ {
					// A digest through a set bit half the time, so later
					// hashes get probed too.
					d := Digest{H1: rng.Uint64(), H2: rng.Uint64() | 1}
					if len(positions) > 0 && i%2 == 0 {
						d.H1 = positions[rng.Intn(len(positions))]
					}
					if c.ContainsDigest(d) != f.ContainsDigest(d) {
						t.Fatalf("%s, %d hashes: digest %+v: compact=%v filter=%v", tc.name, nhash, d, c.ContainsDigest(d), f.ContainsDigest(d))
					}
				}
			}
		}
	}
}

// seq returns n consecutive positions from first.
func seq(first uint64, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = first + uint64(i)
	}
	return out
}

// TestCompactSizeBytes sanity-checks the residency claim driving the
// filter cache: for a paper-geometry filter with a few thousand terms
// the position list is at least 5x smaller than the decompressed bitset.
func TestCompactSizeBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := Default()
	for i := 0; i < 1000; i++ {
		f.Insert(randKey(rng))
	}
	c := CompactOf(f)
	bitset := DefaultBits / 8
	if c.SizeBytes()*5 > bitset {
		t.Fatalf("compact %d bytes vs bitset %d bytes: less than 5x smaller", c.SizeBytes(), bitset)
	}
}

func randKey(rng *rand.Rand) string {
	b := make([]byte, 8+rng.Intn(12))
	for i := range b {
		b[i] = byte('a' + rng.Intn(26))
	}
	return string(b)
}
