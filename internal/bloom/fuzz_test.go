package bloom

import (
	"fmt"
	"math/rand"
	"testing"
)

// addWireSeeds seeds a fuzz target over Compress encodings (FuzzDecompress's
// corpus, which FuzzCompactMatchesFilter shares).
func addWireSeeds(f *testing.F) {
	small := New(1024, 2)
	small.Insert("alpha")
	small.Insert("beta")
	f.Add(small.Compress())
	f.Add(Default().Compress())
	f.Add([]byte{})
	f.Add([]byte{wireVersion})
	// Version byte then hostile varints (huge nbits / m / nset).
	f.Add([]byte{wireVersion, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Add([]byte{wireVersion, 0x00, 0x01, 0x00, 0x00, 0x00})
	// Chains: a based one with segments, and the hostile ones.
	f.Add(newHistory(rand.New(rand.NewSource(3)), 5, 0).chainAt(4).Encode())
	for _, b := range hostileChains(f) {
		f.Add(b)
	}
}

// FuzzDecompress feeds arbitrary bytes to the filter decoder: it must
// return a filter or an error, never panic or allocate unboundedly.
func FuzzDecompress(f *testing.F) {
	addWireSeeds(f)
	f.Fuzz(func(t *testing.T, buf []byte) {
		g, err := Decompress(buf)
		if err != nil {
			return
		}
		// Whatever decoded must re-encode and decode to an equal filter.
		h, err := Decompress(g.Compress())
		if err != nil {
			t.Fatalf("re-decode of valid filter: %v", err)
		}
		if !g.Equal(h) {
			t.Fatal("re-encoded filter differs")
		}
	})
}

// FuzzCompactMatchesFilter: on arbitrary wire bytes DecodeCompact and
// Decompress accept the same inputs, and what they accept answers alike:
// every set bit and its neighbours, both sides of every bucket boundary,
// and digests drawn from the input.
func FuzzCompactMatchesFilter(f *testing.F) {
	addWireSeeds(f)
	f.Fuzz(func(t *testing.T, buf []byte) {
		g, gerr := Decompress(buf)
		c, cerr := DecodeCompact(buf)
		if (gerr == nil) != (cerr == nil) {
			t.Fatalf("Decompress error %v, DecodeCompact error %v", gerr, cerr)
		}
		if gerr != nil {
			return
		}
		if c.NumBits() != g.NumBits() || c.NumHashes() != g.NumHashes() || c.Keys() != g.Keys() || c.SetBits() != g.SetBits() {
			t.Fatalf("geometry differs: compact (%d,%d,%d,%d), filter (%d,%d,%d,%d)",
				c.NumBits(), c.NumHashes(), c.Keys(), c.SetBits(), g.NumBits(), g.NumHashes(), g.Keys(), g.SetBits())
		}
		var bitsProbed []uint64 // each alone: a digest with H2 = 0 probes one bit
		for _, p := range g.Positions() {
			bitsProbed = append(bitsProbed, p-1, p, p+1)
		}
		for b := uint64(1) << c.shift; b < g.nbits; b += 1 << c.shift {
			bitsProbed = append(bitsProbed, b-1, b)
		}
		ds := make([]Digest, 0, len(bitsProbed)+len(buf))
		for _, p := range bitsProbed {
			ds = append(ds, Digest{H1: p})
		}
		for i := range buf {
			ds = append(ds, MakeDigest(string(buf[:i])))
		}
		for _, d := range ds {
			if c.ContainsDigest(d) != g.ContainsDigest(d) {
				t.Fatalf("digest %+v: compact=%v filter=%v", d, c.ContainsDigest(d), g.ContainsDigest(d))
			}
		}
	})
}

// FuzzDecodeDiff feeds arbitrary bytes to the diff decoder.
func FuzzDecodeDiff(f *testing.F) {
	diff, _ := EncodeDiff([]uint64{1, 5, 900}, 1024)
	f.Add(diff)
	f.Add([]byte{})
	f.Add([]byte{wireVersion, 0x05, 0x00})
	f.Add([]byte{wireVersion, 0xff, 0xff, 0xff, 0xff, 0x0f, 0x01})
	f.Fuzz(func(t *testing.T, buf []byte) {
		positions, err := DecodeDiff(buf)
		if err != nil {
			return
		}
		for i := 1; i < len(positions); i++ {
			if positions[i] <= positions[i-1] {
				t.Fatalf("diff positions not strictly increasing: %d then %d",
					positions[i-1], positions[i])
			}
		}
	})
}

// FuzzCompressRoundTrip inserts fuzz-derived keys and demands that the
// Golomb wire encoding round-trips to an identical filter.
func FuzzCompressRoundTrip(f *testing.F) {
	f.Add([]byte("the quick brown fox"), uint16(1024), uint8(2))
	f.Add([]byte{}, uint16(64), uint8(1))
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7}, uint16(8192), uint8(4))
	f.Fuzz(func(t *testing.T, keys []byte, nbits uint16, nhash uint8) {
		if nbits == 0 {
			nbits = 1
		}
		if nhash == 0 || nhash > 16 {
			nhash = 2
		}
		g := New(int(nbits), int(nhash))
		for i := 0; i+2 <= len(keys); i += 2 {
			g.Insert(fmt.Sprintf("k-%x", keys[i:i+2]))
		}
		h, err := Decompress(g.Compress())
		if err != nil {
			t.Fatalf("decompress own encoding: %v", err)
		}
		if !g.Equal(h) {
			t.Fatal("round trip changed the filter")
		}
		if g.Keys() != h.Keys() || g.SetBits() != h.SetBits() {
			t.Fatalf("round trip changed counters: keys %d/%d setbits %d/%d",
				g.Keys(), h.Keys(), g.SetBits(), h.SetBits())
		}
	})
}
