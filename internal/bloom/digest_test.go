package bloom

import (
	"hash/fnv"
	"math/rand"
	"testing"
)

// referencePair is the seed's original two-pass hashPair: FNV-1a over the
// key, and a second full FNV-1a over the key plus the suffix byte 0x9e.
// MakeDigest must reproduce it bit for bit — gossiped filters built by
// older nodes stay probe-compatible with the hash-once fast path.
func referencePair(key string) (uint64, uint64) {
	h := fnv.New64a()
	_, _ = h.Write([]byte(key))
	h2 := fnv.New64a()
	_, _ = h2.Write([]byte(key))
	_, _ = h2.Write([]byte{0x9e})
	return h.Sum64(), h2.Sum64() | 1
}

func TestMakeDigestMatchesReference(t *testing.T) {
	cases := []string{"", "a", "term-0", "gossip", "планета", "\x00\xff", "planetp-bloom-filter-key"}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 200; i++ {
		b := make([]byte, rng.Intn(40))
		rng.Read(b)
		cases = append(cases, string(b))
	}
	for _, key := range cases {
		w1, w2 := referencePair(key)
		d := MakeDigest(key)
		if d.H1 != w1 || d.H2 != w2 {
			t.Fatalf("MakeDigest(%q) = {%#x %#x}, reference {%#x %#x}", key, d.H1, d.H2, w1, w2)
		}
	}
}

// TestDigestPinnedVectors pins the exact hash values of known keys so any
// future change to the construction fails loudly (the values are baked
// into every gossiped filter in the wild).
func TestDigestPinnedVectors(t *testing.T) {
	cases := []struct {
		key    string
		h1, h2 uint64
	}{
		{"", 0xcbf29ce484222325, 0xaf64534c8602b6c1},
		{"a", 0xaf63dc4c8601ec8c, 0x89b6807b5442297},
		{"gossip", 0x126a801979f5b038, 0x40a8514a3c7b2a13},
		{"planetp", 0x1e4ecf1be117d139, 0x97bb935f7b793ec5},
		{"term-0", 0xefcd69d5e38cadfa, 0x6b83a71a80aa0ed},
	}
	for _, c := range cases {
		d := MakeDigest(c.key)
		if d.H1 != c.h1 || d.H2 != c.h2 {
			t.Fatalf("MakeDigest(%q) = {%#x %#x}, pinned {%#x %#x}", c.key, d.H1, d.H2, c.h1, c.h2)
		}
	}
}

// TestDigestBitPositions pins the bit positions of the digest path to the
// reference construction over the default geometry.
func TestDigestBitPositions(t *testing.T) {
	f := Default()
	for _, key := range keys(100, "pin") {
		w1, w2 := referencePair(key)
		want := make([]uint64, 0, f.NumHashes())
		for i := uint64(0); i < uint64(f.NumHashes()); i++ {
			want = append(want, (w1+i*w2)%uint64(f.NumBits()))
		}
		got := f.IndexesDigest(MakeDigest(key), nil)
		if len(got) != len(want) {
			t.Fatalf("IndexesDigest(%q) len = %d, want %d", key, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("IndexesDigest(%q)[%d] = %d, want %d", key, i, got[i], want[i])
			}
		}
	}
}

func TestContainsDigestEquivalence(t *testing.T) {
	f := New(1<<12, 4)
	present := keys(500, "in")
	f.InsertAll(present)
	probe := append(append([]string{}, present...), keys(500, "out")...)
	for _, key := range probe {
		if f.Contains(key) != f.ContainsDigest(MakeDigest(key)) {
			t.Fatalf("Contains(%q) != ContainsDigest", key)
		}
	}
}

func TestMakeDigestsOrder(t *testing.T) {
	terms := []string{"alpha", "beta", "gamma"}
	ds := MakeDigests(terms)
	if len(ds) != len(terms) {
		t.Fatalf("len = %d", len(ds))
	}
	for i, term := range terms {
		if ds[i] != MakeDigest(term) {
			t.Fatalf("digest %d mismatch", i)
		}
	}
}

// The fast path must not allocate: one digest, any number of probes.
func TestDigestProbeAllocs(t *testing.T) {
	f := Default()
	f.InsertAll(keys(1000, "alloc"))
	d := MakeDigest("alloc-key-1")
	allocs := testing.AllocsPerRun(100, func() {
		if !f.ContainsDigest(d) {
			t.Fatal("false negative")
		}
	})
	if allocs != 0 {
		t.Fatalf("ContainsDigest allocates %.1f/op, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(100, func() {
		MakeDigest("alloc-key-999")
	})
	if allocs != 0 {
		t.Fatalf("MakeDigest allocates %.1f/op, want 0", allocs)
	}
}

func BenchmarkMakeDigest(b *testing.B) {
	key := "benchmark-term-key"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MakeDigest(key)
	}
}

func BenchmarkContainsDigest(b *testing.B) {
	f := Default()
	f.InsertAll(keys(1000, "bench"))
	d := MakeDigest("bench-key-500")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f.ContainsDigest(d)
	}
}

// BenchmarkCompactProbe is one digest probe of a paper-geometry Compact
// holding 1000 keys, cycling through 1024 keys of which a quarter are in.
func BenchmarkCompactProbe(b *testing.B) {
	f := Default()
	f.InsertAll(keys(1000, "bench"))
	c := CompactOf(f)
	ds := append(MakeDigests(keys(256, "bench")), MakeDigests(keys(768, "absent"))...)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.ContainsDigest(ds[i&1023])
	}
}
