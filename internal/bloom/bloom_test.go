package bloom

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func keys(n int, prefix string) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s-key-%d", prefix, i)
	}
	return out
}

func TestNoFalseNegatives(t *testing.T) {
	f := Default()
	ks := keys(5000, "present")
	f.InsertAll(ks)
	for _, k := range ks {
		if !f.Contains(k) {
			t.Fatalf("false negative for %q", k)
		}
	}
}

func TestFalsePositiveRateNearPrediction(t *testing.T) {
	const n = 50000
	f := Default()
	f.InsertAll(keys(n, "in"))
	predicted := ExpectedFPRate(DefaultBits, DefaultHashes, n)
	// Paper: <5% at 50k terms in a 50KB filter with 2 hashes.
	if predicted >= 0.05 {
		t.Fatalf("predicted FP rate %.4f, paper promises < 0.05", predicted)
	}
	probe := keys(20000, "out")
	fp := 0
	for _, k := range probe {
		if f.Contains(k) {
			fp++
		}
	}
	got := float64(fp) / float64(len(probe))
	if got > 2.5*predicted+0.01 {
		t.Fatalf("measured FP rate %.4f far above predicted %.4f", got, predicted)
	}
}

func TestInsertReportsChange(t *testing.T) {
	f := Default()
	if !f.Insert("x") {
		t.Fatal("first insert should change filter")
	}
	if f.Insert("x") {
		t.Fatal("duplicate insert should not change filter")
	}
	if f.Keys() != 1 {
		t.Fatalf("Keys() = %d, want 1", f.Keys())
	}
}

func TestFillRatioAndSetBits(t *testing.T) {
	f := New(1024, 2)
	if f.FillRatio() != 0 {
		t.Fatal("fresh filter should be empty")
	}
	f.Insert("a")
	if f.SetBits() == 0 || f.SetBits() > 2 {
		t.Fatalf("SetBits = %d, want 1..2", f.SetBits())
	}
	if f.FillRatio() != float64(f.SetBits())/1024 {
		t.Fatal("FillRatio inconsistent with SetBits")
	}
}

func TestEstimateCardinality(t *testing.T) {
	f := Default()
	const n = 10000
	f.InsertAll(keys(n, "card"))
	est := f.EstimateCardinality()
	if est < n*95/100 || est > n*105/100 {
		t.Fatalf("cardinality estimate %d, want within 5%% of %d", est, n)
	}
}

func TestMerge(t *testing.T) {
	a, b := Default(), Default()
	a.InsertAll(keys(100, "a"))
	b.InsertAll(keys(100, "b"))
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	for _, k := range append(keys(100, "a"), keys(100, "b")...) {
		if !a.Contains(k) {
			t.Fatalf("merged filter missing %q", k)
		}
	}
}

func TestMergeIncompatible(t *testing.T) {
	a := New(1024, 2)
	b := New(2048, 2)
	if err := a.Merge(b); err != ErrIncompatible {
		t.Fatalf("want ErrIncompatible, got %v", err)
	}
	c := New(1024, 3)
	if err := a.Merge(c); err != ErrIncompatible {
		t.Fatalf("want ErrIncompatible for hash mismatch, got %v", err)
	}
}

func TestCloneIndependence(t *testing.T) {
	a := Default()
	a.Insert("one")
	c := a.Clone()
	if !c.Equal(a) {
		t.Fatal("clone should equal original")
	}
	c.Insert("two")
	if a.Contains("two") && a.Equal(c) {
		t.Fatal("mutating clone affected original")
	}
}

func TestPositionsSortedAndComplete(t *testing.T) {
	f := New(4096, 3)
	f.InsertAll(keys(50, "p"))
	pos := f.Positions()
	if len(pos) != f.SetBits() {
		t.Fatalf("Positions len %d != SetBits %d", len(pos), f.SetBits())
	}
	for i := 1; i < len(pos); i++ {
		if pos[i] <= pos[i-1] {
			t.Fatal("positions not strictly increasing")
		}
	}
	for _, p := range pos {
		if !f.getBit(p) {
			t.Fatalf("position %d reported but bit clear", p)
		}
	}
}

func TestDiffAndApplyDiff(t *testing.T) {
	old := Default()
	old.InsertAll(keys(500, "base"))
	cur := old.Clone()
	cur.InsertAll(keys(300, "new"))
	diff, err := cur.Diff(old)
	if err != nil {
		t.Fatal(err)
	}
	if len(diff) == 0 {
		t.Fatal("expected non-empty diff")
	}
	// Applying the diff to a copy of old must reproduce cur's bitmap.
	recon := old.Clone()
	if _, err := recon.ApplyDiff(diff); err != nil {
		t.Fatal(err)
	}
	if !recon.Equal(cur) {
		t.Fatal("old + diff != current")
	}
}

func TestDiffNilMeansFull(t *testing.T) {
	f := Default()
	f.InsertAll(keys(10, "d"))
	diff, err := f.Diff(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(diff) != f.SetBits() {
		t.Fatalf("nil diff length %d != SetBits %d", len(diff), f.SetBits())
	}
}

func TestApplyDiffOutOfRange(t *testing.T) {
	f := New(64, 2)
	if _, err := f.ApplyDiff([]uint64{64}); err != ErrCorrupt {
		t.Fatalf("want ErrCorrupt, got %v", err)
	}
}

func TestCompressRoundTrip(t *testing.T) {
	f := Default()
	f.InsertAll(keys(2000, "c"))
	buf := f.Compress()
	g, err := Decompress(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Equal(f) {
		t.Fatal("decompressed filter differs")
	}
	if g.Keys() != f.Keys() {
		t.Fatalf("keys not preserved: %d vs %d", g.Keys(), f.Keys())
	}
}

func TestCompressSizeMatchesPaper(t *testing.T) {
	// Table 2: a 1000-key BF compresses to ~3000 bytes; 20000 keys to
	// ~16000 bytes. Our Golomb scheme should land in the same regime
	// (within 2x), since it is the same idea over the same geometry.
	f := Default()
	f.InsertAll(keys(1000, "k"))
	if n := len(f.Compress()); n > 6000 {
		t.Fatalf("1000-key filter compressed to %d bytes; want < 6000", n)
	}
	g := Default()
	g.InsertAll(keys(20000, "k"))
	if n := len(g.Compress()); n > 32000 {
		t.Fatalf("20000-key filter compressed to %d bytes; want < 32000", n)
	}
}

func TestDecompressRejectsCorrupt(t *testing.T) {
	f := Default()
	f.InsertAll(keys(100, "x"))
	buf := f.Compress()
	cases := [][]byte{nil, {}, {99}, buf[:1]}
	for i, c := range cases {
		if _, err := Decompress(c); err == nil {
			t.Fatalf("case %d: expected error", i)
		}
	}
	// Truncated payload: must not panic; error or garbage are both fine.
	_, _ = Decompress(buf[:len(buf)/2])
}

func TestDiffEncodeDecode(t *testing.T) {
	f := Default()
	f.InsertAll(keys(700, "diff"))
	pos := f.Positions()
	buf, err := EncodeDiff(pos, f.NumBits())
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeDiff(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(pos) {
		t.Fatalf("decoded %d positions, want %d", len(got), len(pos))
	}
	for i := range got {
		if got[i] != pos[i] {
			t.Fatalf("position %d: got %d want %d", i, got[i], pos[i])
		}
	}
}

// Property: a filter never forgets — any inserted key set always tests
// positive, through clone, merge, and compress round trips.
func TestQuickNeverForgets(t *testing.T) {
	f := func(ks []string) bool {
		fl := New(1<<14, 3)
		for _, k := range ks {
			fl.Insert(k)
		}
		rt, err := Decompress(fl.Compress())
		if err != nil {
			return false
		}
		for _, k := range ks {
			if !fl.Contains(k) || !rt.Contains(k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: merge is commutative on bit contents.
func TestQuickMergeCommutative(t *testing.T) {
	f := func(a, b []string) bool {
		fa, fb := New(1<<12, 2), New(1<<12, 2)
		for _, k := range a {
			fa.Insert(k)
		}
		for _, k := range b {
			fb.Insert(k)
		}
		ab := fa.Clone()
		if ab.Merge(fb) != nil {
			return false
		}
		ba := fb.Clone()
		if ba.Merge(fa) != nil {
			return false
		}
		return ab.Equal(ba)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestHashPairOddStride(t *testing.T) {
	for _, k := range []string{"", "a", "hello world", "\x00\x01"} {
		_, h2 := hashPair(k)
		if h2%2 == 0 {
			t.Fatalf("stride for %q is even", k)
		}
	}
}

func BenchmarkInsert(b *testing.B) {
	f := Default()
	ks := keys(b.N, "bench")
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f.Insert(ks[i])
	}
}

func BenchmarkContains1000Filters(b *testing.B) {
	// The paper's micro-benchmark: a 5-term query across 1000 filters.
	rng := rand.New(rand.NewSource(3))
	filters := make([]*Filter, 1000)
	for i := range filters {
		filters[i] = Default()
		for j := 0; j < 1000; j++ {
			filters[i].Insert(fmt.Sprintf("f%d-t%d", i, rng.Intn(5000)))
		}
	}
	query := []string{"f1-t1", "f2-t2", "f3-t3", "f500-t4", "f999-t5"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, f := range filters {
			for _, k := range query {
				if !f.Contains(k) {
					break
				}
			}
		}
	}
}

func BenchmarkCompress20000Keys(b *testing.B) {
	f := Default()
	f.InsertAll(keys(20000, "z"))
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f.Compress()
	}
}

func BenchmarkDecompress20000Keys(b *testing.B) {
	f := Default()
	f.InsertAll(keys(20000, "z"))
	buf := f.Compress()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Decompress(buf); err != nil {
			b.Fatal(err)
		}
	}
}
