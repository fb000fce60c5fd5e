package bloom

import (
	"errors"
	"math/rand"
	"testing"
)

// history is a random version chain of one peer's filter: per version, its
// Seq and the filter at it. Seqs leave gaps; a segment re-sets some bits an
// earlier one set; one version may be a reset (a filter built afresh, not
// a superset of the last).
type history struct {
	seqs    []uint32
	filters []*Filter
	diffs   [][]uint64 // diffs[v]: positions a segment to seqs[v] carries
	resetAt int        // the reset version (0 = none past the first)
}

const chainTestBits = 2048

func newHistory(rng *rand.Rand, nver, resetAt int) history {
	h := history{resetAt: resetAt}
	f := New(chainTestBits, 2)
	seq := uint32(rng.Intn(3))
	for v := 0; v < nver; v++ {
		if v > 0 {
			seq += 1 + uint32(rng.Intn(3))
		}
		var diff []uint64
		if v == resetAt && v > 0 {
			f = New(chainTestBits, 2)
		} else if v > 0 {
			f = f.Clone()
		}
		for i := rng.Intn(40); i > 0; i-- {
			p := uint64(rng.Intn(chainTestBits))
			f.setBit(p)
			diff = append(diff, p)
		}
		// Overlap: a segment may repeat positions the filter already has.
		if old := f.Positions(); len(old) > 0 && v > 0 {
			diff = append(diff, old[rng.Intn(len(old))])
		}
		h.seqs = append(h.seqs, seq)
		h.filters = append(h.filters, f)
		h.diffs = append(h.diffs, dedupSorted(diff))
	}
	return h
}

func dedupSorted(ps []uint64) []uint64 {
	f := New(chainTestBits, 2)
	for _, p := range ps {
		f.setBit(p)
	}
	return f.Positions()
}

// chainAt is the chain the origin holds at version v: a base at the last
// reset at or before v (or at version 0), then one segment per version.
func (h history) chainAt(v int) Chain {
	b := 0
	if h.resetAt > 0 && v >= h.resetAt {
		b = h.resetAt
	}
	c := Chain{Epoch: 1, From: h.seqs[b], Base: h.filters[b].Compress()}
	for u := b + 1; u <= v; u++ {
		diff, err := EncodeDiff(h.diffs[u], chainTestBits)
		if err != nil {
			panic(err)
		}
		c.Segs = append(c.Segs, Segment{To: h.seqs[u], Diff: diff})
	}
	return c
}

// FuzzChainApplyEqualsFull: for any version chain with gaps, overlapping
// segments and a reset, a holder at version R offered the segments a sender
// believes it lacks either admits them — exactly when R is of the chain's
// epoch and at or past its From — and then holds Decompress of the full
// filter at V, or refuses them with ErrChainGap. Arbitrary bytes as a chain
// decode or fail, never panic.
func FuzzChainApplyEqualsFull(f *testing.F) {
	f.Add(int64(1), uint8(6), uint8(3), uint8(1), uint8(2), []byte{})
	f.Add(int64(2), uint8(9), uint8(0), uint8(0), uint8(8), []byte{chainVersion, 1, 0, 0, 0xff, 0x7f})
	f.Add(int64(3), uint8(12), uint8(5), uint8(7), uint8(2), []byte{chainVersion})
	f.Fuzz(func(t *testing.T, seed int64, nver, resetAt, held, believed uint8, raw []byte) {
		n := 2 + int(nver)%14
		rng := rand.New(rand.NewSource(seed))
		h := newHistory(rng, n, int(resetAt)%n)
		v := n - 1
		r := int(held) % n
		full := h.chainAt(v)
		want := h.filters[v]
		if got, err := Decompress(full.Encode()); err != nil || !got.Equal(want) {
			t.Fatalf("full chain at %d decodes to a different filter (%v)", v, err)
		}
		// The holder's chain at R, as stored after earlier applies (or
		// folded to one base).
		hc := h.chainAt(r)
		if seed%2 == 0 {
			var err error
			if hc, err = hc.Fold(int(seed/2%64) * 4); err != nil {
				t.Fatal(err)
			}
		}
		// The sender's belief about R may be wrong either way.
		x := h.seqs[int(believed)%n]
		if x < full.From {
			x = full.From
		}
		in, err := full.Since(x)
		if err != nil {
			t.Fatal(err)
		}
		parsed, err := ParseChain(in.Encode())
		if err != nil {
			t.Fatalf("Since's chain does not parse: %v", err)
		}
		out, err := hc.Apply(parsed)
		admit := hc.End() >= in.From
		switch {
		case admit && err != nil:
			t.Fatalf("holder at %d (end %d) refused a chain from %d: %v", h.seqs[r], hc.End(), in.From, err)
		case !admit && !errors.Is(err, ErrChainGap):
			t.Fatalf("holder at %d (end %d) admitted a chain from %d", h.seqs[r], hc.End(), in.From)
		case admit:
			got, err := Decompress(out.Encode())
			if err != nil || !got.Equal(want) {
				t.Fatalf("held %d + chain from %d != full at %d (%v)", h.seqs[r], in.From, h.seqs[v], err)
			}
			// A holder past the reset never needs the full filter; one
			// before it always does.
			if pre := h.resetAt > 0 && r < h.resetAt; pre {
				t.Fatalf("holder before the reset admitted a post-reset chain")
			}
		}
		// A based chain always applies: appended where the holder is at
		// or past its base, else replacing.
		if out, err := hc.Apply(full); err != nil || out.End() != full.End() {
			t.Fatalf("based chain did not apply: %v", err)
		} else if got, err := Decompress(out.Encode()); err != nil || !got.Equal(want) {
			t.Fatalf("held %d + full chain != full at %d (%v)", h.seqs[r], h.seqs[v], err)
		}
		// A fold keeping any tail stands for the same filter.
		if folded, err := full.Fold(int(believed) * 8); err != nil || folded.End() != full.End() {
			t.Fatalf("fold: %v", err)
		} else if got, err := Decompress(folded.Encode()); err != nil || !got.Equal(want) {
			t.Fatalf("folded chain is not the filter at %d (%v)", h.seqs[v], err)
		}

		// Hostile bytes: decoders agree and never panic.
		g, gerr := Decompress(raw)
		c, cerr := DecodeCompact(raw)
		if (gerr == nil) != (cerr == nil) {
			t.Fatalf("Decompress error %v, DecodeCompact error %v", gerr, cerr)
		}
		if gerr == nil && g.SetBits() != c.SetBits() {
			t.Fatalf("set bits differ: %d vs %d", g.SetBits(), c.SetBits())
		}
		if pc, err := ParseChain(raw); err == nil && pc.Base != nil {
			if _, nerr := Decompress(pc.Encode()); (nerr == nil) != (gerr == nil) {
				t.Fatalf("re-encoded chain decodes with %v, original with %v", nerr, gerr)
			}
		}
	})
}

// hostileChains are chain encodings a decoder must refuse: a segment count
// past the bytes left, Seqs that do not ascend, a position at or past nbits,
// a baseless chain, and trailing garbage.
func hostileChains(t testing.TB) map[string][]byte {
	f := New(chainTestBits, 2)
	f.Insert("alpha")
	base := f.Compress()
	past, err := EncodeDiff([]uint64{chainTestBits + 5}, chainTestBits)
	if err != nil {
		t.Fatal(err)
	}
	ok, _ := EncodeDiff([]uint64{3}, chainTestBits)
	enc := func(c Chain) []byte { return c.Encode() }
	countPast := enc(Chain{Epoch: 1, From: 2, Base: base})
	countPast[len(countPast)-1] = 0x7f // 127 segments in 0 bytes
	return map[string][]byte{
		"segment count past the bytes": countPast,
		"huge segment count":           append(enc(Chain{Epoch: 1, From: 2, Base: base})[:len(countPast)-1], 0xff, 0xff, 0xff, 0xff, 0x0f),
		"seqs do not ascend":           enc(Chain{Epoch: 1, From: 5, Base: base, Segs: []Segment{{To: 5, Diff: ok}}}),
		"position past nbits":          enc(Chain{Epoch: 1, From: 2, Base: base, Segs: []Segment{{To: 3, Diff: past}}}),
		"baseless":                     enc(Chain{Epoch: 1, From: 2, Segs: []Segment{{To: 3, Diff: ok}}}),
		"trailing bytes":               append(enc(Chain{Epoch: 1, From: 2, Base: base}), 0),
	}
}

// TestHostileChainsRejected: every decoder and Apply refuse each hostile
// chain, and the count checks refuse before anything is allocated.
func TestHostileChainsRejected(t *testing.T) {
	for name, b := range hostileChains(t) {
		if _, err := Decompress(b); err == nil {
			t.Errorf("%s: Decompress accepted it", name)
		}
		if _, err := DecodeCompact(b); err == nil {
			t.Errorf("%s: DecodeCompact accepted it", name)
		}
		if _, err := DecodePositions(nil, b); err == nil {
			t.Errorf("%s: DecodePositions accepted it", name)
		}
		if _, _, _, ok := Header(b); ok && name != "position past nbits" {
			t.Errorf("%s: Header accepted it", name)
		}
		// ParseChain reads only a segment's header, so Apply decodes what
		// it takes: appended to a held chain, or replacing one of another
		// epoch.
		if pc, err := ParseChain(b); err == nil {
			for _, held := range []Chain{{Epoch: pc.Epoch, From: pc.From, Base: pc.Base}, {Epoch: pc.Epoch + 1, Base: pc.Base}} {
				if _, err := held.Apply(pc); err == nil {
					t.Errorf("%s: Apply at epoch %d accepted it", name, held.Epoch)
				}
			}
		}
	}
	for _, name := range []string{"segment count past the bytes", "huge segment count"} {
		b := hostileChains(t)[name]
		if allocs := testing.AllocsPerRun(10, func() { _, _ = ParseChain(b) }); allocs != 0 {
			t.Errorf("%s: ParseChain allocated %.0f times before refusing", name, allocs)
		}
	}
}

// TestChainDecodersAgree: a based chain reads as the union of its parts in
// every decoder, and Header's count bounds the real one.
func TestChainDecodersAgree(t *testing.T) {
	h := newHistory(rand.New(rand.NewSource(7)), 8, 0)
	c := h.chainAt(7)
	b := c.Encode()
	want := h.filters[7]
	g, err := Decompress(b)
	if err != nil || !g.Equal(want) {
		t.Fatalf("Decompress: %v", err)
	}
	cp, err := DecodeCompact(b)
	if err != nil || cp.SetBits() != want.SetBits() {
		t.Fatalf("DecodeCompact: %v", err)
	}
	pos, err := DecodePositions(make([]uint64, 0, 4), b)
	if err != nil || len(pos) != want.SetBits() {
		t.Fatalf("DecodePositions: %d positions, %v", len(pos), err)
	}
	for i, p := range want.Positions() {
		if pos[i] != p {
			t.Fatalf("position %d: %d, want %d", i, pos[i], p)
		}
	}
	nbits, _, nset, ok := Header(b)
	if !ok || nbits != chainTestBits || nset < uint64(want.SetBits()) {
		t.Fatalf("Header: %d bits, %d set (%d real), %v", nbits, nset, want.SetBits(), ok)
	}
	folded, err := c.Fold(0)
	if err != nil || folded.End() != c.End() || len(folded.Segs) != 0 {
		t.Fatalf("Fold: %+v, %v", folded, err)
	}
	if g, _ := Decompress(folded.Encode()); !g.Equal(want) {
		t.Fatal("folded chain is not the filter")
	}
	if c.Size() != len(b) {
		t.Fatalf("Size %d, encoding %d bytes", c.Size(), len(b))
	}
}
