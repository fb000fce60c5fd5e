package bloom

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// The incremental summary must be indistinguishable from the pattern it
// replaces: clone the filter at every gossip, diff against the clone on
// the next. Run a randomized insert/flush schedule and compare the encoded
// diff at every flush, which compresses nothing.
func TestSummaryMatchesCloneAndDiff(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	f := New(1<<12, 4)
	s := NewSummary(f)
	shadow := f.Clone() // the "lastGossip" clone of the old pattern

	for round := 0; round < 50; round++ {
		n := rng.Intn(20)
		for i := 0; i < n; i++ {
			key := fmt.Sprintf("term-%d", rng.Intn(500))
			s.Insert(key)
		}
		diff, payload, err := s.Flush()
		if err != nil {
			t.Fatalf("round %d: flush: %v", round, err)
		}

		wantPos, err := s.Filter().Diff(shadow)
		if err != nil {
			t.Fatalf("round %d: diff: %v", round, err)
		}
		wantDiff, err := EncodeDiff(wantPos, f.NumBits())
		if err != nil {
			t.Fatalf("round %d: encode: %v", round, err)
		}
		if !bytes.Equal(diff, wantDiff) {
			t.Fatalf("round %d: incremental diff differs from clone-and-rediff", round)
		}
		if payload != nil {
			t.Fatalf("round %d: flush returned a payload", round)
		}
		shadow = s.Filter().Clone()
	}
}

// Reset models compaction: a rebuilt filter replaces the old one and the
// pending diff is discarded.
func TestSummaryReset(t *testing.T) {
	s := NewSummary(Default())
	s.Insert("will-be-discarded")
	fresh := Default()
	fresh.Insert("kept")
	s.Reset(fresh)
	if s.Pending() != 0 {
		t.Fatalf("pending survived reset: %d", s.Pending())
	}
	if s.Filter() != fresh {
		t.Fatal("filter not replaced")
	}
	diff, _, err := s.Flush()
	if err != nil {
		t.Fatal(err)
	}
	pos, _ := DecodeDiff(diff)
	if len(pos) != 0 {
		t.Fatalf("reset summary flushed stale positions: %v", pos)
	}
}

// InsertTrack must report exactly the bits that flipped, once each.
func TestInsertTrack(t *testing.T) {
	f := New(1<<10, 3)
	var track []uint64
	track = f.InsertTrack("x", track)
	first := len(track)
	if first == 0 || first > 3 {
		t.Fatalf("tracked %d bits for a fresh key with 3 hashes", first)
	}
	track = f.InsertTrack("x", track) // duplicate: no new bits
	if len(track) != first {
		t.Fatalf("duplicate insert tracked new bits: %d -> %d", first, len(track))
	}
	g := New(1<<10, 3)
	g.Insert("x")
	if !f.Equal(g) {
		t.Fatal("InsertTrack and Insert diverged on filter content")
	}
	if f.Keys() != 1 {
		t.Fatalf("nkeys = %d after one distinct key", f.Keys())
	}
}
