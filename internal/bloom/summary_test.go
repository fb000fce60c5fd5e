package bloom

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// materialise is the two-step payload build as the summary's owner runs
// it — Snapshot under its lock, Compress outside, SetPayload back under it
// — reporting whether it had to compress.
func materialise(s *Summary) (payload []byte, built bool) {
	payload, snap, gen := s.Snapshot()
	if payload != nil {
		return payload, false
	}
	payload = snap.Compress()
	s.SetPayload(payload, gen)
	return payload, true
}

// The incremental summary must be indistinguishable from the pattern it
// replaces: clone the filter at every gossip, diff against the clone on
// the next. Run a randomized insert/flush schedule and compare the encoded
// diff at every flush — which compresses nothing: it hands back a payload
// only while the last one materialised is still current — and the
// materialised payload against a fresh Compress.
func TestSummaryMatchesCloneAndDiff(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	f := New(1<<12, 4)
	s := NewSummary(f)
	shadow := f.Clone() // the "lastGossip" clone of the old pattern

	for round := 0; round < 50; round++ {
		n := rng.Intn(20)
		before := s.Filter().SetBits()
		for i := 0; i < n; i++ {
			key := fmt.Sprintf("term-%d", rng.Intn(500))
			s.Insert(key)
		}
		changed := s.Filter().SetBits() != before
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
		want := s.Filter().Compress()
		if (changed || round == 0) && payload != nil {
			t.Fatalf("round %d: flush returned a payload for a filter nobody has compressed", round)
		}
		if !changed && round > 0 && !bytes.Equal(payload, want) {
			t.Fatalf("round %d: flush of an unchanged filter dropped the cached payload", round)
		}
		if got, built := materialise(s); !bytes.Equal(got, want) || built != (changed || round == 0) {
			t.Fatalf("round %d: materialised payload wrong (built=%v, filter changed=%v)", round, built, changed)
		}
		shadow = s.Filter().Clone()
	}
}

// The payload is compressed when asked for, not when flushed, and cached
// until a bit flips: flushes and duplicate inserts leave the cache alone, a
// new term invalidates it, and a payload compressed from a snapshot the
// filter has since moved past is not cached.
func TestSummaryPayloadCache(t *testing.T) {
	s := NewSummary(Default())
	s.Insert("alpha")
	s.Insert("beta")
	if _, p, err := s.Flush(); err != nil || p != nil {
		t.Fatalf("flush compressed the filter: payload %d bytes, err %v", len(p), err)
	}
	p1, built := materialise(s)
	if !built {
		t.Fatal("first materialise found a cached payload")
	}
	diff, p2, err := s.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if &p1[0] != &p2[0] {
		t.Fatal("idle flush did not hand back the cached payload")
	}
	pos, err := DecodeDiff(diff)
	if err != nil {
		t.Fatal(err)
	}
	if len(pos) != 0 {
		t.Fatalf("idle flush produced a non-empty diff: %v", pos)
	}

	// A duplicate insert flips no bits and must not invalidate the cache.
	if s.Insert("alpha") {
		t.Fatal("duplicate insert reported a filter change")
	}
	if p3, built := materialise(s); built || &p3[0] != &p1[0] {
		t.Fatal("no-op insert invalidated the payload cache")
	}

	// A new term does invalidate it.
	if !s.Insert("gamma") {
		t.Fatal("fresh insert reported no change")
	}
	if _, p, _ := s.Flush(); p != nil {
		t.Fatal("stale payload served after the filter changed")
	}

	// A build that loses the race with an insert is not cached: the next
	// one compresses again, and what it returns covers the late insert.
	_, snap, gen := s.Snapshot()
	s.Insert("delta")
	s.SetPayload(snap.Compress(), gen)
	p4, built := materialise(s)
	if !built {
		t.Fatal("a payload compressed before the last insert was cached")
	}
	if f, err := Decompress(p4); err != nil || !f.Equal(s.Filter()) {
		t.Fatalf("materialised payload does not decompress to the filter (err %v)", err)
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
	if payload, _ := materialise(s); !bytes.Equal(payload, fresh.Compress()) {
		t.Fatal("payload does not reflect the replacement filter")
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
