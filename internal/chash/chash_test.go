package chash

import (
	"fmt"
	"strconv"
	"testing"
	"testing/quick"
)

func TestHashStableAndInRange(t *testing.T) {
	if Hash("x") != Hash("x") {
		t.Fatal("hash not deterministic")
	}
	if Hash("x") == Hash("y") && Hash("a") == Hash("b") {
		t.Fatal("suspiciously colliding hash")
	}
	for _, k := range []string{"", "a", "planetp", "key with spaces"} {
		if Hash(k) >= MaxID {
			t.Fatalf("Hash(%q) out of range", k)
		}
		if IDForMember(k) >= MaxID {
			t.Fatalf("IDForMember(%q) out of range", k)
		}
	}
}

// Regression: ring keys for numeric peer ids must be derived from the
// DECIMAL rendering of the id, never string(rune(id)). The rune
// conversion collapses every id in the surrogate range and beyond
// (≥ 0xD800) to U+FFFD — all such peers would land on one ring point —
// and aliases any two ids mapping to the same code point.
func TestIDForPeerNoSurrogateCollisions(t *testing.T) {
	ids := []int32{0xD7FF, 0xD800, 0xD801, 0xDBFF, 0xDC00, 0xDFFF, 0xE000, 0xFFFD, 0x10FFFF, 0x110000}
	seen := make(map[uint32]int32, len(ids))
	for _, id := range ids {
		rid := IDForPeer(id)
		if rid >= MaxID {
			t.Fatalf("IDForPeer(%#x) = %d out of range", id, rid)
		}
		if prev, dup := seen[rid]; dup {
			t.Fatalf("IDForPeer collision: ids %#x and %#x both map to ring id %d", prev, id, rid)
		}
		seen[rid] = id
	}
	// The derivation is pinned to the decimal rendering: every layer
	// (core brokerage, replica placement, the simulators) computes the
	// same ring from the same peer ids.
	for _, id := range ids {
		if IDForPeer(id) != IDForMember(strconv.Itoa(int(id))+"#planetp") {
			t.Fatalf("IDForPeer(%d) diverges from the canonical decimal derivation", id)
		}
	}
}

func TestSuccessorLeastSuccessorSemantics(t *testing.T) {
	r := NewRing[string]()
	r.Join(100, "a")
	r.Join(200, "b")
	r.Join(300, "c")
	if r.Join(200, "dup") {
		t.Fatal("duplicate id accepted")
	}
	cases := map[uint32]string{
		0: "a", 100: "a", 101: "b", 200: "b", 250: "c", 300: "c",
		301:       "a", // wraps
		MaxID - 1: "a",
	}
	for h, want := range cases {
		_, v, ok := r.Successor(h)
		if !ok || v != want {
			t.Errorf("Successor(%d) = %q,%v want %q", h, v, ok, want)
		}
	}
}

func TestSuccessorEmpty(t *testing.T) {
	r := NewRing[int]()
	if _, _, ok := r.Successor(5); ok {
		t.Fatal("empty ring returned a successor")
	}
	if r.Successors(1, 3) != nil {
		t.Fatal("empty ring successors")
	}
}

func TestSuccessorsReplicas(t *testing.T) {
	r := NewRing[string]()
	r.Join(100, "a")
	r.Join(200, "b")
	r.Join(300, "c")
	got := r.Successors(150, 2)
	if len(got) != 2 || got[0] != "b" || got[1] != "c" {
		t.Fatalf("Successors = %v", got)
	}
	// n larger than membership is clamped and wraps.
	got = r.Successors(250, 5)
	if len(got) != 3 || got[0] != "c" || got[1] != "a" || got[2] != "b" {
		t.Fatalf("clamped Successors = %v", got)
	}
}

// TestIDsSorted: the ring keeps its ids sorted whatever the join order, the
// invariant Successor's binary search relies on.
func TestIDsSorted(t *testing.T) {
	r := NewRing[int]()
	for _, id := range []uint32{500, 10, 300, 200} {
		r.Join(id, 0)
	}
	for i := 1; i < len(r.ids); i++ {
		if r.ids[i] < r.ids[i-1] {
			t.Fatalf("ids not sorted: %v", r.ids)
		}
	}
}

func TestDistributionRoughlyBalanced(t *testing.T) {
	r := NewRing[int]()
	const members = 64
	for i := 0; i < members; i++ {
		r.Join(IDForMember(fmt.Sprintf("m%d", i)), i)
	}
	counts := make(map[int]int)
	const keys = 20000
	for i := 0; i < keys; i++ {
		_, m, _ := r.Successor(Hash(fmt.Sprintf("key-%d", i)))
		counts[m]++
	}
	// No member should own an egregious share (consistent hashing with
	// one virtual node per member is uneven, but bounded in practice).
	for m, c := range counts {
		if c > keys/4 {
			t.Fatalf("member %d owns %d/%d keys", m, c, keys)
		}
	}
}

// Property: every hash value has exactly one owner, and a ring built
// without some other member gives it the same owner (the consistent-hashing
// property: a departure moves only the departed member's keys).
func TestQuickConsistency(t *testing.T) {
	build := func(ids []uint32, skip uint32) *Ring[uint32] {
		r := NewRing[uint32]()
		for _, id := range ids {
			if id != skip {
				r.Join(id, id)
			}
		}
		return r
	}
	f := func(idsRaw []uint16, probe uint32) bool {
		if len(idsRaw) == 0 {
			return true
		}
		ids := make([]uint32, len(idsRaw))
		for i, raw := range idsRaw {
			ids[i] = uint32(raw)
		}
		h := probe % MaxID
		owner1, _, ok := build(ids, MaxID).Successor(h) // MaxID is no member: skip none
		if !ok {
			return false
		}
		for _, id := range ids {
			if id != owner1 {
				owner2, _, ok := build(ids, id).Successor(h)
				if !ok || owner2 != owner1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
