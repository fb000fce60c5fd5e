package search

import (
	"fmt"
	"testing"

	"planetp/internal/directory"
)

func buildMergedFixture() *fakeCommunity {
	f := newFake()
	// 12 peers; only peer 7 holds "needle".
	for p := directory.PeerID(0); p < 12; p++ {
		terms := map[string]int{"common": 1}
		if p == 7 {
			terms["needle"] = 3
		}
		f.addDoc(p, fmt.Sprintf("d%d", p), terms)
	}
	return f
}

func TestMergedViewNoFalseNegatives(t *testing.T) {
	f := buildMergedFixture()
	for _, gs := range []int{1, 2, 3, 5, 12, 100} {
		mv := NewMergedView(f, gs)
		if !mv.Contains(7, "needle") {
			t.Fatalf("groupSize %d: lost the true holder", gs)
		}
		// Every peer that the base view hits must still hit merged.
		for _, id := range f.Peers() {
			if f.Contains(id, "common") && !mv.Contains(id, "common") {
				t.Fatalf("groupSize %d: false negative for peer %d", gs, id)
			}
		}
	}
}

func TestMergedViewGroupSemantics(t *testing.T) {
	f := buildMergedFixture()
	mv := NewMergedView(f, 4) // groups {0..3} {4..7} {8..11}
	// needle is at 7: the whole second group now "may have" it.
	for _, id := range []directory.PeerID{4, 5, 6, 7} {
		if !mv.Contains(id, "needle") {
			t.Fatalf("group member %d should hit", id)
		}
	}
	for _, id := range []directory.PeerID{0, 3, 8, 11} {
		if mv.Contains(id, "needle") {
			t.Fatalf("other group member %d should miss", id)
		}
	}
	if mv.Groups() != 3 {
		t.Fatalf("Groups = %d, want 3", mv.Groups())
	}
}

func TestMergedViewDegenerate(t *testing.T) {
	f := buildMergedFixture()
	mv := NewMergedView(f, 0) // clamps to 1: identical to base
	for _, id := range f.Peers() {
		for _, term := range []string{"common", "needle", "absent"} {
			if mv.Contains(id, term) != f.Contains(id, term) {
				t.Fatalf("groupSize 1 must equal base (peer %d term %q)", id, term)
			}
		}
	}
	if mv.Groups() != len(f.Peers()) {
		t.Fatalf("Groups = %d", mv.Groups())
	}
}

// The paper's trade-off, measured: with merged filters the search still
// finds everything (recall preserved) but contacts more peers.
func TestMergedViewTradeoff(t *testing.T) {
	f := buildMergedFixture()
	exact, stExact := Ranked(f, f, []string{"needle"}, Options{K: 3})
	mv := NewMergedView(f, 4)
	merged, stMerged := Ranked(mv, f, []string{"needle"}, Options{K: 3})

	if len(exact) != 1 || len(merged) != 1 || merged[0].Key != exact[0].Key {
		t.Fatalf("results differ: exact=%v merged=%v", exact, merged)
	}
	if stMerged.PeersContacted < stExact.PeersContacted {
		t.Fatalf("merged should contact at least as many peers: %d < %d",
			stMerged.PeersContacted, stExact.PeersContacted)
	}
	if stMerged.PeersContacted <= stExact.PeersContacted {
		// With groups of 4 the whole group around peer 7 ranks.
		t.Fatalf("expected extra contacts from group hit: exact=%d merged=%d",
			stExact.PeersContacted, stMerged.PeersContacted)
	}
}

func TestMergedViewExhaustive(t *testing.T) {
	f := buildMergedFixture()
	mv := NewMergedView(f, 6)
	docs, st := Exhaustive(mv, f, []string{"needle"}, Options{})
	if len(docs) != 1 || docs[0].Peer != 7 {
		t.Fatalf("docs = %v", docs)
	}
	// The whole 6-peer group was candidate.
	if st.PeersContacted != 6 {
		t.Fatalf("contacted %d, want 6 (the group)", st.PeersContacted)
	}
}

// TestMergedViewDeclinesDigests: a MergedView is probed through Contains,
// never swept with digests, even over a base that sweeps — and answers
// through its group semantics.
func TestMergedViewDeclinesDigests(t *testing.T) {
	base := sweepFilters{digestFilters{seededFilters(7, 12, 0)}}
	mv := NewMergedView(base, 4)
	terms := sweepQueries()["three terms"]
	q := newQuery(mv, terms)
	peers, hits := q.sweep()
	if base.sweeps != 0 {
		t.Fatal("probing a MergedView swept its base")
	}
	for p, id := range peers {
		for i, term := range terms {
			if hits[p*len(terms)+i] != mv.Contains(id, term) {
				t.Fatalf("peer %d %q: hit %v, group semantics say %v", id, term, hits[p*len(terms)+i], !hits[p*len(terms)+i])
			}
		}
	}
}
