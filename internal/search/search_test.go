package search

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"planetp/internal/directory"
)

// fakeCommunity implements FilterView and Fetcher over in-memory peers.
type fakeCommunity struct {
	// terms[peer] is the peer's term set (its "Bloom filter", exact).
	terms map[directory.PeerID]map[string]bool
	// docs[peer] are the peer's documents.
	docs map[directory.PeerID][]DocResult
	// fail makes QueryPeer error for these peers.
	fail map[directory.PeerID]bool
	// falsePositives adds terms that the "filter" claims but no doc has.
	queried []directory.PeerID
}

func newFake() *fakeCommunity {
	return &fakeCommunity{
		terms: map[directory.PeerID]map[string]bool{},
		docs:  map[directory.PeerID][]DocResult{},
		fail:  map[directory.PeerID]bool{},
	}
}

func (f *fakeCommunity) addDoc(peer directory.PeerID, key string, freqs map[string]int) {
	if f.terms[peer] == nil {
		f.terms[peer] = map[string]bool{}
	}
	n := 0
	for t, c := range freqs {
		f.terms[peer][t] = true
		n += c
	}
	f.docs[peer] = append(f.docs[peer], DocResult{Peer: peer, Key: key, TermFreqs: freqs, DocLen: n})
}

func (f *fakeCommunity) Peers() []directory.PeerID {
	out := make([]directory.PeerID, 0, len(f.terms))
	for id := range f.terms {
		out = append(out, id)
	}
	// deterministic order
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j-1] > out[j]; j-- {
			out[j-1], out[j] = out[j], out[j-1]
		}
	}
	return out
}

func (f *fakeCommunity) Contains(id directory.PeerID, term string) bool {
	return f.terms[id][term]
}

func (f *fakeCommunity) QueryPeer(id directory.PeerID, terms []string) ([]DocResult, error) {
	f.queried = append(f.queried, id)
	if f.fail[id] {
		return nil, errors.New("unreachable")
	}
	var out []DocResult
	for _, d := range f.docs[id] {
		for _, t := range terms {
			if d.TermFreqs[t] > 0 {
				qf := map[string]int{}
				for _, qt := range terms {
					if d.TermFreqs[qt] > 0 {
						qf[qt] = d.TermFreqs[qt]
					}
				}
				out = append(out, DocResult{Peer: id, Key: d.Key, TermFreqs: qf, DocLen: d.DocLen})
				break
			}
		}
	}
	return out, nil
}

func (f *fakeCommunity) QueryPeerAll(id directory.PeerID, terms []string) ([]DocResult, error) {
	if f.fail[id] {
		return nil, errors.New("unreachable")
	}
	var out []DocResult
	for _, d := range f.docs[id] {
		all := true
		for _, t := range terms {
			if d.TermFreqs[t] <= 0 {
				all = false
				break
			}
		}
		if all {
			out = append(out, d)
		}
	}
	return out, nil
}

func TestIPF(t *testing.T) {
	f := newFake()
	f.addDoc(0, "d0", map[string]int{"common": 1, "rare": 1})
	f.addDoc(1, "d1", map[string]int{"common": 1})
	f.addDoc(2, "d2", map[string]int{"common": 1})
	ipf := IPF(f, []string{"common", "rare", "absent"})
	// common: N=3, N_t=3 -> log(2); rare: N_t=1 -> log(4); absent: 0.
	if math.Abs(ipf["common"]-math.Log(2)) > 1e-12 {
		t.Errorf("IPF(common) = %v", ipf["common"])
	}
	if math.Abs(ipf["rare"]-math.Log(4)) > 1e-12 {
		t.Errorf("IPF(rare) = %v", ipf["rare"])
	}
	if ipf["absent"] != 0 {
		t.Errorf("IPF(absent) = %v", ipf["absent"])
	}
	// Rare terms must outweigh common ones (the paper's core intuition).
	if ipf["rare"] <= ipf["common"] {
		t.Error("rare term should have higher IPF")
	}
}

func TestRankPeers(t *testing.T) {
	f := newFake()
	f.addDoc(0, "d0", map[string]int{"a": 1, "b": 1}) // both terms
	f.addDoc(1, "d1", map[string]int{"a": 1})         // common term only
	f.addDoc(2, "d2", map[string]int{"b": 1})         // rarer term only
	f.addDoc(3, "d3", map[string]int{"zz": 1})        // no query terms
	ipf := IPF(f, []string{"a", "b"})
	ranks := RankPeers(f, []string{"a", "b"}, ipf)
	if len(ranks) != 3 {
		t.Fatalf("ranks = %v (peer 3 must be excluded)", ranks)
	}
	if ranks[0].Peer != 0 {
		t.Fatalf("peer with all terms must rank first: %v", ranks)
	}
	// a is in 2 peers, b in 2 peers -> equal IPF; peers 1,2 tie and order
	// by id.
	if ranks[1].Peer != 1 || ranks[2].Peer != 2 {
		t.Fatalf("tie break by id: %v", ranks)
	}
}

func TestScoreDoc(t *testing.T) {
	ipf := map[string]float64{"a": 2.0, "b": 1.0}
	d := DocResult{TermFreqs: map[string]int{"a": 1, "b": 3}, DocLen: 4}
	want := (1*2.0 + (1+math.Log(3))*1.0) / 2.0
	if got := ScoreDoc(d, ipf); math.Abs(got-want) > 1e-12 {
		t.Fatalf("ScoreDoc = %v, want %v", got, want)
	}
	if ScoreDoc(DocResult{DocLen: 0}, ipf) != 0 {
		t.Fatal("zero-length doc must score 0")
	}
	if ScoreDoc(DocResult{TermFreqs: map[string]int{"a": 0}, DocLen: 5}, ipf) != 0 {
		t.Fatal("zero freq must not contribute")
	}
}

func TestStopPEquation4(t *testing.T) {
	// p = floor(2 + N/300) + 2*floor(k/50)
	cases := []struct{ n, k, want int }{
		{100, 10, 2}, {300, 10, 3}, {900, 10, 5},
		{100, 50, 4}, {100, 100, 6}, {400, 250, 13},
		{0, 0, 2},
	}
	for _, c := range cases {
		if got := StopP(c.n, c.k); got != c.want {
			t.Errorf("StopP(%d,%d) = %d, want %d", c.n, c.k, got, c.want)
		}
	}
}

func buildRankedCommunity() *fakeCommunity {
	f := newFake()
	// Peers 0..9; "topic" docs concentrated on low-numbered peers.
	for p := directory.PeerID(0); p < 10; p++ {
		for d := 0; d < 5; d++ {
			key := fmt.Sprintf("p%d-d%d", p, d)
			if int(p) < 3 {
				f.addDoc(p, key, map[string]int{"gossip": 3, "bloom": 2, "filler": 5})
			} else {
				f.addDoc(p, key, map[string]int{"filler": 8, "noise": 2})
			}
		}
	}
	return f
}

func TestRankedSearchFindsRelevant(t *testing.T) {
	f := buildRankedCommunity()
	docs, st := Ranked(f, f, []string{"gossip", "bloom"}, Options{K: 10})
	if len(docs) != 10 {
		t.Fatalf("got %d docs, want 10", len(docs))
	}
	for _, d := range docs {
		if d.Peer >= 3 {
			t.Fatalf("irrelevant doc in top-k: %+v", d)
		}
		if d.Score <= 0 {
			t.Fatalf("non-positive score: %+v", d)
		}
	}
	// Scores descending.
	for i := 1; i < len(docs); i++ {
		if docs[i].Score > docs[i-1].Score {
			t.Fatal("results not sorted by score")
		}
	}
	if st.PeersContacted == 0 || st.PeersContacted > st.PeersRanked {
		t.Fatalf("stats: %+v", st)
	}
}

func TestRankedSearchStopsEarly(t *testing.T) {
	f := newFake()
	// 40 peers all have the term, but only the first 3 (highest ranked
	// by an extra rare term) have high-value docs.
	for p := directory.PeerID(0); p < 40; p++ {
		freqs := map[string]int{"q": 1}
		if p < 3 {
			freqs["rareq"] = 5
		}
		f.addDoc(p, fmt.Sprintf("d%d", p), freqs)
	}
	_, st := Ranked(f, f, []string{"q", "rareq"}, Options{K: 3})
	if !st.StoppedEarly {
		t.Fatalf("adaptive stop did not fire: %+v", st)
	}
	if st.PeersContacted >= 40 {
		t.Fatalf("contacted everyone (%d) despite stop rule", st.PeersContacted)
	}
}

func TestRankedSearchSkipsFailedPeers(t *testing.T) {
	f := buildRankedCommunity()
	f.fail[0] = true
	docs, _ := Ranked(f, f, []string{"gossip", "bloom"}, Options{K: 10})
	for _, d := range docs {
		if d.Peer == 0 {
			t.Fatal("docs from failed peer")
		}
	}
	if len(docs) != 10 {
		t.Fatalf("got %d docs despite 2 healthy relevant peers", len(docs))
	}
}

func TestRankedSearchEdgeCases(t *testing.T) {
	f := buildRankedCommunity()
	if docs, _ := Ranked(f, f, nil, Options{K: 5}); docs != nil {
		t.Fatal("empty query returned docs")
	}
	if docs, _ := Ranked(f, f, []string{"gossip"}, Options{K: 0}); docs != nil {
		t.Fatal("k=0 returned docs")
	}
	if docs, _ := Ranked(f, f, []string{"nosuchterm"}, Options{K: 5}); len(docs) != 0 {
		t.Fatal("unknown term returned docs")
	}
}

func TestNoAdaptiveStopNaiveRule(t *testing.T) {
	f := buildRankedCommunity()
	docs, st := Ranked(f, f, []string{"gossip"}, Options{K: 5, NoAdaptiveStop: true})
	if len(docs) != 5 {
		t.Fatalf("naive rule should stop at k docs: %d", len(docs))
	}
	if st.StoppedEarly {
		t.Fatal("naive rule must not report adaptive stop")
	}
}

func TestExhaustiveSearch(t *testing.T) {
	f := newFake()
	f.addDoc(0, "both", map[string]int{"x": 1, "y": 1})
	f.addDoc(1, "xonly", map[string]int{"x": 1})
	f.addDoc(2, "boty", map[string]int{"x": 2, "y": 9})
	docs, st := Exhaustive(f, f, []string{"x", "y"}, Options{})
	if len(docs) != 2 {
		t.Fatalf("docs = %v", docs)
	}
	if docs[0].Key != "both" || docs[1].Key != "boty" {
		t.Fatalf("wrong/unsorted docs: %v", docs)
	}
	// Peer 1's filter lacks y: it must not even be contacted.
	if st.PeersContacted != 2 {
		t.Fatalf("contacted %d peers, want 2", st.PeersContacted)
	}
	if docs2, _ := Exhaustive(f, f, nil, Options{}); docs2 != nil {
		t.Fatal("empty exhaustive query")
	}
}

func TestExhaustiveSkipsFailed(t *testing.T) {
	f := newFake()
	f.addDoc(0, "a", map[string]int{"x": 1})
	f.addDoc(1, "b", map[string]int{"x": 1})
	f.fail[0] = true
	docs, _ := Exhaustive(f, f, []string{"x"}, Options{})
	if len(docs) != 1 || docs[0].Key != "b" {
		t.Fatalf("docs = %v", docs)
	}
}

func TestInsertTopK(t *testing.T) {
	var top []ScoredDoc
	mk := func(key string, s float64) ScoredDoc {
		return ScoredDoc{DocResult: DocResult{Key: key}, Score: s}
	}
	if !InsertTopK(&top, mk("a", 1), 2) || !InsertTopK(&top, mk("b", 3), 2) {
		t.Fatal("initial inserts must contribute")
	}
	if !InsertTopK(&top, mk("c", 2), 2) {
		t.Fatal("displacing insert must contribute")
	}
	if InsertTopK(&top, mk("d", 0.5), 2) {
		t.Fatal("below-threshold insert contributed")
	}
	if len(top) != 2 || top[0].Key != "b" || top[1].Key != "c" {
		t.Fatalf("top = %v", top)
	}
}

func TestPersistentQueryInitialAndFilterNotify(t *testing.T) {
	f := newFake()
	f.addDoc(0, "existing", map[string]int{"news": 1, "go": 1})
	reg := NewRegistry(f, f)
	var got []string
	_, cancel := reg.Post([]string{"news", "go"}, func(d DocResult) { got = append(got, d.Key) })
	if len(got) != 1 || got[0] != "existing" {
		t.Fatalf("initial evaluation = %v", got)
	}
	// A new doc arrives at peer 1, then its filter change is gossiped.
	f.addDoc(1, "fresh", map[string]int{"news": 2, "go": 1})
	reg.NotifyFilter(1)
	if len(got) != 2 || got[1] != "fresh" {
		t.Fatalf("after filter notify = %v", got)
	}
	// Duplicate notifications must not re-fire.
	reg.NotifyFilter(1)
	if len(got) != 2 {
		t.Fatalf("duplicate fired: %v", got)
	}
	cancel()
	f.addDoc(2, "late", map[string]int{"news": 1, "go": 1})
	reg.NotifyFilter(2)
	if len(got) != 2 {
		t.Fatal("cancelled query fired")
	}
	if reg.Queries() != 0 {
		t.Fatalf("Queries = %d after cancel", reg.Queries())
	}
}

func TestPersistentQueryNotifyDoc(t *testing.T) {
	f := newFake()
	reg := NewRegistry(f, f)
	var got []string
	reg.Post([]string{"a", "b"}, func(d DocResult) { got = append(got, d.Key) })
	reg.NotifyDoc(DocResult{Key: "s1", TermFreqs: map[string]int{"a": 1}})
	if len(got) != 0 {
		t.Fatal("partial match fired")
	}
	reg.NotifyDoc(DocResult{Key: "s2", TermFreqs: map[string]int{"a": 1, "b": 1}})
	if len(got) != 1 || got[0] != "s2" {
		t.Fatalf("got = %v", got)
	}
	reg.NotifyDoc(DocResult{Key: "s2", TermFreqs: map[string]int{"a": 1, "b": 1}})
	if len(got) != 1 {
		t.Fatal("dedupe failed")
	}
}
