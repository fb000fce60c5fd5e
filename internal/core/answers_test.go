package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"planetp/internal/replica"
	"planetp/internal/search"
)

// syncDirectories hands every peer every other peer's current record, as
// converged gossip would: after it, each directory holds each peer's latest
// version and filter.
func syncDirectories(peers []*Peer) {
	for _, p := range peers {
		for _, q := range peers {
			if p != q {
				p.dir.Upsert(q.node.OutgoingSelf())
			}
		}
	}
}

// counter reads one of p's counters.
func counter(p *Peer, name string) int64 { return p.reg.Counter(name).Value() }

// A search repeated with the answers of its last run returns exactly what a
// fresh search returns — hits, scores, order and stats — across rounds in
// which peers publish, remove documents and drop held replicas, and their
// new versions reach every directory: a drop moves a version as a publish
// does.
func TestSearchAgainEqualsSearch(t *testing.T) {
	peers := quietCommunity(t, 4, 0)
	rng := rand.New(rand.NewSource(51))
	queries := []string{"worda", "wordb wordc", "wordd worde wordf", "wordg worda", "wordh wordb worde"}
	type key struct {
		searcher int
		query    string
		k        int
	}
	// Peer 1 holds two replicas that rank high for the queries; it releases
	// one in round 2 and purges the other in round 4. From round 1 on, peer
	// 2 removes the oldest document it still holds every round.
	held := []replica.Entry{
		{Key: "held-released", Origin: 3, Epoch: 1, XML: "<doc>worda worda wordb wordc</doc>"},
		{Key: "held-purged", Origin: 3, Epoch: 1, XML: "<doc>wordd worde wordf wordd</doc>"},
	}
	for _, e := range held {
		peers[1].adoptReplica(e, 5)
	}
	drops := map[int]func(){
		2: func() { peers[1].purgeReplica(held[0].Key, 1, false) },
		4: func() { peers[1].purgeReplica(held[1].Key, 1, true) },
	}
	var removable []string
	priors := map[key]*Answers{}
	for round := 0; round < 6; round++ {
		for i, p := range peers {
			if round == 0 || rng.Intn(2) == 0 {
				docs, err := p.PublishBatch(vocabDocs(rng, 1+rng.Intn(12), 8, fmt.Sprint(round, "r", i)))
				if err != nil {
					t.Fatal(err)
				}
				if i == 2 {
					for _, d := range docs {
						removable = append(removable, d.ID)
					}
				}
			}
		}
		if round > 0 {
			if !peers[2].Remove(removable[0]) {
				t.Fatalf("round %d: remove %s failed", round, removable[0])
			}
			removable = removable[1:]
		}
		if drop := drops[round]; drop != nil {
			drop()
		}
		syncDirectories(peers)
		for s, p := range peers {
			for _, query := range queries {
				for _, k := range []int{1, 5, 10} {
					kk := key{s, query, k}
					got, gotSt, next := p.SearchAgain(query, k, priors[kk])
					want, wantSt := p.Search(query, k)
					if !reflect.DeepEqual(got, want) || gotSt != wantSt {
						t.Fatalf("round %d peer %d %q k=%d: with prior\n%v %+v\nwithout\n%v %+v", round, s, query, k, got, gotSt, want, wantSt)
					}
					if next == nil {
						t.Fatalf("round %d peer %d %q k=%d: no answers kept", round, s, query, k)
					}
					priors[kk] = next
				}
			}
		}
	}
	reused := int64(0)
	for _, p := range peers {
		reused += counter(p, "search_answers_reused_total")
	}
	if reused == 0 {
		t.Fatal("no answer was ever reused: the test compared nothing")
	}
}

// alphaCommunity is four quiet peers: 1 and 2 hold documents with "alpha",
// 3 holds none, and the searcher 0 holds nothing. Every directory is
// current.
func alphaCommunity(t *testing.T) []*Peer {
	peers := quietCommunity(t, 4, 0)
	for i, p := range peers[1:] {
		word := "alpha"
		if i == 2 {
			word = "omega"
		}
		if _, err := p.PublishBatch([]string{
			fmt.Sprintf("<doc>%s one%d</doc>", word, i), fmt.Sprintf("<doc>%s %s two%d</doc>", word, word, i),
		}); err != nil {
			t.Fatal(err)
		}
	}
	syncDirectories(peers)
	return peers
}

// rowsWalked reads how many index rows each peer's ranked answers have walked.
// A peer asked here walks at least one row, and counts it before it
// replies (its served bytes are counted after).
func rowsWalked(peers []*Peer) []int64 {
	out := make([]int64, len(peers))
	for i, p := range peers {
		out[i] = counter(p, "core_topk_rows_walked_total")
	}
	return out
}

// A fully reused search sends no frame, times no fetch, and neither adds
// a strike against a peer nor clears one: a peer it did not ask stays
// exactly as suspect as it was.
func TestReusedAnswerSendsNoFrameAndStrikesNoPeer(t *testing.T) {
	peers := alphaCommunity(t)
	p := peers[0]
	first, _, prior := p.SearchAgain("alpha", 10, nil)
	if len(first) != 4 || prior == nil || len(prior.peers) != 2 {
		t.Fatalf("first search: %d hits, answers %+v; want 4 hits from 2 peers", len(first), prior)
	}
	// Peer 2 goes away; one fresh search strikes it once, which leaves it
	// on-line (two strikes mark a peer off-line).
	peers[2].Stop()
	fails := counter(p, "gossip_failed_sends_total")
	if _, st := p.Search("alpha", 10); st.PeersContacted != 2 || counter(p, "gossip_failed_sends_total") != fails+1 {
		t.Fatalf("fresh search: stats %+v, failed sends %d -> %d; want one strike", st, fails, counter(p, "gossip_failed_sends_total"))
	}
	if e, _ := p.dir.Entry(2); !e.Online {
		t.Fatal("one strike marked peer 2 off-line")
	}

	tx := counter(p, "transport_tx_bytes_query")
	fails = counter(p, "gossip_failed_sends_total")
	reused := counter(p, "search_answers_reused_total")
	fetches := p.reg.Snapshot().Histograms["search_fetch_latency_us"].Count
	got, st, _ := p.SearchAgain("alpha", 10, prior)
	if !reflect.DeepEqual(got, first) || st.PeersContacted != 2 {
		t.Fatalf("reused search: %v %+v; want the first search's %v", got, st, first)
	}
	if d := counter(p, "transport_tx_bytes_query") - tx; d != 0 {
		t.Fatalf("a fully reused search sent %d query bytes", d)
	}
	if counter(p, "gossip_failed_sends_total") != fails {
		t.Fatal("a reused answer struck its peer")
	}
	if d := counter(p, "search_answers_reused_total") - reused; d != 2 {
		t.Fatalf("search_answers_reused_total moved by %d, want 2", d)
	}
	if d := p.reg.Snapshot().Histograms["search_fetch_latency_us"].Count - fetches; d != 0 {
		t.Fatalf("%d reused answers were timed as fetches", d)
	}
	// The streak the reuse left alone is still one strike: the next marks
	// peer 2 off-line.
	p.node.NoteFailure(2)
	if e, _ := p.dir.Entry(2); e.Online {
		t.Fatal("a reused answer cleared peer 2's failure streak")
	}
}

// A repeated search asks again the peer whose record moved, and every
// remote peer once N or an N_t moves.
func TestSearchAgainAsksMovedPeers(t *testing.T) {
	peers := alphaCommunity(t)
	p := peers[0]
	_, _, prior := p.SearchAgain("alpha", 10, nil)
	// asks runs the repeat and returns the peers it asked, checking the
	// result against a fresh search.
	asks := func(what string) []int {
		t.Helper()
		before := rowsWalked(peers)
		got, gotSt, next := p.SearchAgain("alpha", 10, prior)
		after := rowsWalked(peers)
		want, wantSt := p.Search("alpha", 10)
		if !reflect.DeepEqual(got, want) || gotSt != wantSt {
			t.Fatalf("%s: with prior\n%v %+v\nwithout\n%v %+v", what, got, gotSt, want, wantSt)
		}
		prior = next
		var asked []int
		for i := range peers {
			if after[i] != before[i] {
				asked = append(asked, i)
			}
		}
		return asked
	}
	if got := asks("nothing moved"); len(got) != 0 {
		t.Fatalf("nothing moved, yet peers %v were asked", got)
	}
	if _, err := peers[1].Publish("<doc>alpha three</doc>"); err != nil {
		t.Fatal(err)
	}
	syncDirectories(peers)
	if got := asks("peer 1 moved"); !reflect.DeepEqual(got, []int{1}) {
		t.Fatalf("peer 1's record moved: asked %v, want [1]", got)
	}
	// N: peer 3 holds no "alpha", so only the number of peers moves.
	p.dir.MarkOffline(3, 0)
	if got := asks("N moved"); !reflect.DeepEqual(got, []int{1, 2}) {
		t.Fatalf("N moved: asked %v, want [1 2]", got)
	}
	p.dir.MarkOnline(3)
	asks("N moved back")
	// N_t: peer 3 now holds "alpha"; peers 1 and 2 did not move.
	if _, err := peers[3].Publish("<doc>alpha four</doc>"); err != nil {
		t.Fatal(err)
	}
	syncDirectories(peers)
	if got := asks("N_t moved"); !reflect.DeepEqual(got, []int{1, 2, 3}) {
		t.Fatalf("N_t moved: asked %v, want [1 2 3]", got)
	}
}

// An answer set above answersMaxRows is not kept.
func TestSearchAgainKeepsBoundedAnswers(t *testing.T) {
	peers := quietCommunity(t, 2, 0)
	docs := make([]string, answersMaxRows)
	for i := range docs {
		docs[i] = fmt.Sprintf("<doc>bulky filler%d</doc>", i)
	}
	if _, err := peers[1].PublishBatch(docs); err != nil {
		t.Fatal(err)
	}
	syncDirectories(peers)
	if _, _, ans := peers[0].SearchAgain("bulky", answersMaxRows, nil); ans != nil {
		t.Fatalf("kept %d rows, above the %d-row bound", ans.cost, answersMaxRows)
	}
	if _, _, ans := peers[0].SearchAgain("bulky", answersMaxRows-1, nil); ans == nil {
		t.Fatal("an answer set at the bound was not kept")
	}
}

// searchAllocsAtParent is what one first-sighting ranked search allocated
// before searches could reuse answers, on this test's two-peer community
// (a remote peer answering two documents, the searcher's own index empty),
// counted across both peers. A search without a prior does no work per
// contact for reuse, so it allocates no more.
const searchAllocsAtParent = 46

// raceEnabled is set by race_test.go in a race-detector build.
var raceEnabled bool

func TestFirstSightingSearchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under the race detector are not the program's")
	}
	peers := quietCommunity(t, 2, 0)
	if _, err := peers[1].PublishBatch([]string{"<doc>gamma one</doc>", "<doc>gamma delta two</doc>"}); err != nil {
		t.Fatal(err)
	}
	syncDirectories(peers)
	p := peers[0]
	if got, st := p.Search("gamma delta", 10); len(got) != 2 || st.PeersContacted != 1 {
		t.Fatalf("search: %v %+v", got, st)
	}
	var st search.Stats
	allocs := testing.AllocsPerRun(200, func() { _, st = p.Search("gamma delta", 10) })
	t.Logf("%.1f allocations a search, %+v", allocs, st)
	if allocs > searchAllocsAtParent {
		t.Fatalf("a first-sighting search allocates %.1f, above %d", allocs, searchAllocsAtParent)
	}
}
