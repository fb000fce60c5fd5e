package core

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"planetp/internal/directory"
	"planetp/internal/gossip"
	"planetp/internal/search"
)

// fastGossip shrinks the protocol timers so live tests converge in
// milliseconds.
func fastGossip() gossip.Config {
	return gossip.Config{
		BaseInterval: 25 * time.Millisecond,
		MaxInterval:  100 * time.Millisecond,
		SlowdownStep: 25 * time.Millisecond,
	}
}

// community spins up n live peers on loopback TCP, all bootstrapped via
// peer 0.
func community(t testing.TB, n int, brokerFrac float64) []*Peer {
	t.Helper()
	peers := make([]*Peer, n)
	for i := 0; i < n; i++ {
		p, err := NewPeer(Config{
			ID: directory.PeerID(i), Capacity: n,
			Gossip:        fastGossip(),
			Seed:          int64(i + 1),
			BrokerTopFrac: brokerFrac,
			BrokerDiscard: time.Minute,
		})
		if err != nil {
			t.Fatal(err)
		}
		peers[i] = p
		t.Cleanup(p.Stop)
	}
	for i := 1; i < n; i++ {
		if err := peers[i].Join(peers[0].Addr()); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range peers {
		p.Start()
	}
	return peers
}

// waitFor polls until cond or the deadline.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

func TestLiveCommunityConverges(t *testing.T) {
	peers := community(t, 6, 0)
	waitFor(t, 15*time.Second, "full membership", func() bool {
		for _, p := range peers {
			if p.Directory().NumKnown() != len(peers) {
				return false
			}
		}
		return true
	})
}

func TestLivePublishAndRankedSearch(t *testing.T) {
	peers := community(t, 5, 0)
	waitFor(t, 15*time.Second, "membership", func() bool {
		for _, p := range peers {
			if p.Directory().NumKnown() != len(peers) {
				return false
			}
		}
		return true
	})
	// Publish distinct documents at different peers.
	if _, err := peers[1].Publish(`<paper>epidemic gossip protocols replicate directories</paper>`); err != nil {
		t.Fatal(err)
	}
	if _, err := peers[2].Publish(`<paper>bloom filters summarize inverted indexes compactly</paper>`); err != nil {
		t.Fatal(err)
	}
	if _, err := peers[3].Publish(`<paper>consistent hashing partitions the key space</paper>`); err != nil {
		t.Fatal(err)
	}

	// Wait for the publishers' new filters to reach peer 4.
	waitFor(t, 15*time.Second, "filter gossip", func() bool {
		docs, _ := peers[4].Search("gossip protocols", 5)
		return len(docs) >= 1
	})
	docs, st := peers[4].Search("gossip protocols", 5)
	if len(docs) == 0 || st.PeersContacted == 0 {
		t.Fatalf("search returned nothing: %+v", st)
	}
	found := false
	for _, d := range docs {
		if d.Peer == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected doc from peer 1, got %+v", docs)
	}

	// Fetch the actual document body from its owner.
	xml, err := peers[4].FetchDocument(docs[0].Peer, docs[0].Key)
	if err != nil {
		t.Fatal(err)
	}
	if xml == "" {
		t.Fatal("empty document body")
	}
}

func TestLiveExhaustiveSearch(t *testing.T) {
	peers := community(t, 4, 0)
	waitFor(t, 15*time.Second, "membership", func() bool {
		for _, p := range peers {
			if p.Directory().NumKnown() != len(peers) {
				return false
			}
		}
		return true
	})
	peers[1].Publish(`<note>alpha beta gamma</note>`)
	peers[2].Publish(`<note>alpha delta</note>`)
	waitFor(t, 15*time.Second, "exhaustive results", func() bool {
		return len(peers[3].SearchAll("alpha beta")) == 1
	})
	res := peers[3].SearchAll("alpha beta")
	if len(res) != 1 || res[0].Peer != 1 {
		t.Fatalf("SearchAll = %+v", res)
	}
}

func TestLivePersistentQueryViaGossip(t *testing.T) {
	peers := community(t, 4, 0)
	waitFor(t, 15*time.Second, "membership", func() bool {
		for _, p := range peers {
			if p.Directory().NumKnown() != len(peers) {
				return false
			}
		}
		return true
	})
	var hits int32
	cancel := peers[0].PostPersistentQuery("distributed hashing", func(d search.DocResult) {
		atomic.AddInt32(&hits, 1)
	})
	defer cancel()
	peers[2].Publish(`<paper>distributed consistent hashing rings</paper>`)
	waitFor(t, 15*time.Second, "persistent query upcall", func() bool {
		return atomic.LoadInt32(&hits) >= 1
	})
}

func TestLiveBrokerDualPublication(t *testing.T) {
	peers := community(t, 5, 0.5)
	waitFor(t, 15*time.Second, "membership", func() bool {
		for _, p := range peers {
			if p.Directory().NumKnown() != len(peers) {
				return false
			}
		}
		return true
	})
	// Publish a doc whose head terms go to the brokers; a search from
	// another peer should find it through the brokerage even before
	// considering gossip timing.
	doc, err := peers[1].Publish(`<news>earthquake earthquake earthquake report</news>`)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 15*time.Second, "broker hit", func() bool {
		for _, d := range peers[3].SearchAll("earthquake") {
			if d.Key == doc.ID {
				return true
			}
		}
		return false
	})
}

func TestNewPeerValidation(t *testing.T) {
	if _, err := NewPeer(Config{ID: 0, Capacity: 0}); err == nil {
		t.Fatal("zero capacity accepted")
	}
	if _, err := NewPeer(Config{ID: 9, Capacity: 4}); err == nil {
		t.Fatal("out-of-range id accepted")
	}
}

func TestPublishRejectsEmpty(t *testing.T) {
	p, err := NewPeer(Config{ID: 0, Capacity: 2, Gossip: fastGossip()})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Stop()
	if _, err := p.Publish("<x/>"); err == nil {
		t.Fatal("empty document accepted")
	}
}

func TestPublishIdempotentAndRemove(t *testing.T) {
	p, err := NewPeer(Config{ID: 0, Capacity: 2, Gossip: fastGossip()})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Stop()
	d1, err := p.Publish("<x>some content here</x>")
	if err != nil {
		t.Fatal(err)
	}
	d2, err := p.Publish("<x>some content here</x>")
	if err != nil || d1.ID != d2.ID {
		t.Fatalf("republish: %v %v", d2, err)
	}
	if p.LocalDocs() != 1 {
		t.Fatalf("LocalDocs = %d", p.LocalDocs())
	}
	if !p.Remove(d1.ID) || p.Remove(d1.ID) {
		t.Fatal("Remove semantics")
	}
	if p.LocalDocs() != 0 {
		t.Fatal("doc not removed")
	}
	// Removed doc no longer matches local queries.
	if res := p.localQuery(Terms("content"), false); len(res) != 0 {
		t.Fatalf("removed doc still indexed: %v", res)
	}
}

func TestTopTerms(t *testing.T) {
	freqs := map[string]int{"a": 10, "b": 5, "c": 5, "d": 1}
	top := topTerms(freqs, 0.5)
	if len(top) != 2 || top[0] != "a" || top[1] != "b" {
		t.Fatalf("topTerms = %v", top)
	}
	if got := topTerms(map[string]int{"only": 1}, 0.01); len(got) != 1 {
		t.Fatalf("floor of one term: %v", got)
	}
}

func TestSelfSearchWithoutNetwork(t *testing.T) {
	p, err := NewPeer(Config{ID: 0, Capacity: 1, Gossip: fastGossip()})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Stop()
	if _, err := p.Publish("<m>solitary searchable document</m>"); err != nil {
		t.Fatal(err)
	}
	docs, _ := p.Search("solitary document", 3)
	if len(docs) != 1 || docs[0].Peer != 0 {
		t.Fatalf("self search = %+v", docs)
	}
}

func TestOfflinePeerSkippedInSearch(t *testing.T) {
	peers := community(t, 4, 0)
	waitFor(t, 15*time.Second, "membership", func() bool {
		for _, p := range peers {
			if p.Directory().NumKnown() != len(peers) {
				return false
			}
		}
		return true
	})
	peers[1].Publish(`<d>unique zebra document</d>`)
	waitFor(t, 15*time.Second, "gossip", func() bool {
		docs, _ := peers[0].Search("zebra", 2)
		return len(docs) == 1
	})
	// Kill peer 1; searches must degrade gracefully (skip it), and the
	// searcher marks it off-line.
	peers[1].Stop()
	waitFor(t, 15*time.Second, "offline detection via search", func() bool {
		docs, _ := peers[0].Search("zebra", 2)
		if len(docs) != 0 {
			return false
		}
		e, ok := peers[0].Directory().Entry(1)
		return ok && !e.Online
	})
}

func TestNamesAndAccessors(t *testing.T) {
	p, err := NewPeer(Config{ID: 1, Capacity: 4, Name: "alice", Gossip: fastGossip()})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Stop()
	if p.Name() != "alice" || p.ID() != 1 {
		t.Fatal("accessors")
	}
	if p.Addr() == "" || p.Node() == nil || p.Directory() == nil {
		t.Fatal("nil accessors")
	}
	// Default name.
	q, err := NewPeer(Config{ID: 2, Capacity: 4, Gossip: fastGossip()})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Stop()
	if q.Name() != fmt.Sprintf("peer-%d", 2) {
		t.Fatalf("default name = %q", q.Name())
	}
}
