package core

import (
	"testing"
	"time"

	"planetp/internal/directory"
	"planetp/internal/gossip"
)

// mixedCommunity builds a community where peer 0 is modem-class and the
// rest are fast.
func mixedCommunity(t *testing.T, n int) []*Peer {
	t.Helper()
	peers := make([]*Peer, n)
	for i := 0; i < n; i++ {
		class := directory.Fast
		if i == 0 {
			class = directory.Slow
		}
		p, err := NewPeer(Config{
			ID: directory.PeerID(i), Capacity: n,
			Gossip: fastGossip(), Seed: int64(i + 1), Class: class,
		})
		if err != nil {
			t.Fatal(err)
		}
		peers[i] = p
		t.Cleanup(p.Stop)
	}
	for i := 0; i < n-1; i++ {
		if err := peers[i].Join(peers[n-1].Addr()); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range peers {
		p.Start()
	}
	waitFor(t, 15*time.Second, "membership", func() bool {
		for _, p := range peers {
			if p.Directory().NumKnown() != n {
				return false
			}
		}
		return true
	})
	return peers
}

func TestProxySearchMatchesLocal(t *testing.T) {
	peers := mixedCommunity(t, 4)
	peers[1].Publish(`<p>quantum cryptography entangled keys</p>`)
	peers[2].Publish(`<p>quantum computing error correction</p>`)
	waitFor(t, 15*time.Second, "filters", func() bool {
		docs, _ := peers[3].Search("quantum", 5)
		return len(docs) == 2
	})
	// The slow peer delegates to a fast proxy; results must match what
	// the proxy would return itself.
	proxy, ok := peers[0].PickProxy()
	if !ok {
		t.Fatal("no proxy available")
	}
	if proxy == 0 {
		t.Fatal("picked self/slow peer as proxy")
	}
	viaProxy, err := peers[0].SearchVia(proxy, "quantum", 5)
	if err != nil {
		t.Fatal(err)
	}
	local, _ := peers[int(proxy)].Search("quantum", 5)
	if len(viaProxy) != len(local) {
		t.Fatalf("proxy returned %d docs, proxy's own search %d", len(viaProxy), len(local))
	}
	for i := range viaProxy {
		if viaProxy[i].Key != local[i].Key {
			t.Fatalf("result %d differs: %s vs %s", i, viaProxy[i].Key, local[i].Key)
		}
	}
}

func TestSearchViaSelfFallsBackToLocal(t *testing.T) {
	peers := mixedCommunity(t, 2)
	peers[1].Publish(`<p>selfsearch content here</p>`)
	waitFor(t, 15*time.Second, "filters", func() bool {
		docs, _ := peers[0].Search("selfsearch", 2)
		return len(docs) == 1
	})
	docs, err := peers[0].SearchVia(peers[0].ID(), "selfsearch", 2)
	if err != nil || len(docs) != 1 {
		t.Fatalf("self proxy: %v %v", docs, err)
	}
}

func TestSearchViaDeadProxyErrors(t *testing.T) {
	peers := mixedCommunity(t, 3)
	peers[2].Stop()
	// Each failure is a strike; SuspicionThreshold (2) of them in a row mark
	// the proxy off-line.
	for i := 0; i < 2; i++ {
		if _, err := peers[0].SearchVia(2, "anything", 3); err == nil {
			t.Fatal("dead proxy should error")
		}
	}
	e, ok := peers[0].Directory().Entry(2)
	if !ok || e.Online {
		t.Fatal("dead proxy not marked offline")
	}
}

func TestMaxPullBatchChunksDirectoryDownload(t *testing.T) {
	// A node with MaxPullBatch must converge anyway — in pieces.
	// (Protocol-level test via the live stack would be slow; use the
	// gossip fake instead — see gossip package for the unit test. Here
	// we just confirm the config plumbs through a live peer.)
	p, err := NewPeer(Config{
		ID: 0, Capacity: 4,
		Gossip: gossip.Config{
			BaseInterval: 20 * time.Millisecond,
			MaxInterval:  80 * time.Millisecond,
			MaxPullBatch: 2,
		},
		Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Stop()
	q, err := NewPeer(Config{ID: 1, Capacity: 4, Gossip: fastGossip(), Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Stop()
	r, err := NewPeer(Config{ID: 2, Capacity: 4, Gossip: fastGossip(), Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()
	if err := q.Join(r.Addr()); err != nil {
		t.Fatal(err)
	}
	q.Start()
	r.Start()
	waitFor(t, 15*time.Second, "base community", func() bool {
		return q.Directory().NumKnown() == 2 && r.Directory().NumKnown() == 2
	})
	if err := p.Join(q.Addr()); err != nil {
		t.Fatal(err)
	}
	p.Start()
	waitFor(t, 15*time.Second, "chunked join", func() bool {
		return p.Directory().NumKnown() == 3
	})
}
