// Newswire: persistent queries plus the information brokerage (Sections 4
// and 5.1). Subscribers post standing queries; publishers push dated
// snippets. Thanks to dual publication — each document's most frequent
// terms go straight to the consistent-hashing brokers with a short
// discard time — subscribers are notified moments after publication,
// long before Bloom-filter gossip would have diffused the new content.
// A snippet is a link: the story's id and the peer that holds it, which a
// subscriber asks for the body (Peer.FetchDocument).
package main

import (
	"fmt"
	"log"
	"sync"
	"time"

	"planetp"
)

const n = 6

func main() {
	// Deliberately SLOW gossip (2 s base interval) to showcase that the
	// brokerage path beats Bloom-filter diffusion.
	gossip := planetp.GossipConfig{
		BaseInterval: 2 * time.Second,
		MaxInterval:  4 * time.Second,
	}
	peers := make([]*planetp.Peer, n)
	for i := range peers {
		p, err := planetp.NewPeer(planetp.Config{
			ID: planetp.PeerID(i), Capacity: n,
			Gossip: gossip, Seed: int64(i + 1),
			BrokerTopFrac: 0.25,             // dual publication
			BrokerDiscard: 10 * time.Minute, // PFS's setting
		})
		if err != nil {
			log.Fatal(err)
		}
		defer p.Stop()
		peers[i] = p
	}
	for _, p := range peers[1:] {
		if err := p.Join(peers[0].Addr()); err != nil {
			log.Fatal(err)
		}
	}
	for _, p := range peers {
		p.Start()
	}
	waitConverged(peers)
	fmt.Println("newswire community of 6 peers ready (gossip interval: 2s)")

	// Subscribers on peers 4 and 5.
	var mu sync.Mutex
	arrivals := map[string]time.Time{}
	subscribe := func(p *planetp.Peer, topic string) {
		p.PostPersistentQuery(topic, func(d planetp.DocResult) {
			mu.Lock()
			arrivals[fmt.Sprintf("peer%d/%s/%s", p.ID(), topic, d.Key[:8])] = time.Now()
			mu.Unlock()
			fmt.Printf("  -> peer %d notified of %q match %s (held by peer %d)\n",
				p.ID(), topic, d.Key[:8], d.Peer)
		})
	}
	subscribe(peers[4], "earthquake chile")
	subscribe(peers[5], "election results")

	// Publishers on peers 1 and 2.
	stories := []struct {
		peer int
		xml  string
	}{
		{1, `<story>earthquake earthquake chile chile magnitude seven coastal towns evacuated</story>`},
		{2, `<story>election election results results landslide victory parliament coalition</story>`},
		{1, `<story>sports cup final penalty shootout drama extra time</story>`}, // no subscriber
	}
	start := time.Now()
	for _, s := range stories {
		if _, err := peers[s.peer].Publish(s.xml); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Println("3 stories published; waiting for broker notifications...")

	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		mu.Lock()
		got := len(arrivals)
		mu.Unlock()
		if got >= 2 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(arrivals) < 2 {
		log.Fatal("subscribers were not notified")
	}
	for k, at := range arrivals {
		fmt.Printf("%s delivered %v after publication (gossip alone would need ~1 interval = 2s+)\n",
			k, at.Sub(start).Round(time.Millisecond))
	}
}

func waitConverged(peers []*planetp.Peer) {
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		done := true
		for _, p := range peers {
			if p.Directory().NumKnown() != len(peers) {
				done = false
				break
			}
		}
		if done {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	log.Fatal("community did not converge")
}
