package core

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"planetp/internal/directory"
	"planetp/internal/gossip"
	"planetp/internal/transport"
)

// TestRotateSeedsOrderAndBackoff: within a pass every seed is tried back
// to back (a dead seed must not delay a live one), only a fully failed
// pass sleeps, and the sleep doubles from seedBackoff.
func TestRotateSeedsOrderAndBackoff(t *testing.T) {
	var tried []string
	var slept []time.Duration
	cfg := BootstrapConfig{
		Seeds: []string{"a", "b", "c"},
		sleep: func(d time.Duration) { slept = append(slept, d) },
	}
	err := rotateSeeds(cfg, func(addr string) error {
		tried = append(tried, addr)
		// c comes up on the third pass.
		if addr == "c" && len(slept) >= 2 {
			return nil
		}
		return fmt.Errorf("dial %s: refused", addr)
	})
	if err != nil {
		t.Fatalf("rotateSeeds: %v", err)
	}
	want := []string{"a", "b", "c", "a", "b", "c", "a", "b", "c"}
	if strings.Join(tried, ",") != strings.Join(want, ",") {
		t.Errorf("tried %v, want %v", tried, want)
	}
	if len(slept) != 2 || slept[0] != seedBackoff || slept[1] != 2*seedBackoff {
		t.Errorf("slept %v, want [%v %v]", slept, seedBackoff, 2*seedBackoff)
	}
}

// TestRotateSeedsBackoffCap: seedPasses failed passes sleep between them,
// doubling up to the seedBackoffMax cap, then give up.
func TestRotateSeedsBackoffCap(t *testing.T) {
	var slept []time.Duration
	cfg := BootstrapConfig{
		Seeds: []string{"a"},
		sleep: func(d time.Duration) { slept = append(slept, d) },
	}
	boom := errors.New("down")
	err := rotateSeeds(cfg, func(string) error { return boom })
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("want exhaustion error wrapping the last failure, got %v", err)
	}
	want := []time.Duration{250, 500, 1000, 2000, 4000, 5000, 5000}
	for i := range want {
		want[i] *= time.Millisecond
	}
	if len(slept) != len(want) {
		t.Fatalf("slept %v, want %v", slept, want)
	}
	for i := range want {
		if slept[i] != want[i] {
			t.Fatalf("slept %v, want %v", slept, want)
		}
	}
}

func TestRotateSeedsFirstSeedWinsNoSleep(t *testing.T) {
	calls := 0
	cfg := BootstrapConfig{
		Seeds: []string{"a", "b"},
		sleep: func(time.Duration) { t.Fatal("slept on a successful first pass") },
	}
	if err := rotateSeeds(cfg, func(string) error { calls++; return nil }); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("calls = %d, want 1", calls)
	}
}

func TestRotateSeedsEmptyList(t *testing.T) {
	err := rotateSeeds(BootstrapConfig{}, func(string) error { return nil })
	if err == nil {
		t.Fatal("want error for empty seed list")
	}
}

// TestJoinSeedsDiscoversThroughPeerExchange drives live bootstrap: a
// joiner whose first seed refuses rotates to the second, then reaches its
// DiscoverMin through peer exchange, whose samples carry no payloads.
func TestJoinSeedsDiscoversThroughPeerExchange(t *testing.T) {
	const n = 5
	newPeer := func(id int, g gossip.Config) *Peer {
		p, err := NewPeer(Config{ID: directory.PeerID(id), Capacity: n, Gossip: g, Seed: int64(id + 1)})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(p.Stop)
		return p
	}
	members := make([]*Peer, n-1)
	for i := range members {
		members[i] = newPeer(i, fastGossip())
		if i > 0 {
			if err := members[i].Join(members[0].Addr()); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i, p := range members {
		p.Start()
		if _, err := p.Publish(fmt.Sprintf("<doc>member %d sandpiper</doc>", i)); err != nil {
			t.Fatal(err)
		}
	}
	seed := members[0]
	waitFor(t, 15*time.Second, "the seed holds every member's filter", func() bool {
		for _, p := range members[1:] {
			if payload, _, _ := seed.dir.Payload(p.ID()); len(payload) == 0 {
				return false
			}
		}
		return true
	})

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	refused := ln.Addr().String()
	ln.Close()
	g := fastGossip()
	g.DiscoverMin = n
	joiner := newPeer(n-1, g)
	if err := joiner.JoinSeeds(BootstrapConfig{Seeds: []string{refused, seed.Addr()}}); err != nil {
		t.Fatal(err)
	}
	if got := joiner.reg.Snapshot().Get("transport_dial_failures_total"); got != 1 {
		t.Fatalf("dial failures = %d, want 1: the refused seed", got)
	}
	joiner.Start()
	waitFor(t, 15*time.Second, "the joiner's minimum", func() bool { return joiner.dir.NumOnline() >= n })
	snap := joiner.reg.Snapshot()
	if snap.Get("gossip_exchanges_total") == 0 || snap.Get("transport_tx_bytes_peer_exchange") == 0 {
		t.Fatalf("exchanges %d, peer_exchange tx bytes %d; want both > 0",
			snap.Get("gossip_exchanges_total"), snap.Get("transport_tx_bytes_peer_exchange"))
	}
	// The seed holds a filter for every other member, and samples none.
	sample := (*handler)(seed).HandlePeerExchange(transport.MaxExchangeRecords)
	if len(sample) < n-2 {
		t.Fatalf("the seed sampled %d records, want at least the %d other members", len(sample), n-2)
	}
	for _, rec := range sample {
		if len(rec.Payload) != 0 {
			t.Fatalf("peer %d's sampled record carries a %d-byte payload", rec.ID, len(rec.Payload))
		}
	}
}
