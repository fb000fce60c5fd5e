package simnet

import (
	"testing"
	"time"

	"planetp/internal/directory"
	"planetp/internal/gossip"
)

// A message in flight to a peer that goes off-line is lost (the paper's
// model: abrupt departures lose whatever was addressed to them), and the
// system recovers via the normal rejoin path.
func TestInFlightMessageLostOnDeparture(t *testing.T) {
	s := New(2, gossip.Config{}, DefaultParams(), 4)
	a := s.AddPeer(LAN, 0, 0)
	b := s.AddPeer(LAN, 0, 0)
	delivered := 0
	s.AfterDeliver = func(*Peer, directory.PeerID, *gossip.Message) { delivered++ }

	if err := a.Send(b.ID, &gossip.Message{Type: gossip.MsgAERequest, From: a.ID}); err != nil {
		t.Fatal(err)
	}
	// The message is scheduled but b departs before it lands.
	b.GoOffline()
	s.Run(time.Minute)
	if delivered != 0 {
		t.Fatalf("message delivered to departed peer (%d)", delivered)
	}
	// After rejoin, fresh messages flow again.
	b.GoOnline(0)
	if err := a.Send(b.ID, &gossip.Message{Type: gossip.MsgAERequest, From: a.ID}); err != nil {
		t.Fatal(err)
	}
	s.Run(s.Now() + time.Minute)
	if delivered == 0 {
		t.Fatal("no delivery after rejoin")
	}
}

// Rejoin announcements must supersede: epoch bumps on every GoOnline.
func TestRepeatedChurnBumpsEpochs(t *testing.T) {
	s := New(2, gossip.Config{}, DefaultParams(), 4)
	p := s.AddPeer(LAN, 0, 0)
	s.AddPeer(LAN, 0, 0)
	for i := 0; i < 5; i++ {
		p.GoOffline()
		p.GoOnline(0)
	}
	if got := p.Node.SelfRecord().Ver.Epoch; got != 6 {
		t.Fatalf("epoch after 5 rejoins = %d, want 6", got)
	}
}

// The timeline accounting must cover every sent byte.
func TestTimelineSumsToTotal(t *testing.T) {
	const n = 30
	s := New(n, gossip.Config{}, DefaultParams(), 8)
	BuildCommunity(s, n, UniformProfile(DSL), 1000, 1000)
	s.Run(time.Second)
	s.Peers()[0].Node.Publish(1000, 2000)
	s.Run(10 * time.Minute)
	var sum int64
	for _, b := range s.BandwidthTimeline() {
		sum += b
	}
	if sum != s.TotalBytes {
		t.Fatalf("timeline sum %d != TotalBytes %d", sum, s.TotalBytes)
	}
}
