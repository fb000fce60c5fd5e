package simnet

import (
	"testing"
	"time"

	"planetp/internal/directory"
	"planetp/internal/gossip"
)

// bigMsg builds a message that takes the given seconds to cross a modem
// link (one direction). The record is about the receiver itself, so the
// receiver charges the link but never re-rumors it (nodes ignore gossip
// about themselves) — keeping these tests about link mechanics only.
func bigMsg(seconds float64, about directory.PeerID) *gossip.Message {
	bytes := int32(float64(Modem) / 8 * seconds)
	return &gossip.Message{Type: gossip.MsgRumor,
		Updates: []directory.Record{{ID: about, DiffSize: bytes}}}
}

func TestRecvBacklogRejectsSends(t *testing.T) {
	params := DefaultParams()
	params.RecvBacklog = 10 * time.Second
	s := New(3, gossip.Config{}, params, 1)
	a := s.AddPeer(LAN, 0, 0)
	b := s.AddPeer(Modem, 0, 0)
	s.AddPeer(LAN, 0, 0)

	// Stuff b's inbound link well past the backlog threshold.
	if err := a.Send(b.ID, bigMsg(30, b.ID)); err != nil {
		t.Fatalf("first send should be accepted: %v", err)
	}
	// Now b's link is busy ~30s; further sends look like timeouts.
	if err := a.Send(b.ID, bigMsg(1, b.ID)); err == nil {
		t.Fatal("send to backlogged peer should fail")
	}
	if s.FailedSends != 1 {
		t.Fatalf("FailedSends = %d", s.FailedSends)
	}
	// After the queue drains, sends work again.
	s.Run(2 * time.Minute)
	if err := a.Send(b.ID, bigMsg(0.1, b.ID)); err != nil {
		t.Fatalf("post-drain send failed: %v", err)
	}
}

func TestRecvBacklogDisabled(t *testing.T) {
	params := DefaultParams()
	params.RecvBacklog = 0 // disabled
	s := New(2, gossip.Config{}, params, 1)
	a := s.AddPeer(LAN, 0, 0)
	b := s.AddPeer(Modem, 0, 0)
	for i := 0; i < 5; i++ {
		if err := a.Send(b.ID, bigMsg(30, b.ID)); err != nil {
			t.Fatalf("send %d failed with backlog disabled: %v", i, err)
		}
	}
}

func TestSendBacklogDefersTick(t *testing.T) {
	params := DefaultParams()
	params.SendBacklog = 5 * time.Second
	params.RecvBacklog = 0
	s := New(2, gossip.Config{}, params, 1)
	a := s.AddPeer(Modem, 0, 0)
	b := s.AddPeer(LAN, 0, 0)
	_ = b
	s.Run(time.Second)

	// Saturate a's uplink for ~60 modem-seconds.
	if err := a.Send(b.ID, bigMsg(60, b.ID)); err != nil {
		t.Fatal(err)
	}
	roundsBefore := a.Node.Stats().Rounds
	// Over the next 30 s, a's gossip rounds must be deferred (its link
	// is hopelessly backlogged).
	s.Run(s.Now() + 30*time.Second)
	roundsDuring := a.Node.Stats().Rounds - roundsBefore
	if roundsDuring > 1 {
		t.Fatalf("backlogged peer ran %d gossip rounds; expected deferral", roundsDuring)
	}
	// Once drained, rounds resume.
	s.Run(s.Now() + 3*time.Minute)
	if a.Node.Stats().Rounds == roundsBefore {
		t.Fatal("rounds never resumed after drain")
	}
}

func TestBackpressureBoundsQueues(t *testing.T) {
	// A modem peer in a busy LAN community must not accumulate
	// unbounded in-flight data: with backpressure on, the modem's
	// linkBusyUntil horizon stays within RecvBacklog + one transfer.
	params := DefaultParams()
	s := New(20, gossip.Config{}, params, 3)
	BuildCommunity(s, 20, []MixFraction{{Modem, 0.1}, {LAN, 0.9}}, 16000, 16000)
	s.Run(time.Second)
	// Everyone publishes (a storm of 16KB rumors).
	for _, p := range s.Peers() {
		p.Node.Publish(16000, 16000)
	}
	s.Run(s.Now() + 10*time.Minute)
	for _, p := range s.Peers() {
		if p.Speed != Modem {
			continue
		}
		horizon := p.linkBusyUntil - s.Now()
		if horizon > params.RecvBacklog+5*time.Minute {
			t.Fatalf("modem peer %d queue horizon %v despite backpressure", p.ID, horizon)
		}
	}
}
