package gossipsim

import (
	"testing"
	"time"

	"planetp/internal/directory"
	"planetp/internal/simnet"
)

// trackerFixture builds a quiet 8-peer LAN community with a tracker.
func trackerFixture(t *testing.T) (*simnet.Sim, *tracker) {
	t.Helper()
	r := newRun(LAN, 8, 8, 5)
	return r.s, r.tr
}

func TestTrackerConvergesOnPropagation(t *testing.T) {
	s, tr := trackerFixture(t)
	src := s.Peers()[0]
	src.Node.Publish(100, 1000)
	tr.Watch(src.ID, src.Node.SelfRecord().Ver, "update", directory.Fast, nil)
	if tr.Outstanding() != 1 {
		t.Fatalf("Outstanding = %d", tr.Outstanding())
	}
	if !s.RunUntil(time.Hour, func() bool { return tr.Outstanding() == 0 }) {
		t.Fatal("event never converged")
	}
	if len(tr.Results) != 1 || tr.Results[0].Elapsed <= 0 {
		t.Fatalf("results = %+v", tr.Results)
	}
	if tr.Results[0].Label != "update" {
		t.Fatalf("label = %q", tr.Results[0].Label)
	}
}

func TestTrackerImmediateConvergence(t *testing.T) {
	s, tr := trackerFixture(t)
	// Watching an already-known version converges instantly.
	tr.Watch(0, directory.Version{Epoch: 1, Seq: 0}, "noop", directory.Fast, nil)
	if tr.Outstanding() != 0 {
		t.Fatal("already-known event should converge immediately")
	}
	if len(tr.Results) != 1 || tr.Results[0].Elapsed != 0 {
		t.Fatalf("results = %+v", tr.Results)
	}
	_ = s
}

func TestTrackerFixedSetExcludesOfflinePeers(t *testing.T) {
	s, tr := trackerFixture(t)
	// Peer 7 is off-line at event time: not part of the set.
	s.Peers()[7].GoOffline()
	src := s.Peers()[0]
	src.Node.Publish(100, 1000)
	tr.Watch(src.ID, src.Node.SelfRecord().Ver, "update", directory.Fast, nil)
	if !s.RunUntil(time.Hour, func() bool { return tr.Outstanding() == 0 }) {
		t.Fatal("event should converge without the offline peer")
	}
	// Peer 7 must still be ignorant (it was off the whole time).
	if !s.Peers()[7].Node.Directory().VersionOf(src.ID).Less(src.Node.SelfRecord().Ver) {
		t.Fatal("offline peer learned the rumor")
	}
}

func TestTrackerDepartureCompletesEvent(t *testing.T) {
	s, tr := trackerFixture(t)
	src := s.Peers()[0]
	src.Node.Publish(100, 1000)
	tr.Watch(src.ID, src.Node.SelfRecord().Ver, "update", directory.Fast, nil)
	// Everyone except the source immediately leaves: the set shrinks to
	// peers that already know, so the event completes.
	for _, p := range s.Peers()[1:] {
		p.GoOffline()
	}
	if tr.Outstanding() != 0 {
		t.Fatalf("event should complete when all ignorant members left: %d", tr.Outstanding())
	}
}

func TestTrackerAbandonOutstanding(t *testing.T) {
	s, tr := trackerFixture(t)
	src := s.Peers()[0]
	src.Node.Publish(100, 1000)
	tr.Watch(src.ID, src.Node.SelfRecord().Ver, "update", directory.Fast, nil)
	tr.AbandonOutstanding()
	if tr.Outstanding() != 0 {
		t.Fatal("abandon left events outstanding")
	}
	if len(tr.Results) != 1 || tr.Results[0].Elapsed != -1 {
		t.Fatalf("abandoned result = %+v", tr.Results)
	}
	_ = s
}

func TestTrackerInSetFilter(t *testing.T) {
	r := newRun(MIX, 40, 40, 9)
	s, tr := r.s, r.tr
	fastOnly := func(p *simnet.Peer) bool {
		return simnet.Class(p.Speed) == directory.Fast
	}
	src := s.Peers()[0]
	src.Node.Publish(100, 1000)
	tr.Watch(src.ID, src.Node.SelfRecord().Ver, "update", simnet.Class(src.Speed), fastOnly)
	if !s.RunUntil(2*time.Hour, func() bool { return tr.Outstanding() == 0 }) {
		t.Fatal("fast-only event never converged")
	}
	// Convergence required only fast peers; a slow peer may or may not
	// know — but every fast peer must.
	for _, p := range s.Peers() {
		if fastOnly(p) && p.Node.Directory().VersionOf(src.ID).Less(src.Node.SelfRecord().Ver) {
			t.Fatalf("fast peer %d ignorant after fast-only convergence", p.ID)
		}
	}
}
