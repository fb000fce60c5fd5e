package simnet

import (
	"testing"
	"time"

	"planetp/internal/directory"
	"planetp/internal/gossip"
)

func TestEventOrdering(t *testing.T) {
	s := New(0, gossip.Config{}, DefaultParams(), 1)
	var order []int
	s.At(2*time.Second, func() { order = append(order, 2) })
	s.At(1*time.Second, func() { order = append(order, 1) })
	s.At(1*time.Second, func() { order = append(order, 10) }) // FIFO at same time
	s.At(3*time.Second, func() { order = append(order, 3) })
	s.Run(10 * time.Second)
	want := []int{1, 10, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if s.Now() != 10*time.Second {
		t.Fatalf("Now = %v", s.Now())
	}
}

func TestRunUntil(t *testing.T) {
	s := New(0, gossip.Config{}, DefaultParams(), 1)
	hit := false
	s.At(time.Second, func() { hit = true })
	s.At(5*time.Second, func() { t.Fatal("should have stopped") })
	ok := s.RunUntil(time.Minute, func() bool { return hit })
	if !ok {
		t.Fatal("predicate not reached")
	}
}

func TestClassMapping(t *testing.T) {
	if Class(Modem) != directory.Slow {
		t.Error("modem should be slow")
	}
	for _, s := range []LinkSpeed{DSL, Cable, Eth10, LAN} {
		if Class(s) != directory.Fast {
			t.Errorf("%v should be fast", s)
		}
	}
}

func TestBuildCommunityProfile(t *testing.T) {
	s := New(100, gossip.Config{}, DefaultParams(), 7)
	BuildCommunity(s, 100, MixProfile(), 3000, 16000)
	counts := map[LinkSpeed]int{}
	for _, p := range s.Peers() {
		counts[p.Speed]++
	}
	if counts[Modem] != 9 || counts[DSL] != 21 || counts[Cable] != 50 ||
		counts[Eth10] != 16 || counts[LAN] != 4 {
		t.Fatalf("profile mismatch: %v", counts)
	}
	// Converged start: everyone knows everyone, no active rumors.
	for _, p := range s.Peers() {
		if p.Node.Directory().NumKnown() != 100 {
			t.Fatalf("peer %d knows %d", p.ID, p.Node.Directory().NumKnown())
		}
		if p.Node.ActiveRumors() != 0 {
			t.Fatalf("peer %d has %d active rumors at start", p.ID, p.Node.ActiveRumors())
		}
	}
}

// The core end-to-end check: one peer publishes a new Bloom filter in a
// converged LAN community; the rumor must reach every peer well within the
// experiment horizon, and the bandwidth must be accounted.
func TestPropagationReachesEveryone(t *testing.T) {
	const n = 60
	s := New(n, gossip.Config{}, DefaultParams(), 42)
	BuildCommunity(s, n, UniformProfile(LAN), 3000, 3000)
	s.Run(time.Second) // settle timers

	src := s.Peers()[0]
	src.Node.Publish(3000, 6000)
	wantVer := src.Node.SelfRecord().Ver

	knows := func() bool {
		for _, p := range s.Peers() {
			if p.Node.Directory().VersionOf(src.ID).Less(wantVer) {
				return false
			}
		}
		return true
	}
	if !s.RunUntil(30*time.Minute, knows) {
		t.Fatal("rumor did not reach everyone within 30 simulated minutes")
	}
	if s.Now() > 10*time.Minute {
		t.Fatalf("propagation took %v; paper-scale is a few minutes", s.Now())
	}
	if s.TotalBytes == 0 || s.TotalMsgs == 0 {
		t.Fatal("no bandwidth accounted")
	}
	if len(s.BandwidthTimeline()) == 0 {
		t.Fatal("no bandwidth timeline")
	}
}

// Convergence must also hold without the partial anti-entropy (pure
// rumor + periodic AE), just more slowly/variably.
func TestPropagationWithoutPartialAE(t *testing.T) {
	const n = 40
	s := New(n, gossip.Config{PiggybackCount: -1}, DefaultParams(), 43)
	BuildCommunity(s, n, UniformProfile(LAN), 3000, 3000)
	s.Run(time.Second)
	src := s.Peers()[0]
	src.Node.Publish(3000, 6000)
	wantVer := src.Node.SelfRecord().Ver
	knows := func() bool {
		for _, p := range s.Peers() {
			if p.Node.Directory().VersionOf(src.ID).Less(wantVer) {
				return false
			}
		}
		return true
	}
	if !s.RunUntil(2*time.Hour, knows) {
		t.Fatal("no convergence without partial AE")
	}
}

// AE-only baseline must converge too (it is the LAN-AE comparison).
func TestPropagationAEOnly(t *testing.T) {
	const n = 30
	s := New(n, gossip.Config{Mode: gossip.ModeAEOnly}, DefaultParams(), 44)
	BuildCommunity(s, n, UniformProfile(LAN), 3000, 3000)
	s.Run(time.Second)
	src := s.Peers()[0]
	src.Node.Publish(3000, 6000)
	wantVer := src.Node.SelfRecord().Ver
	knows := func() bool {
		for _, p := range s.Peers() {
			if p.Node.Directory().VersionOf(src.ID).Less(wantVer) {
				return false
			}
		}
		return true
	}
	if !s.RunUntil(2*time.Hour, knows) {
		t.Fatal("AE-only did not converge")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (time.Duration, int64) {
		const n = 30
		s := New(n, gossip.Config{}, DefaultParams(), 99)
		BuildCommunity(s, n, UniformProfile(DSL), 3000, 3000)
		s.Run(time.Second)
		src := s.Peers()[0]
		src.Node.Publish(3000, 6000)
		wantVer := src.Node.SelfRecord().Ver
		s.RunUntil(time.Hour, func() bool {
			for _, p := range s.Peers() {
				if p.Node.Directory().VersionOf(src.ID).Less(wantVer) {
					return false
				}
			}
			return true
		})
		return s.Now(), s.TotalBytes
	}
	t1, b1 := run()
	t2, b2 := run()
	if t1 != t2 || b1 != b2 {
		t.Fatalf("non-deterministic: (%v,%d) vs (%v,%d)", t1, b1, t2, b2)
	}
}

func TestOfflinePeerLosesAndRejoins(t *testing.T) {
	const n = 20
	s := New(n, gossip.Config{}, DefaultParams(), 5)
	BuildCommunity(s, n, UniformProfile(LAN), 1000, 1000)
	s.Run(time.Second)

	victim := s.Peers()[7]
	victim.GoOffline()
	if s.NumOnline() != n-1 {
		t.Fatalf("NumOnline = %d", s.NumOnline())
	}

	// Publish elsewhere; victim must not learn it while offline.
	src := s.Peers()[0]
	src.Node.Publish(1000, 2000)
	wantVer := src.Node.SelfRecord().Ver
	s.Run(s.Now() + 10*time.Minute)
	if !victim.Node.Directory().VersionOf(src.ID).Less(wantVer) {
		t.Fatal("offline peer learned a rumor")
	}

	// Rejoin: the victim announces itself and catches up via gossip.
	victim.GoOnline(0)
	epoch := victim.Node.SelfRecord().Ver.Epoch
	if epoch != 2 {
		t.Fatalf("rejoin epoch = %d", epoch)
	}
	caughtUp := func() bool {
		return !victim.Node.Directory().VersionOf(src.ID).Less(wantVer)
	}
	if !s.RunUntil(s.Now()+30*time.Minute, caughtUp) {
		t.Fatal("rejoined peer did not catch up")
	}
	// And the community must learn the victim's new epoch.
	rejoinKnown := func() bool {
		for _, p := range s.Peers() {
			if p.Node.Directory().VersionOf(victim.ID).Epoch < 2 {
				return false
			}
		}
		return true
	}
	if !s.RunUntil(s.Now()+30*time.Minute, rejoinKnown) {
		t.Fatal("rejoin not propagated")
	}
}

func TestJoinViaSeed(t *testing.T) {
	const n = 16
	s := New(n+1, gossip.Config{}, DefaultParams(), 6)
	BuildCommunity(s, n, UniformProfile(LAN), 1000, 1000)
	s.Run(time.Second)

	// A new peer joins knowing only peer 0.
	joiner := s.AddPeer(LAN, 1000, 1000, 0)
	if joiner.Node.Directory().NumKnown() != 2 {
		t.Fatalf("joiner knows %d records, want 2 (self+seed)", joiner.Node.Directory().NumKnown())
	}
	full := func() bool {
		if joiner.Node.Directory().NumKnown() != n+1 {
			return false
		}
		for _, p := range s.Peers()[:n] {
			if p.Node.Directory().VersionOf(joiner.ID).IsZero() {
				return false
			}
		}
		return true
	}
	if !s.RunUntil(s.Now()+time.Hour, full) {
		t.Fatalf("join did not converge: joiner knows %d, community awareness incomplete",
			joiner.Node.Directory().NumKnown())
	}
}

func TestSlowLinkSlowsTransfer(t *testing.T) {
	// Directly compare the simulated delivery time of one message over
	// modem vs LAN.
	deliver := func(speed LinkSpeed) time.Duration {
		s := New(2, gossip.Config{}, Params{CPUTime: 0, Latency: 0}, 1)
		a := s.AddPeer(speed, 0, 0)
		b := s.AddPeer(speed, 0, 0)
		_ = b
		var at time.Duration
		msg := &gossip.Message{Type: gossip.MsgRumor, From: a.ID,
			Updates: []directory.Record{{ID: a.ID, DiffSize: 56000 / 8}}}
		s.AfterDeliver = func(to *Peer, from directory.PeerID, m *gossip.Message) {
			if m == msg && at == 0 {
				at = s.Now()
			}
		}
		if err := a.Send(1, msg); err != nil {
			t.Fatal(err)
		}
		s.Run(time.Hour)
		return at
	}
	slow := deliver(Modem)
	fast := deliver(LAN)
	if slow <= fast {
		t.Fatalf("modem (%v) not slower than LAN (%v)", slow, fast)
	}
	// 7053 bytes over 56kb/s through two store-and-forward hops ≈ 2s.
	if slow < 1500*time.Millisecond || slow > 4*time.Second {
		t.Fatalf("modem transfer = %v, expected ≈2s", slow)
	}
}

func TestSendToOfflineFails(t *testing.T) {
	s := New(2, gossip.Config{}, DefaultParams(), 1)
	a := s.AddPeer(LAN, 0, 0)
	b := s.AddPeer(LAN, 0, 0)
	b.GoOffline()
	err := a.Send(b.ID, &gossip.Message{Type: gossip.MsgAERequest, From: a.ID})
	if err == nil {
		t.Fatal("send to offline peer should fail")
	}
	if s.FailedSends != 1 {
		t.Fatalf("FailedSends = %d", s.FailedSends)
	}
}

func TestCapacityEnforced(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on exceeding capacity")
		}
	}()
	s := New(1, gossip.Config{}, DefaultParams(), 1)
	s.AddPeer(LAN, 0, 0)
	s.AddPeer(LAN, 0, 0)
}
