package gossipsim

import (
	"reflect"
	"testing"
	"time"

	"planetp/internal/directory"
	"planetp/internal/faultnet"
	"planetp/internal/simnet"
)

// The acceptance trio: every storm scenario must fully recover — zero
// staleness, full coverage, no dead records, no stale incarnations — and
// must never violate either T_Dead invariant along the way (no live peer
// collected, no departed record outliving TDead + GCSlack).

func checkStorm(t *testing.T, res StormResult) {
	t.Helper()
	if res.LiveDrops != 0 {
		t.Errorf("%s: %d live peers garbage-collected", res.Name, res.LiveDrops)
	}
	if res.DeadViolations != 0 {
		t.Errorf("%s: %d dead-record sightings past TDead+GCSlack", res.Name, res.DeadViolations)
	}
	if res.StaleIncarnations != 0 {
		t.Errorf("%s: %d stale incarnation records at end", res.Name, res.StaleIncarnations)
	}
	if !res.Converged {
		t.Errorf("%s: did not converge: staleness=%.4f coverage=%.4f",
			res.Name, res.FinalStaleness, res.FinalCoverage)
	}
}

func TestStormFlashCrowd(t *testing.T) {
	res := Storm(STORM, StormScenarios(16)[0], 1)
	checkStorm(t, res)
	if res.FinalCoverage != 1 {
		t.Errorf("joiners not fully discovered: coverage=%.4f", res.FinalCoverage)
	}
}

func TestStormMassDeparture(t *testing.T) {
	spec := StormScenarios(16)[1]
	res := Storm(STORM, spec, 1)
	checkStorm(t, res)
	if res.DeadClearedS < 0 {
		t.Fatalf("departed records never cleared community-wide")
	}
	slack := time.Duration(16*spec.N+32) * STORM.Interval // the default GCSlack
	if limit := (spec.TDead + slack).Seconds(); res.DeadClearedS > limit {
		t.Errorf("departed records cleared at %.0fs, limit %.0fs", res.DeadClearedS, limit)
	}
}

func TestStormHealRejoin(t *testing.T) {
	res := Storm(STORM, StormScenarios(16)[2], 1)
	checkStorm(t, res)
}

// TestStormDeterministicReplay: equal (scenario, spec, seed) inputs must
// reproduce byte-identical staleness/bandwidth curves and summary
// counters — the property that makes a storm failure a pinnable
// regression rather than flake.
func TestStormDeterministicReplay(t *testing.T) {
	for _, spec := range StormScenarios(12) {
		a := Storm(STORM, spec, 3)
		b := Storm(STORM, spec, 3)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two runs with seed 3 diverged", spec.Name)
		}
	}
	sa := ChurnRateSweep(STORM, 12, []float64{1, 2}, 9)
	sb := ChurnRateSweep(STORM, 12, []float64{1, 2}, 9)
	if !reflect.DeepEqual(sa, sb) {
		t.Errorf("churn-rate sweep with seed 9 diverged")
	}
}

// TestTDeadRejoinNotDropped: a peer that goes off-line but rejoins with a
// fresh incarnation halfway through the T_Dead window must never be
// garbage-collected by any observer, even under 25% message loss — the
// rejoin announcement resets every off-line clock well before it reaches
// TDead (observers start their clocks only after two failed sends, so the
// earliest possible drop is at detection + TDead > rejoin + TDead/2).
func TestTDeadRejoinNotDropped(t *testing.T) {
	sc := STORM
	sc.TDead = 40 * sc.Interval
	var drops []directory.PeerID
	cfg := sc.config()
	cfg.OnDrop = func(ids []directory.PeerID, now time.Duration) {
		drops = append(drops, ids...)
	}
	s := simnet.New(8, cfg, simnet.DefaultParams(), 17)
	simnet.BuildCommunity(s, 8, sc.Profile, Diff1000Keys, Full20000Keys)
	s.Run(2 * time.Second)
	s.SetFaults(faultnet.New(faultnet.Config{Seed: 42, Drop: 0.25}, nil))

	victim := s.Peers()[3]
	start := s.Now()
	s.At(start, func() { victim.GoOffline() })
	s.At(start+sc.TDead/2, func() { victim.GoOnline(0) })
	s.Run(start + 3*sc.TDead)

	if len(drops) != 0 {
		t.Fatalf("rejoining peer was garbage-collected: drops=%v", drops)
	}
	want := victim.Node.SelfRecord().Ver.Epoch
	for _, p := range s.Peers() {
		if got := p.Node.Directory().VersionOf(victim.ID).Epoch; got != want {
			t.Errorf("peer %d holds victim at epoch %d, want %d", p.ID, got, want)
		}
	}
}

// TestTDeadDepartedCleared: a permanently-departed record must be gone
// from every replica within TDead plus the convergence slack, under 25%
// message loss. The slack covers randomized failure detection (two failed
// picks per observer among ~N candidates, at up to MaxInterval per round
// once gossip quiets down) plus the 16-round GC sweep period; the bound
// is pinned by the seeds, so a slower protocol shows up as a hard fail.
func TestTDeadDepartedCleared(t *testing.T) {
	iv := STORM.Interval
	slack := time.Duration(16*8+32) * iv // the default GCSlack at N=8
	spec := StormSpec{
		Name: "departed-clearance", N: 8, TDead: 40 * iv,
		DepartFrac: 0.125, Faults: FaultSpec{Drop: 0.25, Seed: 42},
		Horizon: 40*iv + slack + 60*iv,
	}
	res := Storm(STORM, spec, 17)
	checkStorm(t, res)
	if res.DeadClearedS < 0 {
		t.Fatalf("departed record never cleared community-wide")
	}
	if limit := (spec.TDead + slack).Seconds(); res.DeadClearedS > limit {
		t.Errorf("departed record cleared at %.0fs, limit %.0fs", res.DeadClearedS, limit)
	}
}
