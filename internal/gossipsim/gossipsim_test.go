package gossipsim

import (
	"testing"
	"time"

	"planetp/internal/directory"
	"planetp/internal/simnet"
)

// Keep test community sizes modest; the full paper-scale sweeps live in
// the benchmark harness.

func TestPropagationLAN(t *testing.T) {
	p := Propagation(LAN, 100, 1)
	if p.Time <= 0 || p.Time > 10*time.Minute {
		t.Fatalf("LAN propagation over 100 peers = %v; want minutes-scale", p.Time)
	}
	if p.Bytes <= 0 || p.PerPeerBW <= 0 {
		t.Fatalf("accounting: %+v", p)
	}
}

func TestPropagationScalesLogarithmically(t *testing.T) {
	small := Propagation(DSL30, 50, 2)
	big := Propagation(DSL30, 400, 2)
	if big.Time <= 0 || small.Time <= 0 {
		t.Fatalf("non-convergence: %v %v", small.Time, big.Time)
	}
	// Paper, Figure 2a: propagation time is a log function of community
	// size — an 8x community should take nowhere near 8x the time.
	if big.Time > 3*small.Time {
		t.Fatalf("propagation not log-like: 50 peers %v, 400 peers %v", small.Time, big.Time)
	}
}

func TestAntiEntropyBaselineCostsMore(t *testing.T) {
	n := 150
	planetp := Propagation(LAN, n, 3)
	ae := Propagation(LANAE, n, 3)
	if ae.Bytes <= planetp.Bytes {
		t.Fatalf("Figure 2b shape violated: AE-only volume %d <= PlanetP %d",
			ae.Bytes, planetp.Bytes)
	}
}

// Figure 2's sweep (cmd/gossipsim -exp fig2) runs Propagation once per
// size at seed+n: each point reports its own size and repeats exactly.
func TestPropagationSweep(t *testing.T) {
	for _, n := range []int{30, 60} {
		p := Propagation(LAN, n, 4+int64(n))
		if p.N != n || p.Time <= 0 {
			t.Fatalf("n=%d: point %+v", n, p)
		}
		if again := Propagation(LAN, n, 4+int64(n)); again != p {
			t.Fatalf("n=%d: rerun %+v, first run %+v", n, again, p)
		}
	}
}

func TestJoinConverges(t *testing.T) {
	r := Join(LAN, 60, 15, 5)
	if !r.Converged {
		t.Fatalf("join did not converge: %+v", r)
	}
	if r.Time <= 0 || r.Bytes <= 0 {
		t.Fatalf("join result: %+v", r)
	}
	// Joins are bandwidth-intensive: moving 15 full 16KB filters around
	// 75 peers must cost at least 15*16000 bytes total.
	if r.Bytes < int64(15*Full20000Keys) {
		t.Fatalf("join volume %d implausibly small", r.Bytes)
	}
}

func TestArrivalCDF(t *testing.T) {
	cdf := ArrivalCDF(LAN, 50, 8, 20*time.Second, 6)
	if len(cdf.Times)+cdf.Unconverged != 8 {
		t.Fatalf("CDF covers %d+%d events, want 8", len(cdf.Times), cdf.Unconverged)
	}
	if cdf.Unconverged > 0 {
		t.Fatalf("%d arrivals never converged on a LAN", cdf.Unconverged)
	}
	if cdf.Percentile(50) <= 0 || cdf.Percentile(100) < cdf.Percentile(50) {
		t.Fatalf("percentiles inconsistent: %v", cdf)
	}
}

func TestPartialAETightensTail(t *testing.T) {
	// Figure 4a's claim: without partial anti-entropy, overlapping
	// rumors interfere and the convergence tail grows. Compare p99-ish
	// behaviour on a small arrival storm.
	with := ArrivalCDF(LAN, 40, 10, 15*time.Second, 7)
	without := ArrivalCDF(LANNPA, 40, 10, 15*time.Second, 7)
	if len(with.Times) == 0 || len(without.Times) == 0 {
		t.Fatalf("missing results: %v / %v", with, without)
	}
	// The no-partial-AE variant must not beat the full algorithm's tail
	// by any meaningful margin (it should typically be worse).
	if without.Percentile(100) < with.Percentile(100)/2 {
		t.Fatalf("ablation unexpectedly better: with=%v without=%v",
			with.Percentile(100), without.Percentile(100))
	}
}

func TestChurnSmall(t *testing.T) {
	cfg := ChurnConfig{
		N: 60, StableFrac: 0.4,
		MeanOnline: 4 * time.Minute, MeanOffline: 6 * time.Minute,
		NewKeysProb: 0.2,
		Warmup:      5 * time.Minute, Measure: 20 * time.Minute,
	}
	r := Churn(LAN, cfg, 8)
	if r.Events == 0 {
		t.Fatal("no churn events measured")
	}
	if len(r.Timeline) == 0 {
		t.Fatal("no bandwidth timeline")
	}
	if r.AggregateBandwidth() <= 0 {
		t.Fatal("no aggregate bandwidth in measurement window")
	}
	conv := len(r.All.Times)
	if conv == 0 {
		t.Fatal("no events converged under churn")
	}
}

func TestChurnFastOnlyCondition(t *testing.T) {
	cfg := ChurnConfig{
		N: 50, StableFrac: 0.4,
		MeanOnline: 4 * time.Minute, MeanOffline: 6 * time.Minute,
		NewKeysProb: 0.2,
		Warmup:      5 * time.Minute, Measure: 15 * time.Minute,
		FastOnly: true,
	}
	r := Churn(MIX, cfg, 9)
	if r.Events == 0 {
		t.Fatal("no events")
	}
	// Fast + Slow partitions cover all events.
	if len(r.Fast.Times)+r.Fast.Unconverged+len(r.Slow.Times)+r.Slow.Unconverged != r.Events {
		t.Fatalf("class split inconsistent: %+v", r)
	}
}

func TestCDFPercentileEdges(t *testing.T) {
	empty := CDF{}
	if empty.Percentile(50) != -1 {
		t.Fatal("empty CDF should report -1")
	}
	c := CDF{Times: []time.Duration{1, 2, 3, 4}}
	if c.Percentile(0) != 1 || c.Percentile(100) != 4 {
		t.Fatalf("edges: %v %v", c.Percentile(0), c.Percentile(100))
	}
	if c.String() == "" {
		t.Fatal("String empty")
	}
}

func TestExpRandMean(t *testing.T) {
	er := newExpRand(3)
	var sum time.Duration
	const n = 20000
	for i := 0; i < n; i++ {
		sum += er.exp(time.Minute)
	}
	mean := sum / n
	if mean < 55*time.Second || mean > 65*time.Second {
		t.Fatalf("exp mean = %v, want ≈1m", mean)
	}
}

func TestScenarioConfigs(t *testing.T) {
	if LANAE.config().Mode != 1 {
		t.Fatal("LAN-AE mode")
	}
	if !MIX.config().BandwidthAware {
		t.Fatal("MIX must be bandwidth aware")
	}
	if LANNPA.config().PiggybackCount != -1 {
		t.Fatal("LAN-NPA piggyback")
	}
	if DSL10.config().BaseInterval != 10*time.Second || DSL10.config().MaxInterval != 20*time.Second {
		t.Fatal("DSL-10 intervals")
	}
}

func TestSpeedForMatchesProfile(t *testing.T) {
	counts := map[directory.Class]int{}
	for i := 0; i < 100; i++ {
		counts[simnet.Class(speedFor(MIX, i))]++
	}
	if counts[directory.Slow] != 9 {
		t.Fatalf("slow fraction = %d, want 9", counts[directory.Slow])
	}
}
