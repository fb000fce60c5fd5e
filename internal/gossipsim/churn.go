package gossipsim

import (
	"math"
	"math/rand"
	"time"

	"planetp/internal/directory"
	"planetp/internal/simnet"
)

// expRand draws exponential durations (Poisson process gaps)
// deterministically.
type expRand struct{ rng *rand.Rand }

func newExpRand(seed int64) *expRand {
	return &expRand{rng: rand.New(rand.NewSource(seed))}
}

// exp returns an exponentially distributed duration with the given mean.
func (e *expRand) exp(mean time.Duration) time.Duration {
	u := e.rng.Float64()
	for u == 0 {
		u = e.rng.Float64()
	}
	return time.Duration(-math.Log(u) * float64(mean))
}

// ChurnConfig parameterizes the dynamic-community experiment (Figure 4b/c
// and Figure 5).
type ChurnConfig struct {
	// N is the total membership.
	N int
	// StableFrac is the fraction of members on-line all the time (paper:
	// 40%).
	StableFrac float64
	// MeanOnline and MeanOffline are the Poisson on/off dwell times
	// (paper: 60 and 140 minutes).
	MeanOnline  time.Duration
	MeanOffline time.Duration
	// NewKeysProb is the probability a rejoining peer carries 1000 new
	// keys (paper: 5%).
	NewKeysProb float64
	// Warmup runs the churn before measurement starts.
	Warmup time.Duration
	// Measure is the measurement window.
	Measure time.Duration
	// FastOnly restricts the convergence set to fast peers (the MIX-F /
	// MIX-S condition of Figure 5).
	FastOnly bool
}

// DefaultChurn returns the paper's Figure 4b parameters for n members.
func DefaultChurn(n int) ChurnConfig {
	return ChurnConfig{
		N: n, StableFrac: 0.40,
		MeanOnline: 60 * time.Minute, MeanOffline: 140 * time.Minute,
		NewKeysProb: 0.05,
		Warmup:      30 * time.Minute, Measure: 2 * time.Hour,
	}
}

// ChurnResult is the outcome of a dynamic-community run.
type ChurnResult struct {
	Scenario string
	// All is the convergence CDF over all measured events.
	All CDF
	// Fast and Slow split events by source class (Figure 5 MIX-F /
	// MIX-S).
	Fast CDF
	Slow CDF
	// Timeline is aggregate bytes per simulated second over the whole
	// run (Figure 4c).
	Timeline []int64
	// MeasureStart/End index the measurement window into Timeline.
	MeasureStart, MeasureEnd int
	// Events is the number of measured rejoin events.
	Events int
}

// Churn runs the Figure 4b/4c/5 experiment: a community of cfg.N peers,
// 40% always on-line, the rest cycling on/off with Poisson dwell times;
// occasionally a rejoiner carries new keys. Convergence times of rejoin
// events inside the measurement window form the CDF.
func Churn(sc Scenario, cfg ChurnConfig, seed int64) ChurnResult {
	r := newRun(sc, cfg.N, cfg.N, seed)
	er := r.rand(101)

	var inSet func(p *simnet.Peer) bool
	if cfg.FastOnly {
		inSet = func(p *simnet.Peer) bool { return simnet.Class(p.Speed) == directory.Fast }
	}
	measureStart := r.start + cfg.Warmup
	measureEnd := measureStart + cfg.Measure

	r.cycle(er, cfg.StableFrac, cfg.MeanOnline, cfg.MeanOffline, func(p *simnet.Peer) {
		diff, label := 0, "rejoin"
		if er.rng.Float64() < cfg.NewKeysProb {
			diff, label = Diff1000Keys, "join" // paper's "Join": back online with 1000 new keys
		}
		p.GoOnline(diff)
		if now := r.s.Now(); now >= measureStart && now < measureEnd {
			r.watch(p, label, inSet)
		}
	})

	// Warmup + measurement + a drain tail for the last events to converge.
	r.s.Run(measureEnd + time.Hour)
	r.tr.AbandonOutstanding()

	results := r.tr.Results
	return ChurnResult{
		Scenario:     sc.Name,
		All:          cdfOf(results, nil),
		Fast:         cdfOf(results, func(e EventResult) bool { return e.SourceClass == directory.Fast }),
		Slow:         cdfOf(results, func(e EventResult) bool { return e.SourceClass == directory.Slow }),
		Timeline:     r.s.BandwidthTimeline(),
		MeasureStart: int(measureStart / time.Second),
		MeasureEnd:   int(measureEnd / time.Second),
		Events:       len(results),
	}
}

// AggregateBandwidth averages the timeline (bytes/second) over the
// measurement window.
func (r ChurnResult) AggregateBandwidth() float64 {
	lo, hi := r.MeasureStart, r.MeasureEnd
	if hi > len(r.Timeline) {
		hi = len(r.Timeline)
	}
	if lo >= hi {
		return 0
	}
	var sum int64
	for _, b := range r.Timeline[lo:hi] {
		sum += b
	}
	return float64(sum) / float64(hi-lo)
}
