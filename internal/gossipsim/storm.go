package gossipsim

import (
	"time"

	"planetp/internal/directory"
	"planetp/internal/simnet"
)

// StormSpec scripts one churn-storm scenario on top of a converged
// community: a flash crowd (FlashJoin peers joining within one gossip
// round), a mass departure (DepartFrac of the membership leaving forever
// at once), and/or a partition (Faults) whose heal triggers a mass rejoin
// with fresh incarnations. Event offsets are relative to the storm's
// start.
type StormSpec struct {
	Name string
	// N is the initial (converged) community size.
	N int
	// TDead is the directory GC horizon; every storm runs with GC on so
	// the T_Dead invariants are exercised, not just convergence.
	TDead time.Duration
	// DiscoverMin enables bootstrap discovery on every node (joiners are
	// the ones below the threshold, so established members pay nothing).
	DiscoverMin int
	// Faults is the network the storm blows through. Its partition, if
	// any, heals into a mass rejoin: every upper-half member comes back
	// with a fresh incarnation. Keep HealAt-PartitionAt well under TDead
	// or cross-partition suspicion legitimately garbage-collects live
	// peers.
	Faults FaultSpec

	// FlashJoin peers join at FlashAt, all within one gossip round, each
	// bootstrapping from a single existing member.
	FlashJoin int
	FlashAt   time.Duration
	// DepartFrac of the initial members (never peer 0) leave permanently
	// at DepartAt.
	DepartFrac float64
	DepartAt   time.Duration

	// Horizon is how long to run after the last scripted event;
	// SampleEvery is the measurement cadence (default one interval).
	Horizon     time.Duration
	SampleEvery time.Duration
	// GCSlack is the allowed clearance slack for a departed record beyond
	// departure + TDead, covering failure detection and the 16-round GC
	// sweep period. Detection needs each observer to pick the dead target
	// twice among ~N candidates, so its tail scales with N intervals —
	// and once gossip goes quiet the adaptive interval stretches to
	// MaxInterval (2× base), doubling the wall-clock cost of a round.
	// Default (16N+32) intervals.
	GCSlack time.Duration
}

// StormSample is one measurement instant of a storm run.
type StormSample struct {
	// T is seconds since the storm's start.
	T float64 `json:"t"`
	// Online is the ground-truth on-line population.
	Online int `json:"online"`
	// Staleness is the mean (over on-line observers) fraction of held
	// records that are wrong vs ground truth: a departed member's record,
	// or a live member's record at an outdated version.
	Staleness float64 `json:"staleness"`
	// Coverage is the mean fraction of the live population each on-line
	// observer knows (self included).
	Coverage float64 `json:"coverage"`
	// DeadRecords counts (observer, departed member) pairs still held.
	DeadRecords int `json:"dead_records"`
	// BytesPerSec is the community-aggregate gossip bandwidth since the
	// previous sample.
	BytesPerSec float64 `json:"bytes_per_sec"`
}

// StormResult is one storm scenario's outcome.
type StormResult struct {
	Name string `json:"name"`
	N    int    `json:"n"`
	Seed int64  `json:"seed"`
	// LiveDrops counts T_Dead violations of the first kind: a GC sweep
	// collected a member that was on-line (and had been for at least a
	// propagation grace period, so its presence was knowable).
	LiveDrops int `json:"live_drops"`
	// DeadViolations counts violations of the second kind: a departed
	// member's record still held past departure + TDead + GCSlack
	// (summed over samples; any nonzero value is a failure).
	DeadViolations int `json:"dead_violations"`
	// DeadClearedS is when (seconds since start) the last dead record
	// disappeared community-wide; -1 if none ever existed or they never
	// cleared within the run.
	DeadClearedS float64 `json:"dead_cleared_s"`
	// StaleIncarnations counts, at the end of the run, records of live
	// members held at an epoch older than the member's current one.
	StaleIncarnations int `json:"stale_incarnations"`
	// FinalStaleness/FinalCoverage are the last sample's values.
	FinalStaleness float64 `json:"final_staleness"`
	FinalCoverage  float64 `json:"final_coverage"`
	// TotalBytes is the aggregate gossip volume over the run;
	// BytesPerRound normalizes it to one gossip interval.
	TotalBytes    int64   `json:"total_bytes"`
	BytesPerRound float64 `json:"bytes_per_round"`
	// Converged reports full recovery: zero staleness, full coverage, no
	// dead records, no stale incarnations at the end of the run.
	Converged bool          `json:"converged"`
	Samples   []StormSample `json:"samples"`
}

// stormRun settles the spec's community (with room for its flash crowd)
// under the spec's faults and scripts its events; end is Horizon past the
// last of them.
func stormRun(sc Scenario, spec StormSpec, seed int64) (r *run, end time.Duration) {
	sc.TDead = spec.TDead
	sc.DiscoverMin = spec.DiscoverMin
	r = newRun(sc, spec.N+spec.FlashJoin, spec.N, seed)
	r.inject(spec.Faults)
	var last time.Duration
	if spec.FlashJoin > 0 {
		r.at(spec.FlashAt, func() { r.flashJoin(spec.FlashJoin, "") })
		last = max(last, spec.FlashAt)
	}
	if spec.DepartFrac > 0 {
		r.massDepart(spec.DepartAt, spec.DepartFrac)
		last = max(last, spec.DepartAt)
	}
	if spec.Faults.Partition {
		r.healRejoin(spec.Faults.HealAt)
		last = max(last, spec.Faults.HealAt)
	}
	return r, r.start + last + spec.Horizon
}

// Storm runs one scripted churn storm. Both seeds (sim and fault) fully
// determine the run: equal (sc, spec, seed) inputs reproduce identical
// sample curves and summary counters.
func Storm(sc Scenario, spec StormSpec, seed int64) StormResult {
	if spec.SampleEvery <= 0 {
		spec.SampleEvery = sc.Interval
	}
	if spec.GCSlack <= 0 {
		spec.GCSlack = time.Duration(16*spec.N+32) * sc.Interval
	}
	r, end := stormRun(sc, spec, seed)
	res := StormResult{Name: spec.Name, N: spec.N, Seed: seed}

	// Live-drop audit: a collected record is a violation when its member
	// is on-line and has been for long enough that news of it must have
	// propagated (a freshly rejoined member may legitimately be collected
	// by an observer its announcement has not reached yet).
	grace := 10 * sc.Interval
	r.onDrop = func(dropped []directory.PeerID, now time.Duration) {
		for _, id := range dropped {
			if int(id) >= len(r.s.Peers()) {
				continue
			}
			if _, gone := r.departed[id]; gone {
				continue
			}
			if q := r.s.Peers()[id]; q.Online() && now-q.OnlineSince >= grace {
				res.LiveDrops++
			}
		}
	}

	var prevBytes int64
	r.sampleEvery(spec.SampleEvery, end, func(t time.Duration) {
		sm, _ := stormMeasure(r)
		sm.T = (t - r.start).Seconds()
		sm.BytesPerSec = float64(r.bytes()-prevBytes) / spec.SampleEvery.Seconds()
		prevBytes = r.bytes()
		// Second T_Dead invariant: a departed record must be gone within
		// departure + TDead + slack. Counted per held pair so a single
		// laggard observer is visible in the total.
		for _, p := range r.s.Peers() {
			if !p.Online() {
				continue
			}
			for id, at := range r.departed {
				if t > at+spec.TDead+spec.GCSlack &&
					!p.Node.Directory().VersionOf(id).IsZero() {
					res.DeadViolations++
				}
			}
		}
		res.Samples = append(res.Samples, sm)
	})

	res.TotalBytes = r.bytes()
	if rounds := float64(end-r.start) / float64(sc.Interval); rounds > 0 {
		res.BytesPerRound = float64(res.TotalBytes) / rounds
	}
	res.DeadClearedS = -1
	lastDead := -1
	for i, sm := range res.Samples {
		if sm.DeadRecords > 0 {
			lastDead = i
		}
	}
	if len(r.departed) > 0 && lastDead+1 < len(res.Samples) {
		res.DeadClearedS = res.Samples[lastDead+1].T
	}
	var last StormSample
	if n := len(res.Samples); n > 0 {
		last = res.Samples[n-1]
	}
	res.FinalStaleness, res.FinalCoverage = last.Staleness, last.Coverage
	_, res.StaleIncarnations = stormMeasure(r)
	res.Converged = last.Staleness == 0 && last.Coverage == 1 &&
		last.DeadRecords == 0 && res.StaleIncarnations == 0
	return res
}

// stormMeasure computes one sample against ground truth, and how many
// records of live members are held at an epoch older than the member's
// current incarnation. Iteration is over the peers slice (never a map) so
// identical runs produce identical floating-point sums.
func stormMeasure(r *run) (sm StormSample, staleIncarnations int) {
	peers := r.s.Peers()
	sm.Online = r.s.NumOnline()
	var stSum, covSum float64
	for _, p := range peers {
		if !p.Online() {
			continue
		}
		dir := p.Node.Directory()
		wrong, knownLive, total := 0, 0, 0
		for _, id := range dir.KnownIDs() {
			if id == p.ID {
				continue
			}
			total++
			if _, gone := r.departed[id]; gone {
				sm.DeadRecords++
				wrong++
				continue
			}
			knownLive++
			held, current := dir.VersionOf(id), peers[id].Node.SelfRecord().Ver
			if held.Less(current) {
				wrong++
			}
			if held.Epoch < current.Epoch {
				staleIncarnations++
			}
		}
		if total > 0 {
			stSum += float64(wrong) / float64(total)
		}
		covSum += float64(knownLive+1) / float64(sm.Online)
	}
	if sm.Online > 0 {
		sm.Staleness = stSum / float64(sm.Online)
		sm.Coverage = covSum / float64(sm.Online)
	}
	return sm, staleIncarnations
}

// StormScenarios returns the acceptance trio for an initial community of
// n peers on the STORM scenario: a flash crowd of n/2 joiners with
// bootstrap discovery, a 25% mass departure under 25% message drop, and a
// partition-heal mass rejoin. Durations are in units of the STORM
// interval (10 s), with TDead chosen so a partition suspicion never
// reaches the GC horizon while the storm is in force.
func StormScenarios(n int) []StormSpec {
	iv := STORM.Interval
	tDead := 40 * iv
	return []StormSpec{
		{
			Name: "flash-crowd", N: n, TDead: tDead,
			FlashJoin: n / 2, FlashAt: 0, DiscoverMin: 8,
			Horizon: 60 * iv,
		},
		{
			Name: "mass-departure", N: n, TDead: tDead,
			DepartFrac: 0.25, DepartAt: 0,
			Faults: FaultSpec{Drop: 0.25, Seed: 42},
			// The horizon must reach past departure + TDead + the default
			// GCSlack, otherwise the dead-record deadline is never put to
			// the test; the extra margin keeps a few samples after it.
			Horizon: tDead + time.Duration(16*n+32)*iv + 60*iv,
		},
		{
			Name: "heal-rejoin", N: n, TDead: tDead,
			Faults:  FaultSpec{Partition: true, HealAt: 20 * iv},
			Horizon: 80 * iv,
		},
	}
}

// RatePoint is one x-value of the staleness-vs-churn-rate sweep.
type RatePoint struct {
	// Rate scales the Poisson on/off dwell rates (1 = baseline: 20 min
	// mean on-line, 10 min mean off-line).
	Rate float64 `json:"rate"`
	// Events is the number of rejoin events inside the window.
	Events int `json:"events"`
	// MeanStaleness averages the sampled directory staleness.
	MeanStaleness float64 `json:"mean_staleness"`
	// MeanOnline averages the sampled on-line population.
	MeanOnline float64 `json:"mean_online"`
	// BytesPerSec and BytesPerRound are the window's aggregate gossip
	// bandwidth.
	BytesPerSec   float64 `json:"bytes_per_sec"`
	BytesPerRound float64 `json:"bytes_per_round"`
}

// ChurnRateSweep measures directory staleness and gossip bandwidth as the
// churn rate scales: a community of n peers, 40% stable, the rest cycling
// with Poisson dwell times divided by each rate. Deterministic for equal
// (sc, n, rates, seed).
func ChurnRateSweep(sc Scenario, n int, rates []float64, seed int64) []RatePoint {
	const warmup, window = 5 * time.Minute, 30 * time.Minute
	sc.TDead = 0 // isolate churn bandwidth from GC effects
	out := make([]RatePoint, 0, len(rates))
	for ri, rate := range rates {
		r := newRun(sc, n, n, seed+int64(ri))
		pt := RatePoint{Rate: rate}
		r.cycle(r.rand(307), 0.4,
			time.Duration(float64(20*time.Minute)/rate),
			time.Duration(float64(10*time.Minute)/rate),
			func(p *simnet.Peer) {
				p.GoOnline(0)
				pt.Events++
			})

		r.s.Run(r.s.Now() + warmup)
		startBytes, startEvents := r.bytes(), pt.Events
		var stSum, onSum float64
		samples := 0
		r.sampleEvery(sc.Interval, r.s.Now()+window, func(time.Duration) {
			sm, _ := stormMeasure(r)
			stSum += sm.Staleness
			onSum += float64(sm.Online)
			samples++
		})
		pt.Events -= startEvents
		if samples > 0 {
			pt.MeanStaleness = stSum / float64(samples)
			pt.MeanOnline = onSum / float64(samples)
		}
		pt.BytesPerSec = float64(r.bytes()-startBytes) / window.Seconds()
		pt.BytesPerRound = pt.BytesPerSec * sc.Interval.Seconds()
		out = append(out, pt)
	}
	return out
}
