// Package gossipsim runs the paper's gossiping experiments (Section 7.2,
// Figures 2-5) and their fault, churn-storm and replication extensions on
// top of internal/simnet. Each experiment is a script on the one runner
// (run.go) — inject a Bloom-filter update, a mass join, Poisson arrivals,
// churn — plus a reducer from the run's per-event tracker and byte counts
// to its result type.
package gossipsim

import (
	"fmt"
	"sort"
	"time"

	"planetp/internal/directory"
	"planetp/internal/gossip"
	"planetp/internal/metrics"
	"planetp/internal/simnet"
)

// Table 2 Bloom filter wire sizes.
const (
	// Diff1000Keys is the compressed size of a 1000-key Bloom filter
	// diff (Table 2: 3000 bytes).
	Diff1000Keys = 3000
	// Full20000Keys is the compressed size of a 20000-key Bloom filter
	// (Table 2: 16000 bytes).
	Full20000Keys = 16000
)

// Scenario names a community/protocol configuration from the paper.
type Scenario struct {
	Name string
	// Profile assigns link speeds.
	Profile []simnet.MixFraction
	// Interval is the base gossip interval (T_g).
	Interval time.Duration
	// Mode selects rumoring vs the anti-entropy-only baseline.
	Mode gossip.Mode
	// BandwidthAware enables two-class target selection.
	BandwidthAware bool
	// Piggyback overrides the partial-anti-entropy count (0 = default
	// 10, -1 = disabled).
	Piggyback int
	// PullBatch caps anti-entropy pulls (0 = unlimited): the paper's
	// proposed accommodation for slow peers joining large communities.
	PullBatch int
	// TDead enables directory garbage collection: records continuously
	// off-line this long are dropped (0 = never).
	TDead time.Duration
	// DiscoverMin enables bootstrap discovery below this on-line count
	// (see gossip.Config.DiscoverMin).
	DiscoverMin int
	// Metrics, if non-nil, aggregates the run's protocol and wire
	// counters (gossip_* from every node, simnet_* from the simulator).
	// Use a fresh registry per run for per-run summaries.
	Metrics *metrics.Registry
}

// The paper's named scenarios.
var (
	// LAN: 45 Mb/s links, full PlanetP algorithm.
	LAN = Scenario{Name: "LAN", Profile: simnet.UniformProfile(simnet.LAN), Interval: 30 * time.Second}
	// LANAE: 45 Mb/s links, push anti-entropy only (Name Dropper/Bayou
	// style baseline).
	LANAE = Scenario{Name: "LAN-AE", Profile: simnet.UniformProfile(simnet.LAN), Interval: 30 * time.Second, Mode: gossip.ModeAEOnly}
	// LANNPA: LAN without the partial anti-entropy (Figure 4a ablation).
	LANNPA = Scenario{Name: "LAN-NPA", Profile: simnet.UniformProfile(simnet.LAN), Interval: 30 * time.Second, Piggyback: -1}
	// DSL10/30/60: 512 Kb/s links with 10/30/60 s gossip intervals.
	DSL10 = Scenario{Name: "DSL-10", Profile: simnet.UniformProfile(simnet.DSL), Interval: 10 * time.Second}
	DSL30 = Scenario{Name: "DSL-30", Profile: simnet.UniformProfile(simnet.DSL), Interval: 30 * time.Second}
	DSL60 = Scenario{Name: "DSL-60", Profile: simnet.UniformProfile(simnet.DSL), Interval: 60 * time.Second}
	// MIX: the Saroiu et al. Gnutella/Napster mixture with the
	// bandwidth-aware algorithm.
	MIX = Scenario{Name: "MIX", Profile: simnet.MixProfile(), Interval: 30 * time.Second, BandwidthAware: true}
	// STORM: the churn-storm acceptance configuration — LAN links with a
	// compressed 10 s gossip interval so a T_Dead GC sweep (every 16
	// rounds) lands every few simulated minutes instead of every few
	// hours. Storm specs layer TDead/DiscoverMin on top per scenario.
	STORM = Scenario{Name: "STORM", Profile: simnet.UniformProfile(simnet.LAN), Interval: 10 * time.Second}
)

// config builds the gossip.Config for a scenario.
func (sc Scenario) config() gossip.Config {
	return gossip.Config{
		BaseInterval:   sc.Interval,
		MaxInterval:    2 * sc.Interval,
		Mode:           sc.Mode,
		BandwidthAware: sc.BandwidthAware,
		PiggybackCount: sc.Piggyback,
		MaxPullBatch:   sc.PullBatch,
		TDead:          sc.TDead,
		DiscoverMin:    sc.DiscoverMin,
		Metrics:        sc.Metrics,
	}
}

// tracker measures per-event convergence: when has every on-line peer in
// the convergence set learned about a (peer, version) pair.
type tracker struct {
	sim    *simnet.Sim
	next   int
	events map[int]*trackedEvent
	// Results holds completed events.
	Results []EventResult
}

// EventResult records one tracked event's outcome.
type EventResult struct {
	// Start is when the event was injected.
	Start time.Duration
	// Elapsed is time-to-convergence; <0 if never converged within the
	// run.
	Elapsed time.Duration
	// Label tags the event (e.g. "join", "rejoin", "update").
	Label string
	// SourceClass is the class of the originating peer.
	SourceClass directory.Class
}

type trackedEvent struct {
	id        int
	peer      directory.PeerID
	ver       directory.Version
	start     time.Duration
	label     string
	srcClass  directory.Class
	inSet     func(p *simnet.Peer) bool
	known     []bool
	remaining int
}

// newTracker wires a tracker into the simulation's hooks.
func newTracker(s *simnet.Sim) *tracker {
	t := &tracker{sim: s, events: make(map[int]*trackedEvent)}
	s.AfterDeliver = func(to *simnet.Peer, _ directory.PeerID, _ *gossip.Message) {
		t.onDeliver(to)
	}
	s.OnOnlineChange = func(p *simnet.Peer, online bool) {
		t.onOnlineChange(p, online)
	}
	return t
}

// Watch starts tracking an event: the peer's record reaching version ver.
// inSet restricts the convergence set (nil = all peers).
func (t *tracker) Watch(peer directory.PeerID, ver directory.Version, label string, srcClass directory.Class, inSet func(p *simnet.Peer) bool) {
	ev := &trackedEvent{
		id: t.next, peer: peer, ver: ver,
		start: t.sim.Now(), label: label, srcClass: srcClass, inSet: inSet,
		known: make([]bool, len(t.sim.Peers())),
	}
	t.next++
	for _, p := range t.sim.Peers() {
		if ev.inSet != nil && !ev.inSet(p) {
			continue
		}
		if t.knows(p, ev) {
			ev.known[p.ID] = true
			continue
		}
		if p.Online() {
			ev.remaining++
		} else {
			// Off-line at event time: outside the convergence set;
			// tombstone so a post-rejoin delivery cannot decrement.
			ev.known[p.ID] = true
		}
	}
	if ev.remaining == 0 {
		t.Results = append(t.Results, EventResult{Start: ev.start, Elapsed: 0, Label: label, SourceClass: srcClass})
		return
	}
	t.events[ev.id] = ev
}

// knows reports whether p's directory holds ver (or newer) for the
// event's peer.
func (t *tracker) knows(p *simnet.Peer, ev *trackedEvent) bool {
	return !p.Node.Directory().VersionOf(ev.peer).Less(ev.ver)
}

func (t *tracker) onDeliver(to *simnet.Peer) {
	for id, ev := range t.events {
		if int(to.ID) < len(ev.known) && !ev.known[to.ID] &&
			(ev.inSet == nil || ev.inSet(to)) && t.knows(to, ev) {
			ev.known[to.ID] = true
			if to.Online() {
				ev.remaining--
				if ev.remaining == 0 {
					t.finish(id, ev)
				}
			}
		}
	}
}

func (t *tracker) onOnlineChange(p *simnet.Peer, online bool) {
	if online {
		// The convergence set is fixed at event time ("known to
		// everyone in the community", Section 7.2): a peer that was
		// off-line when the event fired catches up through its own
		// rejoin and is not part of this event's condition.
		return
	}
	for id, ev := range t.events {
		if ev.inSet != nil && !ev.inSet(p) {
			continue
		}
		if int(p.ID) >= len(ev.known) || ev.known[p.ID] {
			continue
		}
		// Left the community before learning: permanently out of this
		// event's set (tombstone so a later delivery cannot decrement
		// twice).
		ev.known[p.ID] = true
		ev.remaining--
		if ev.remaining == 0 {
			t.finish(id, ev)
		}
	}
}

func (t *tracker) finish(id int, ev *trackedEvent) {
	t.Results = append(t.Results, EventResult{
		Start:       ev.start,
		Elapsed:     t.sim.Now() - ev.start,
		Label:       ev.label,
		SourceClass: ev.srcClass,
	})
	delete(t.events, id)
}

// Outstanding returns how many watched events have not converged.
func (t *tracker) Outstanding() int { return len(t.events) }

// AbandonOutstanding records all unconverged events with Elapsed -1.
func (t *tracker) AbandonOutstanding() {
	for id, ev := range t.events {
		t.Results = append(t.Results, EventResult{
			Start: ev.start, Elapsed: -1, Label: ev.label, SourceClass: ev.srcClass,
		})
		delete(t.events, id)
	}
}

// PropagationPoint is one x-value of Figure 2: propagating a single
// 1000-key Bloom filter through a stable community of N peers.
type PropagationPoint struct {
	Scenario string
	N        int
	// Time is the propagation time (Figure 2a).
	Time time.Duration
	// Bytes is the aggregate network volume (Figure 2b).
	Bytes int64
	// PerPeerBW is the average per-peer bandwidth during propagation in
	// bytes/second (Figure 2c).
	PerPeerBW float64
}

// Propagation runs the Figure 2 experiment for one scenario and community
// size: a converged community, one peer publishes 1000 new keys, measure
// time/volume/bandwidth until everyone knows.
func Propagation(sc Scenario, n int, seed int64) PropagationPoint {
	r := newRun(sc, n, n, seed)
	r.publish(r.s.Peers()[0], Diff1000Keys, "update")
	r.converge(patience, nil)
	elapsed := r.tr.Results[len(r.tr.Results)-1].Elapsed
	if elapsed < 0 {
		elapsed = patience
	}
	perPeer := 0.0
	if elapsed > 0 {
		perPeer = float64(r.bytes()) / float64(n) / elapsed.Seconds()
	}
	return PropagationPoint{Scenario: sc.Name, N: n, Time: elapsed, Bytes: r.bytes(), PerPeerBW: perPeer}
}

// PropagationSweep runs Propagation over several community sizes.
func PropagationSweep(sc Scenario, sizes []int, seed int64) []PropagationPoint {
	out := make([]PropagationPoint, 0, len(sizes))
	for _, n := range sizes {
		out = append(out, Propagation(sc, n, seed+int64(n)))
	}
	return out
}

// JoinResult is one x-value of Figure 3: m peers joining a stable
// community of nBase peers, each sharing 20000 keys.
type JoinResult struct {
	Scenario string
	NBase    int
	Joiners  int
	// Time is until every member (old and new) has a consistent view:
	// all joins known everywhere and all joiners hold the full
	// directory.
	Time time.Duration
	// Bytes is the aggregate volume during the join storm.
	Bytes int64
	// Converged reports whether consistency was reached within the
	// horizon.
	Converged bool
}

// Join runs the Figure 3 experiment.
func Join(sc Scenario, nBase, joiners int, seed int64) JoinResult {
	total := nBase + joiners
	r := newRun(sc, total, nBase, seed)
	joined := r.flashJoin(joiners, "join")
	done := r.converge(patience, func() bool {
		for _, p := range joined {
			if p.Node.Directory().NumKnown() != total {
				return false
			}
		}
		return true
	})
	return JoinResult{
		Scenario: sc.Name, NBase: nBase, Joiners: joiners,
		Time: r.s.Now() - r.start, Bytes: r.bytes(), Converged: done,
	}
}

// speedFor deterministically assigns a joiner's link speed from the
// scenario profile.
func speedFor(sc Scenario, i int) simnet.LinkSpeed {
	// Largest-remainder style striping across the profile.
	x := float64(i%100) / 100.0
	acc := 0.0
	for _, mf := range sc.Profile {
		acc += mf.Frac
		if x < acc {
			return mf.Speed
		}
	}
	return sc.Profile[len(sc.Profile)-1].Speed
}

// CDF summarizes a set of convergence times.
type CDF struct {
	// Times are the sorted converged elapsed times.
	Times []time.Duration
	// Unconverged counts events that never converged.
	Unconverged int
}

// Percentile returns the p-th percentile (0..100) of converged times.
func (c CDF) Percentile(p float64) time.Duration {
	if len(c.Times) == 0 {
		return -1
	}
	idx := int(p / 100 * float64(len(c.Times)-1))
	if idx < 0 {
		idx = 0
	}
	if idx >= len(c.Times) {
		idx = len(c.Times) - 1
	}
	return c.Times[idx]
}

// Mean returns the mean of converged times.
func (c CDF) Mean() time.Duration {
	if len(c.Times) == 0 {
		return -1
	}
	var sum time.Duration
	for _, t := range c.Times {
		sum += t
	}
	return sum / time.Duration(len(c.Times))
}

// String renders the key percentiles.
func (c CDF) String() string {
	return fmt.Sprintf("n=%d p50=%v p90=%v p99=%v max=%v unconverged=%d",
		len(c.Times), c.Percentile(50), c.Percentile(90), c.Percentile(99),
		c.Percentile(100), c.Unconverged)
}

// cdfOf collects EventResults into a CDF, optionally filtered.
func cdfOf(results []EventResult, keep func(EventResult) bool) CDF {
	var c CDF
	for _, r := range results {
		if keep != nil && !keep(r) {
			continue
		}
		if r.Elapsed < 0 {
			c.Unconverged++
		} else {
			c.Times = append(c.Times, r.Elapsed)
		}
	}
	sort.Slice(c.Times, func(i, j int) bool { return c.Times[i] < c.Times[j] })
	return c
}

// ArrivalCDF runs the Figure 4a experiment: a stable community of nBase
// peers; arrivals new peers join one by one via a Poisson process with the
// given mean inter-arrival time; returns the convergence-time CDF of the
// join events.
func ArrivalCDF(sc Scenario, nBase, arrivals int, interarrival time.Duration, seed int64) CDF {
	r := newRun(sc, nBase+arrivals, nBase, seed)
	// Poisson arrivals: exponential gaps from stream 17.
	rng := r.rand(17)
	var at time.Duration
	for i := 0; i < arrivals; i++ {
		at += rng.exp(interarrival)
		r.at(at, func() {
			contact := directory.PeerID(int(seed+int64(i)) % nBase)
			if contact < 0 {
				contact = -contact
			}
			r.join(i, Diff1000Keys, contact, "join")
		})
	}
	r.converge(2*time.Hour, nil)
	return cdfOf(r.tr.Results, nil)
}
