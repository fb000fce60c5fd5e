package gossipsim

import (
	"time"

	"planetp/internal/directory"
	"planetp/internal/faultnet"
	"planetp/internal/simnet"
)

// FaultSpec is the network faults a run is under: which faults gossip
// must propagate through.
type FaultSpec struct {
	// Drop, Dup, Delay are per-message fault probabilities (see
	// faultnet.Config).
	Drop, Dup, Delay float64
	// DelayMin and DelayMax bound injected extra latency (defaults
	// 100 ms .. 2 s).
	DelayMin, DelayMax time.Duration
	// Partition, when set, splits the id space into two halves from
	// PartitionAt to HealAt (both relative to the settled community's
	// start). HealAt <= PartitionAt never heals within the run.
	Partition           bool
	PartitionAt, HealAt time.Duration
	// Seed determines the fault schedule (independent of the sim seed).
	Seed int64
}

// patience is how long past its last scripted event a run waits for
// convergence before giving up.
const patience = 6 * time.Hour

// run is one simulated experiment in progress, and the only way this
// package executes one: it builds the converged community on simnet, lets
// the tick phases settle, and owns the tracker, the byte baseline and the
// fault plan. Every exported experiment is a script of the actions below
// followed by a reducer from what the run observed to its result type.
// A script's order of actions is part of its result: simnet breaks
// same-instant ties by registration sequence, and every number is exact
// per seed.
type run struct {
	sc   Scenario
	s    *simnet.Sim
	tr   *tracker
	seed int64
	// n is the settled membership: ids [0, n).
	n int
	// start is virtual time once settled, the origin of every script
	// offset; base is the bytes sent by then.
	start time.Duration
	base  int64
	// lastAt is the latest instant scripted through at.
	lastAt time.Duration
	// plan is what inject mounted; side is its partition's cut.
	plan *faultnet.Plan
	side func(directory.PeerID) int
	// departed is when massDepart took each leaver off-line for good.
	departed map[directory.PeerID]time.Duration
	// onDrop, if set, hears every node's T_Dead collections.
	onDrop func(dropped []directory.PeerID, now time.Duration)
}

// newRun settles a converged community of n peers, each sharing a
// 20000-key filter (the paper's standing state), in an id space of
// capacity.
func newRun(sc Scenario, capacity, n int, seed int64) *run {
	r := &run{
		sc: sc, seed: seed, n: n,
		side:     faultnet.SplitHalves(capacity),
		departed: make(map[directory.PeerID]time.Duration),
	}
	cfg := sc.config()
	cfg.OnDrop = func(dropped []directory.PeerID, now time.Duration) {
		if r.onDrop != nil {
			r.onDrop(dropped, now)
		}
	}
	r.s = simnet.New(capacity, cfg, simnet.DefaultParams(), seed)
	simnet.BuildCommunity(r.s, n, sc.Profile, Diff1000Keys, Full20000Keys)
	// Let timers take their random phases, then settle accounting.
	r.s.Run(2 * time.Second)
	r.start, r.base = r.s.Now(), r.s.TotalBytes
	r.tr = newTracker(r.s)
	return r
}

// rand opens the seeded stream at the given offset from the run's seed.
func (r *run) rand(stream int64) *expRand { return newExpRand(r.seed + stream) }

// at scripts fn at offset past start.
func (r *run) at(offset time.Duration, fn func()) {
	r.lastAt = max(r.lastAt, r.start+offset)
	r.s.At(r.start+offset, fn)
}

// bytes is the aggregate volume sent since the community settled.
func (r *run) bytes() int64 { return r.s.TotalBytes - r.base }

// inject mounts the spec's fault plan for the rest of the run.
func (r *run) inject(f FaultSpec) {
	var parts []faultnet.Partition
	if f.Partition {
		parts = append(parts, faultnet.Partition{
			Name: "halves",
			At:   r.start + f.PartitionAt,
			Heal: r.start + f.HealAt,
			Side: r.side,
		})
	}
	r.plan = faultnet.New(faultnet.Config{
		Seed: f.Seed, Drop: f.Drop, Dup: f.Dup, Delay: f.Delay,
		DelayMin: f.DelayMin, DelayMax: f.DelayMax,
		Partitions: parts,
	}, r.sc.Metrics)
	r.s.SetFaults(r.plan)
}

// healRejoin scripts the mass rejoin a healing partition triggers: every
// on-line member of the upper half announces a fresh incarnation —
// fractionally after healAt, so the cut is down when the announcements
// start flowing.
func (r *run) healRejoin(healAt time.Duration) {
	r.at(healAt+time.Millisecond, func() {
		for _, p := range r.s.Peers() {
			if p.Online() && r.side(p.ID) == 1 {
				p.Node.Rejoin(0, int(p.Node.SelfRecord().PayloadSize))
			}
		}
	})
}

// massDepart scripts frac of the settled members leaving for good at
// offset, drawn from stream 211. Never peer 0: the flash-crowd bootstrap
// target and the conventional observer stays up.
func (r *run) massDepart(offset time.Duration, frac float64) {
	er := r.rand(211)
	r.at(offset, func() {
		perm := er.rng.Perm(r.n - 1)
		for _, v := range perm[:int(frac*float64(r.n))] {
			if p := r.s.Peers()[v+1]; p.Online() {
				p.GoOffline()
				r.departed[p.ID] = r.s.Now()
			}
		}
	})
}

// join adds the i-th newcomer now: a link speed striped from the
// scenario's profile, a 20000-key filter of which diff bytes are news, and
// one bootstrap contact. A label tracks the join to convergence.
func (r *run) join(i, diff int, contact directory.PeerID, label string) *simnet.Peer {
	p := r.s.AddPeer(speedFor(r.sc, i), diff, Full20000Keys, contact)
	if label != "" {
		r.watch(p, label, nil)
	}
	return p
}

// flashJoin adds m newcomers at once, each knowing exactly one settled
// member (round-robin) and sharing a filter that is entirely news.
func (r *run) flashJoin(m int, label string) []*simnet.Peer {
	joined := make([]*simnet.Peer, m)
	for i := range joined {
		joined[i] = r.join(i, Full20000Keys, directory.PeerID(i%r.n), label)
	}
	return joined
}

// watch tracks p's current record version until every on-line peer in
// inSet (nil = all) holds it.
func (r *run) watch(p *simnet.Peer, label string, inSet func(*simnet.Peer) bool) {
	r.tr.Watch(p.ID, p.Node.SelfRecord().Ver, label, simnet.Class(p.Speed), inSet)
}

// publish has p announce diff bytes of new keys on top of the standing
// filter; a label tracks the new version to convergence.
func (r *run) publish(p *simnet.Peer, diff int, label string) {
	p.Node.Publish(diff, Full20000Keys+diff)
	if label != "" {
		r.watch(p, label, nil)
	}
}

// cycle puts every settled member past the stable fraction on a Poisson
// life cycle for the rest of the run: on-line Exp(meanOn), off-line
// Exp(meanOff), dwell times drawn from er. rejoin brings the peer back
// (GoOnline) and is where a script counts or tracks the event.
func (r *run) cycle(er *expRand, stableFrac float64, meanOn, meanOff time.Duration, rejoin func(p *simnet.Peer)) {
	var live func(p *simnet.Peer)
	live = func(p *simnet.Peer) {
		r.s.After(er.exp(meanOn), func() {
			p.GoOffline()
			r.s.After(er.exp(meanOff), func() {
				rejoin(p)
				live(p)
			})
		})
	}
	for _, p := range r.s.Peers()[int(stableFrac*float64(r.n)):] {
		live(p)
	}
}

// sampleEvery runs the simulation to until, calling fn(t) at every
// multiple of every from now.
func (r *run) sampleEvery(every, until time.Duration, fn func(t time.Duration)) {
	for t := r.s.Now() + every; t <= until; t += every {
		r.s.At(t, func() { fn(t) })
	}
	r.s.Run(until)
}

// converge runs until the script has played out and every watched event
// has converged (and also, if given, holds), giving up wait after the
// later of now and the last scripted instant. Events still outstanding
// are then recorded as unconverged.
func (r *run) converge(wait time.Duration, also func() bool) bool {
	done := r.s.RunUntil(max(r.s.Now(), r.lastAt)+wait, func() bool {
		return r.s.Now() > r.lastAt && r.tr.Outstanding() == 0 && (also == nil || also())
	})
	r.tr.AbandonOutstanding()
	return done
}
