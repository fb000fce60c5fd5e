package gossipsim

import (
	"fmt"
	"sort"
	"time"

	"planetp/internal/chash"
	"planetp/internal/directory"
	"planetp/internal/simnet"
)

// Replication availability experiment: how many fetch hits survive a
// membership storm as a function of the replication factor k.
//
// The simnet community gossips real directories but carries no real
// documents, so the content layer is modeled on top of it with the same
// rules internal/core uses:
//
//   - M documents with Zipf popularity (rank r has weight 1/(r+1));
//     owners are striped round-robin over the initial membership, and
//     the "hot decile" is the top M/10 ranks — for M = 10N every peer
//     owns exactly one hot-decile document, so a departure storm's
//     effect on the hot set is exact, not sampled.
//   - Placement is core's (chash.PeerRing, chash.ReplicaHolders): a
//     document's replica set is its owner plus the first extra(r)
//     successors of chash.Hash(key) on the brokerage ring, skipping the
//     owner.
//     extra(r) scales with popularity — the full k-1 through the hot
//     ranks, decaying toward zero with the Zipf tail — exactly the
//     TargetReplicas = score/HotScore shape of internal/replica.
//   - Hoarding repair runs once per gossip interval: every live holder
//     recomputes the desired replica set on the ring of ITS OWN
//     directory's on-line view and pushes missing copies. A push lands
//     only if the target is truly on-line and reachable (partition
//     sides), so repair speed is gated by how fast the gossiped
//     directory detects the storm — the coupling the experiment exists
//     to measure. Message drops slow that detection (they fault the
//     gossip layer); the model's own fetch/push RPCs retry within an
//     interval and are not dropped.
//   - Availability is judged from observer peer 0 (the anchor that never
//     departs): a document is available when at least one holder is
//     on-line and on the observer's side of any active partition —
//     core.ResolveDocument's failover tries every announced holder, so
//     one live replica suffices.
//
// Departed peers keep their disks (a rejoin serves again) but serve
// nothing while off-line; replicas are never garbage-collected during
// the run (the storm keeps hot documents hot).

// ReplicationSample is one measurement instant of a replication run.
type ReplicationSample struct {
	// T is seconds since the storm's start.
	T float64 `json:"t"`
	// Online is the ground-truth on-line population.
	Online int `json:"online"`
	// Availability is the unweighted fraction of documents with a live
	// reachable holder; HitAvailability weights by Zipf popularity (the
	// fraction of fetch attempts that would succeed); HotAvailability
	// restricts to the hot decile.
	Availability    float64 `json:"availability"`
	HitAvailability float64 `json:"hit_availability"`
	HotAvailability float64 `json:"hot_availability"`
	// Repairs is the cumulative count of successful repair pushes.
	Repairs int `json:"repairs"`
}

// ReplicationResult is one (storm, k) run's outcome.
type ReplicationResult struct {
	Name string `json:"name"`
	N    int    `json:"n"`
	K    int    `json:"k"`
	Docs int    `json:"docs"`
	// HotDocs is the hot-decile size (Docs/10).
	HotDocs int   `json:"hot_docs"`
	Seed    int64 `json:"seed"`
	// MinHotAvailability is the worst sampled hot-decile availability
	// (the storm's deepest dip); FinalHotAvailability is the last
	// sample's — what survives once repair has run its course.
	MinHotAvailability   float64 `json:"min_hot_availability"`
	FinalHotAvailability float64 `json:"final_hot_availability"`
	// FinalHitAvailability / FinalAvailability are the last sample's
	// popularity-weighted and unweighted fractions; MeanHitAvailability
	// averages the weighted fraction over all samples (the run-long
	// fetch success rate).
	FinalHitAvailability float64 `json:"final_hit_availability"`
	FinalAvailability    float64 `json:"final_availability"`
	MeanHitAvailability  float64 `json:"mean_hit_availability"`
	// LostDocs / LostHotDocs count documents whose every holder departed
	// — unrecoverable without a rejoin.
	LostDocs    int `json:"lost_docs"`
	LostHotDocs int `json:"lost_hot_docs"`
	// Repairs is the total number of successful repair pushes.
	Repairs int                 `json:"repairs"`
	Samples []ReplicationSample `json:"samples"`
}

// replicaModel is the analytic content layer: keys, owners, popularity
// ranks, per-document replica targets, and the evolving holder sets.
type replicaModel struct {
	n, k    int
	keys    []string
	owners  []directory.PeerID
	weights []float64
	// extra[i] is how many replicas beyond the owner document i wants.
	extra   []int
	holders []map[directory.PeerID]bool
	hotDocs int
	wSum    float64
}

// newReplicaModel builds the document population and its pre-storm
// placement on the converged full-membership ring.
func newReplicaModel(n, docs, k int) *replicaModel {
	m := &replicaModel{
		n: n, k: k,
		keys:    make([]string, docs),
		owners:  make([]directory.PeerID, docs),
		weights: make([]float64, docs),
		extra:   make([]int, docs),
		holders: make([]map[directory.PeerID]bool, docs),
		hotDocs: docs / 10,
	}
	all := make([]directory.PeerID, n)
	for i := range all {
		all[i] = directory.PeerID(i)
	}
	ring := chash.PeerRing(all)
	// extra(r) follows internal/replica's TargetReplicas shape: the
	// decile-boundary rank still earns the full k-1 extras, and the Zipf
	// tail decays below it (score ∝ weight, HotScore = the boundary
	// weight divided by k-1).
	boundary := 1.0 / float64(m.hotDocs)
	for i := 0; i < docs; i++ {
		m.keys[i] = fmt.Sprintf("doc-%05d", i)
		m.owners[i] = directory.PeerID(i % n)
		m.weights[i] = 1.0 / float64(i+1)
		m.wSum += m.weights[i]
		if k > 1 {
			score := m.weights[i] / boundary * float64(k-1)
			e := int(score)
			if e > k-1 {
				e = k - 1
			}
			m.extra[i] = e
		}
		m.holders[i] = map[directory.PeerID]bool{m.owners[i]: true}
		for _, h := range chash.ReplicaHolders(ring, m.keys[i], m.owners[i], m.extra[i]) {
			m.holders[i][h] = true
		}
	}
	return m
}

// sortedHolders returns a document's holder set in id order so repair
// and measurement iterate deterministically.
func (m *replicaModel) sortedHolders(i int) []directory.PeerID {
	out := make([]directory.PeerID, 0, len(m.holders[i]))
	for h := range m.holders[i] {
		out = append(out, h)
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// repair runs one hoarding tick: every live holder pushes copies toward
// the replica set it computes from its own directory view. Returns the
// number of successful pushes.
func (m *replicaModel) repair(s *simnet.Sim, reachable func(a, b directory.PeerID) bool) int {
	peers := s.Peers()
	pushed := 0
	for i := range m.keys {
		if m.extra[i] == 0 {
			continue
		}
		for _, h := range m.sortedHolders(i) {
			if !peers[h].Online() {
				continue
			}
			// The holder's ring is its own (possibly stale) view: pushes
			// aimed at peers it has not yet detected as departed simply
			// fail, so repair converges at directory speed.
			view := peers[h].Node.Directory().OnlineIDs()
			ring := chash.PeerRing(view)
			for _, d := range chash.ReplicaHolders(ring, m.keys[i], m.owners[i], m.extra[i]) {
				if m.holders[i][d] || int(d) >= len(peers) {
					continue
				}
				if !peers[d].Online() || !reachable(h, d) {
					continue
				}
				m.holders[i][d] = true
				pushed++
			}
		}
	}
	return pushed
}

// measure computes one availability sample from the observer.
func (m *replicaModel) measure(s *simnet.Sim, observer directory.PeerID, reachable func(a, b directory.PeerID) bool) ReplicationSample {
	peers := s.Peers()
	sm := ReplicationSample{Online: s.NumOnline()}
	availSum, hitSum, hot := 0, 0.0, 0
	for i := range m.keys {
		avail := false
		for _, h := range m.sortedHolders(i) {
			if peers[h].Online() && reachable(observer, h) {
				avail = true
				break
			}
		}
		if !avail {
			continue
		}
		availSum++
		hitSum += m.weights[i]
		if i < m.hotDocs {
			hot++
		}
	}
	sm.Availability = float64(availSum) / float64(len(m.keys))
	sm.HitAvailability = hitSum / m.wSum
	sm.HotAvailability = float64(hot) / float64(m.hotDocs)
	return sm
}

// Replication runs one storm at one replication factor. Deterministic
// for equal (sc, spec, docs, k, seed): departures reuse the churn-storm
// permutation stream, so the same peers leave as in Storm with the same
// seed.
func Replication(sc Scenario, spec StormSpec, docs, k int, seed int64) ReplicationResult {
	if spec.SampleEvery <= 0 {
		spec.SampleEvery = sc.Interval
	}
	res := ReplicationResult{
		Name: spec.Name, N: spec.N, K: k, Docs: docs, HotDocs: docs / 10, Seed: seed,
	}
	r, end := stormRun(sc, spec, seed)
	// reachable models the partition for the content RPCs (fetch and
	// repair pushes): while the split is in force only same-side pairs
	// connect. Probabilistic drops are left to the gossip layer — a
	// fetch retries within the user's patience, a push within the next
	// hoard tick.
	reachable := func(a, b directory.PeerID) bool {
		_, cut := r.plan.Partitioned(r.s.Now(), a, b)
		return !cut
	}
	m := newReplicaModel(spec.N, docs, k)
	repairs := 0
	r.sampleEvery(spec.SampleEvery, end, func(t time.Duration) {
		repairs += m.repair(r.s, reachable)
		sm := m.measure(r.s, 0, reachable)
		sm.T = (t - r.start).Seconds()
		sm.Repairs = repairs
		res.Samples = append(res.Samples, sm)
	})

	res.Repairs = repairs
	res.MinHotAvailability = 1
	var hitSum float64
	for _, sm := range res.Samples {
		if sm.HotAvailability < res.MinHotAvailability {
			res.MinHotAvailability = sm.HotAvailability
		}
		hitSum += sm.HitAvailability
	}
	if n := len(res.Samples); n > 0 {
		last := res.Samples[n-1]
		res.FinalHotAvailability = last.HotAvailability
		res.FinalHitAvailability = last.HitAvailability
		res.FinalAvailability = last.Availability
		res.MeanHitAvailability = hitSum / float64(n)
	}
	peers := r.s.Peers()
	for i := range m.keys {
		lost := true
		for h := range m.holders[i] {
			if peers[h].Online() {
				lost = false
				break
			}
		}
		if lost {
			res.LostDocs++
			if i < m.hotDocs {
				res.LostHotDocs++
			}
		}
	}
	return res
}

// ReplicationScenarios returns the two acceptance storms for a community
// of n peers on the STORM scenario: the 25%-departure / 25%-drop mass
// departure (does content die with its owners?) and the partition-heal
// split (does availability dip and fully recover?). Horizons cover
// failure detection plus several repair rounds; GC horizons are the
// churn storms' business, not this experiment's.
func ReplicationScenarios(n int) []StormSpec {
	iv := STORM.Interval
	tDead := 40 * iv
	return []StormSpec{
		{
			Name: "mass-departure", N: n, TDead: tDead,
			DepartFrac: 0.25, DepartAt: 0,
			Faults:  FaultSpec{Drop: 0.25, Seed: 42},
			Horizon: 60 * iv,
		},
		{
			Name: "partition-heal", N: n, TDead: tDead,
			Faults:  FaultSpec{Partition: true, HealAt: 20 * iv},
			Horizon: 60 * iv,
		},
	}
}
