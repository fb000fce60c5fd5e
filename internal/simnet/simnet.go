// Package simnet is a deterministic discrete-event network simulator for
// PlanetP's gossiping experiments (Section 7.2). It models a community of
// peers with heterogeneous link speeds; message transfer time is
// store-and-forward through both endpoints' links (so a slow peer is slow
// both to send and to receive, and concurrent transfers serialize on each
// peer's link), plus a propagation latency and a per-message CPU cost
// (Table 2: 5 ms).
//
// Time is purely virtual; nothing in this package reads the wall clock,
// and every random choice comes from seeded generators, so runs are
// reproducible bit-for-bit.
package simnet

import (
	"container/heap"
	"fmt"
	"math/rand"
	"time"

	"planetp/internal/directory"
	"planetp/internal/faultnet"
	"planetp/internal/gossip"
	"planetp/internal/metrics"
)

// LinkSpeed is a link's bandwidth in bits per second.
type LinkSpeed float64

// The link classes used across the paper's experiments.
const (
	// Modem is 56 Kb/s dial-up.
	Modem LinkSpeed = 56e3
	// DSL is 512 Kb/s.
	DSL LinkSpeed = 512e3
	// Cable is 5 Mb/s.
	Cable LinkSpeed = 5e6
	// Eth10 is 10 Mb/s.
	Eth10 LinkSpeed = 10e6
	// LAN is 45 Mb/s (T3), the paper's "LAN" scenario.
	LAN LinkSpeed = 45e6
)

// Class maps a link speed to the bandwidth-aware gossiping class: Fast is
// 512 Kb/s or better (Section 7.2).
func Class(s LinkSpeed) directory.Class {
	if s >= DSL {
		return directory.Fast
	}
	return directory.Slow
}

// MixFraction is one slice of a heterogeneous community profile.
type MixFraction struct {
	Speed LinkSpeed
	Frac  float64
}

// MixProfile is the Gnutella/Napster-derived mixture the paper uses
// (measurements by Saroiu et al.): 9% modem, 21% DSL, 50% cable, 16%
// 10 Mb/s, 4% 45 Mb/s.
func MixProfile() []MixFraction {
	return []MixFraction{
		{Modem, 0.09}, {DSL, 0.21}, {Cable, 0.50}, {Eth10, 0.16}, {LAN, 0.04},
	}
}

// UniformProfile gives every peer the same speed.
func UniformProfile(s LinkSpeed) []MixFraction {
	return []MixFraction{{s, 1.0}}
}

// Params are the physical constants of the simulated network.
type Params struct {
	// CPUTime is the per-message processing cost (Table 2: 5 ms).
	CPUTime time.Duration
	// Latency is the one-way propagation delay added to every message.
	Latency time.Duration
	// SendBacklog defers a peer's gossip round while its own link still
	// has this much transmit queue (TCP backpressure on the sender).
	SendBacklog time.Duration
	// RecvBacklog makes sends to a peer whose link is backlogged this
	// far fail like a connection timeout; the sender then applies the
	// protocol's normal failed-contact handling (marks it off-line
	// until next heard from). This models an overloaded peer being
	// indistinguishable from a dead one.
	RecvBacklog time.Duration
}

// DefaultParams returns Table 2's constants with a modest WAN latency and
// backpressure thresholds of one/several gossip intervals.
func DefaultParams() Params {
	return Params{
		CPUTime: 5 * time.Millisecond, Latency: 40 * time.Millisecond,
		SendBacklog: 60 * time.Second, RecvBacklog: 150 * time.Second,
	}
}

// event is one scheduled callback.
type event struct {
	at  time.Duration
	seq uint64 // FIFO tiebreak for determinism
	fn  func()
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// Sim is the simulation engine plus the simulated community.
type Sim struct {
	now    time.Duration
	events eventHeap
	seq    uint64
	rng    *rand.Rand
	seed   int64

	params   Params
	cfg      gossip.Config
	capacity int
	peers    []*Peer

	// Accounting.
	TotalBytes  int64
	TotalMsgs   int64
	FailedSends int64
	bwTimeline  []int64 // bytes sent, bucketed per simulated second
	onlineCount int

	m simMetrics

	// faults, when set, injects drops/dups/delays/dial failures and
	// scripted partitions into every Send (see SetFaults).
	faults *faultnet.Plan

	// Hooks for experiment harnesses (may be nil).
	AfterDeliver   func(to *Peer, from directory.PeerID, m *gossip.Message)
	OnOnlineChange func(p *Peer, online bool)
}

// simMetrics holds the simulator's registry instruments, resolved from
// the gossip config's registry at New (all nil — a no-op — without one).
type simMetrics struct {
	bytes        *metrics.Counter
	msgs         *metrics.Counter
	failedSends  *metrics.Counter
	queueDelayMS *metrics.Histogram
}

// queueDelayBounds bucket per-message link queueing delay in ms.
var queueDelayBounds = []int64{1, 5, 10, 50, 100, 500, 1000, 5000, 10000, 60000}

func newSimMetrics(r *metrics.Registry) simMetrics {
	return simMetrics{
		bytes:        r.Counter("simnet_bytes_total"),
		msgs:         r.Counter("simnet_msgs_total"),
		failedSends:  r.Counter("simnet_failed_sends_total"),
		queueDelayMS: r.Histogram("simnet_queue_delay_ms", queueDelayBounds),
	}
}

// New creates a simulation with the given community capacity (id space),
// gossip configuration, physical parameters, and seed. Peers are added
// with AddPeer. If cfg.Metrics is set, the simulator publishes its wire
// accounting (simnet_* names) to the same registry the nodes use.
func New(capacity int, cfg gossip.Config, params Params, seed int64) *Sim {
	cfg = cfg.WithDefaults() // the sim charges WireSize with these Sizes
	return &Sim{
		rng:      rand.New(rand.NewSource(seed)),
		seed:     seed,
		params:   params,
		cfg:      cfg,
		capacity: capacity,
		peers:    make([]*Peer, 0, capacity),
		m:        newSimMetrics(cfg.Metrics),
	}
}

// Now returns the current virtual time.
func (s *Sim) Now() time.Duration { return s.now }

// SetFaults mounts a fault-injection plan: every subsequent Send consults
// it for drops, duplicates, delays, dial failures, and partitions. The
// plan's own seed governs the fault schedule, so the same (sim seed,
// fault seed) pair reproduces a run exactly. Nil unmounts.
func (s *Sim) SetFaults(plan *faultnet.Plan) { s.faults = plan }

// Peers returns the community (index = PeerID).
func (s *Sim) Peers() []*Peer { return s.peers }

// NumOnline returns how many peers are currently on-line.
func (s *Sim) NumOnline() int { return s.onlineCount }

// At schedules fn at absolute virtual time t (clamped to now).
func (s *Sim) At(t time.Duration, fn func()) {
	if t < s.now {
		t = s.now
	}
	s.seq++
	heap.Push(&s.events, &event{at: t, seq: s.seq, fn: fn})
}

// After schedules fn after d.
func (s *Sim) After(d time.Duration, fn func()) { s.At(s.now+d, fn) }

// Run processes events until the horizon (inclusive) or until the event
// queue drains. It returns the number of events processed.
func (s *Sim) Run(until time.Duration) int {
	n := 0
	for len(s.events) > 0 {
		e := s.events[0]
		if e.at > until {
			break
		}
		heap.Pop(&s.events)
		s.now = e.at
		e.fn()
		n++
	}
	if s.now < until {
		s.now = until
	}
	return n
}

// RunUntil processes events until pred returns true (checked after each
// event) or the horizon passes. It reports whether pred was satisfied.
func (s *Sim) RunUntil(until time.Duration, pred func() bool) bool {
	if pred() {
		return true
	}
	for len(s.events) > 0 {
		e := s.events[0]
		if e.at > until {
			break
		}
		heap.Pop(&s.events)
		s.now = e.at
		e.fn()
		if pred() {
			return true
		}
	}
	return false
}

// BandwidthTimeline returns bytes sent per simulated second.
func (s *Sim) BandwidthTimeline() []int64 { return s.bwTimeline }

// accountBytes charges n bytes at the current time.
func (s *Sim) accountBytes(p *Peer, n int) {
	s.TotalBytes += int64(n)
	s.TotalMsgs++
	s.m.bytes.Add(int64(n))
	s.m.msgs.Inc()
	p.BytesSent += int64(n)
	sec := int(s.now / time.Second)
	for len(s.bwTimeline) <= sec {
		s.bwTimeline = append(s.bwTimeline, 0)
	}
	s.bwTimeline[sec] += int64(n)
}

// Peer is one simulated community member. It implements gossip.Env for
// its Node.
type Peer struct {
	sim   *Sim
	ID    directory.PeerID
	Node  *gossip.Node
	Speed LinkSpeed
	rng   *rand.Rand

	online bool
	// linkBusyUntil serializes transfers through this peer's access
	// link (used for both directions — a simple half-duplex model).
	linkBusyUntil time.Duration

	// tickGen invalidates stale scheduled ticks after interval changes
	// or off-line transitions.
	tickGen    uint64
	nextTickAt time.Duration

	BytesSent int64
	BytesRecv int64

	// OnlineSince is when the peer last came on-line.
	OnlineSince time.Duration
}

// errOffline is returned by Send for unreachable targets.
type errOffline struct{ id directory.PeerID }

func (e errOffline) Error() string { return fmt.Sprintf("simnet: peer %d offline", e.id) }

// AddPeer creates a peer with the given link speed, whose directory is
// seeded with the records of the peers in seeds (its bootstrap contacts);
// the peer starts on-line and gossiping. diffSize/payloadSize describe its
// initial Bloom filter (Table 2 wire sizes).
func (s *Sim) AddPeer(speed LinkSpeed, diffSize, payloadSize int, seeds ...directory.PeerID) *Peer {
	if len(s.peers) >= s.capacity {
		panic("simnet: community capacity exceeded")
	}
	id := directory.PeerID(len(s.peers))
	p := &Peer{
		sim:   s,
		ID:    id,
		Speed: speed,
		rng:   rand.New(rand.NewSource(s.seed ^ (int64(id)+1)*int64(0x9e3779b97f4a7c15&0x7fffffffffffffff))),
	}
	rec := directory.Record{
		ID: id, Ver: directory.Version{Epoch: 1},
		Class:       Class(speed),
		DiffSize:    int32(diffSize),
		PayloadSize: int32(payloadSize),
	}
	dir := directory.New(id, s.capacity)
	p.Node = gossip.NewNode(rec, dir, s.cfg, p)
	s.peers = append(s.peers, p)
	for _, seed := range seeds {
		if rec, ok := s.peers[seed].Node.Directory().Get(s.peers[seed].ID); ok {
			dir.Upsert(rec)
		}
	}
	p.online = true
	p.OnlineSince = s.now
	s.onlineCount++
	// First tick at a random phase to avoid lock-step rounds.
	p.scheduleTick(time.Duration(p.rng.Int63n(int64(p.Node.Interval()))))
	return p
}

// Online reports whether the peer is currently on-line.
func (p *Peer) Online() bool { return p.online }

// GoOffline takes the peer off-line: pending ticks are cancelled and
// messages to it fail. Its node state (including its own record version)
// is retained for rejoin.
func (p *Peer) GoOffline() {
	if !p.online {
		return
	}
	p.online = false
	p.tickGen++
	p.sim.onlineCount--
	if p.sim.OnOnlineChange != nil {
		p.sim.OnOnlineChange(p, false)
	}
}

// Restart models a full process restart from durable storage: unlike
// GoOnline (which keeps the node's in-memory state), the peer comes back
// with a FRESH gossip node and directory — everything it knew about the
// community is gone, rebuilt only from the given bootstrap seeds. The
// caller supplies the epoch recovered from disk (already bumped past the
// dead incarnation); the new node announces itself like a joiner, so the
// community's records of the old incarnation are superseded by epoch
// ordering. The peer must be off-line when Restart is called.
func (p *Peer) Restart(epoch uint32, diffSize, payloadSize int, seeds ...directory.PeerID) {
	if p.online {
		panic("simnet: Restart on an on-line peer")
	}
	s := p.sim
	rec := directory.Record{
		ID: p.ID, Ver: directory.Version{Epoch: epoch},
		Class:       Class(p.Speed),
		DiffSize:    int32(diffSize),
		PayloadSize: int32(payloadSize),
	}
	dir := directory.New(p.ID, s.capacity)
	for _, seed := range seeds {
		if srec, ok := s.peers[seed].Node.Directory().Get(s.peers[seed].ID); ok {
			dir.Upsert(srec)
		}
	}
	p.Node = gossip.NewNode(rec, dir, s.cfg, p)
	p.online = true
	p.OnlineSince = s.now
	p.linkBusyUntil = s.now
	s.onlineCount++
	if s.OnOnlineChange != nil {
		s.OnOnlineChange(p, true)
	}
	p.scheduleTick(time.Duration(p.rng.Int63n(int64(time.Second))))
}

// GoOnline brings the peer back, announcing a rejoin (Epoch bump). If the
// peer returns with new content, diffSize > 0 carries the new diff size.
func (p *Peer) GoOnline(diffSize int) {
	if p.online {
		return
	}
	p.online = true
	p.OnlineSince = p.sim.now
	p.sim.onlineCount++
	p.Node.Rejoin(diffSize, int(p.Node.SelfRecord().PayloadSize))
	if p.sim.OnOnlineChange != nil {
		p.sim.OnOnlineChange(p, true)
	}
	p.scheduleTick(time.Duration(p.rng.Int63n(int64(time.Second))))
}

// scheduleTick arms the next gossip round after d.
func (p *Peer) scheduleTick(d time.Duration) {
	p.tickGen++
	gen := p.tickGen
	p.nextTickAt = p.sim.now + d
	p.sim.After(d, func() {
		if gen != p.tickGen || !p.online {
			return
		}
		// Sender-side backpressure: while this peer's link has a deep
		// transmit queue, defer the round until it drains — a real
		// TCP sender would be stalled anyway.
		if bl := p.sim.params.SendBacklog; bl > 0 && p.linkBusyUntil > p.sim.now+bl {
			p.scheduleTick(p.linkBusyUntil - p.sim.now)
			return
		}
		p.Node.Tick()
		if p.online { // Tick may have discovered us alone; stay armed
			p.scheduleTick(p.Node.Interval())
		}
	})
}

// --- gossip.Env implementation ---

// Now implements gossip.Env.
func (p *Peer) Now() time.Duration { return p.sim.now }

// Rand implements gossip.Env.
func (p *Peer) Rand() *rand.Rand { return p.rng }

// IntervalChanged implements gossip.Env: if the node's interval shrank
// (news arrived), pull the pending tick earlier.
func (p *Peer) IntervalChanged(d time.Duration) {
	if !p.online {
		return
	}
	want := p.sim.now + d
	if want < p.nextTickAt {
		p.scheduleTick(d)
	}
}

// Send implements gossip.Env: transfer m to peer `to` through both access
// links, delivering after the store-and-forward time, latency, and CPU
// cost. Sending to an off-line peer fails immediately (modeling the
// failed-connect detection of Section 3).
func (p *Peer) Send(to directory.PeerID, m *gossip.Message) error {
	s := p.sim
	if int(to) < 0 || int(to) >= len(s.peers) {
		return errOffline{to}
	}
	target := s.peers[to]
	if !target.online {
		s.FailedSends++
		s.m.failedSends.Inc()
		return errOffline{to}
	}
	// Receiver-side overload: a peer whose link queue is hopelessly deep
	// times out connections, which the sender cannot distinguish from
	// the peer being dead (it will be marked off-line until next heard
	// from).
	if bl := s.params.RecvBacklog; bl > 0 && target.linkBusyUntil > s.now+bl {
		s.FailedSends++
		s.m.failedSends.Inc()
		return errOffline{to}
	}
	// Injected faults: partitions and dial failures error at the sender
	// (exactly like a dead peer); drops, delays, and duplicates are
	// decided now and applied below.
	var fate faultnet.Fate
	if s.faults != nil {
		fate = s.faults.Fate(s.now, p.ID, to)
		if fate.Failed() {
			s.FailedSends++
			s.m.failedSends.Inc()
			return errOffline{to}
		}
	}
	size := m.WireSize(s.cfg.Sizes)
	s.accountBytes(p, size)
	target.BytesRecv += int64(size)

	bits := float64(size * 8)
	sendStart := maxDur(s.now, p.linkBusyUntil)
	sendDone := sendStart + time.Duration(bits/float64(p.Speed)*float64(time.Second))
	p.linkBusyUntil = sendDone
	arrive := sendDone + s.params.Latency
	recvStart := maxDur(arrive, target.linkBusyUntil)
	recvDone := recvStart + time.Duration(bits/float64(target.Speed)*float64(time.Second))
	target.linkBusyUntil = recvDone
	deliverAt := recvDone + s.params.CPUTime
	// Queueing delay: time the message spent waiting for either access
	// link, beyond pure transmission + propagation.
	queued := (sendStart - s.now) + (recvStart - arrive)
	s.m.queueDelayMS.Observe(queued.Milliseconds())

	// An injected drop is a silent loss: the sender transmitted (bytes
	// and link time are charged) but nothing arrives.
	if fate.Drop {
		return nil
	}
	deliverAt += fate.Delay

	from := p.ID
	deliver := func() {
		if !target.online {
			return // went off-line in flight; message lost
		}
		target.Node.Receive(from, m)
		if s.AfterDeliver != nil {
			s.AfterDeliver(target, from, m)
		}
	}
	s.At(deliverAt, deliver)
	if fate.Dup {
		s.At(deliverAt+fate.DupDelay, deliver)
	}
	return nil
}

// ExchangePeers implements gossip.PeerExchanger: a synchronous
// peer-exchange RPC against target `to`, returning a bounded random
// sample of its known-on-line records. Unlike Send, delivery is immediate
// — the exchange is a small request/response an order of magnitude
// shorter than a gossip interval, so modeling its transfer time buys
// nothing — but the request and reply bytes are still charged to both
// links (request ≈ one header + one compact entry; reply ≈ one record
// summary per sample). Fault plans apply: a partition or dial failure
// errors at the sender, a drop loses the reply.
func (p *Peer) ExchangePeers(to directory.PeerID, max int) ([]directory.Record, error) {
	s := p.sim
	if int(to) < 0 || int(to) >= len(s.peers) {
		return nil, errOffline{to}
	}
	target := s.peers[to]
	if !target.online {
		s.FailedSends++
		s.m.failedSends.Inc()
		return nil, errOffline{to}
	}
	if s.faults != nil {
		fate := s.faults.Fate(s.now, p.ID, to)
		if fate.Failed() || fate.Drop {
			s.FailedSends++
			s.m.failedSends.Inc()
			return nil, errOffline{to}
		}
	}
	sz := s.cfg.Sizes
	s.accountBytes(p, sz.Header+sz.BFSummary)
	target.BytesRecv += int64(sz.Header + sz.BFSummary)
	recs := target.Node.Directory().SampleOnline(target.rng, max)
	reply := sz.Header + len(recs)*sz.PeerSummary
	s.accountBytes(target, reply)
	p.BytesRecv += int64(reply)
	return recs, nil
}

func maxDur(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}

// BuildCommunity constructs a stable community of n peers drawn from the
// profile, each sharing an initial filter with the given wire sizes, all
// mutually known (a converged starting point for experiments). Speeds are
// assigned deterministically from the profile fractions (largest
// remainder), then shuffled.
func BuildCommunity(s *Sim, n int, profile []MixFraction, diffSize, payloadSize int) {
	speeds := make([]LinkSpeed, 0, n)
	assigned := 0
	for i, mf := range profile {
		cnt := int(mf.Frac*float64(n) + 0.5)
		if i == len(profile)-1 {
			cnt = n - assigned
		}
		if assigned+cnt > n {
			cnt = n - assigned
		}
		for j := 0; j < cnt; j++ {
			speeds = append(speeds, mf.Speed)
		}
		assigned += cnt
	}
	for len(speeds) < n {
		speeds = append(speeds, profile[len(profile)-1].Speed)
	}
	s.rng.Shuffle(len(speeds), func(i, j int) { speeds[i], speeds[j] = speeds[j], speeds[i] })
	for i := 0; i < n; i++ {
		s.AddPeer(speeds[i], diffSize, payloadSize)
	}
	// Converged start: every peer knows every record.
	records := make([]directory.Record, n)
	for i, p := range s.peers[:n] {
		records[i] = p.Node.SelfRecord()
	}
	for _, p := range s.peers[:n] {
		dir := p.Node.Directory()
		for _, rec := range records {
			dir.Upsert(rec)
		}
		// The community starts quiet: join rumors are considered fully
		// spread, so an experiment measures only the events it injects.
		p.Node.Quiesce()
	}
}
