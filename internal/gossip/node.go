package gossip

import (
	"math/rand"
	"sort"
	"sync"
	"time"

	"planetp/internal/directory"
	"planetp/internal/metrics"
)

// Env is the node's window to its runtime: a clock, a transport, and a
// source of randomness. The simulator provides virtual implementations;
// the live transport provides real ones.
type Env interface {
	// Now returns the current (possibly virtual) time.
	Now() time.Duration
	// Send transmits m to peer to. An error means the peer could not be
	// reached (the node marks it off-line, per Section 3).
	Send(to directory.PeerID, m *Message) error
	// Rand returns the node's random source. Must be stable across
	// calls (the node assumes a single stream).
	Rand() *rand.Rand
	// IntervalChanged notifies the driver that the node's desired
	// gossip interval changed (so a pending timer can be rescheduled —
	// the paper resets the interval to base immediately on news).
	IntervalChanged(d time.Duration)
}

// PeerExchanger is an optional Env extension: a synchronous peer-exchange
// RPC returning a bounded random sample of the target's known-on-line
// records. Envs that implement it enable Config.DiscoverMin bootstrap
// discovery — a joiner that knows only its seed pulls the rest of the
// membership in address-book-sized samples instead of waiting for rumors
// to find it.
type PeerExchanger interface {
	ExchangePeers(to directory.PeerID, max int) ([]directory.Record, error)
}

// failStreak is one peer's consecutive failed contacts and the address they
// were made against: failures describe a dead endpoint, so a peer whose
// record has since moved (a restarted incarnation on a new port) starts
// clean. Simulated peers have no address and never move.
type failStreak struct {
	fails int
	addr  string
}

// rumorState tracks one actively spread rumor.
type rumorState struct {
	ver directory.Version
	// consecKnown counts consecutive *distinct* contacts that already
	// knew the rumor; at rumorTTL the rumor retires. Repeated acks from
	// the same peer count once — Demers' rule is "contacts n peers in a
	// row", and a joiner that only knows its bootstrap contact yet must
	// not retire its own join announcement against it.
	consecKnown int
	lastAcker   directory.PeerID
	anyAck      bool
}

// nodeMetrics holds the node's registry instruments, resolved once at
// construction so the hot path is a single atomic add. All fields are
// nil (a no-op) when Config.Metrics is nil.
type nodeMetrics struct {
	rounds      *metrics.Counter
	rumorsSent  *metrics.Counter
	acksSent    *metrics.Counter
	aeRequests  *metrics.Counter
	aeSummaries *metrics.Counter
	pullsSent   *metrics.Counter
	recordsSent *metrics.Counter
	newsLearned *metrics.Counter
	retired     *metrics.Counter
	failedSends *metrics.Counter
	probesSent  *metrics.Counter
	suspected   *metrics.Counter
	gossipless  *metrics.Counter
	exchanges   *metrics.Counter
	exchangeRec *metrics.Counter
	dropped     *metrics.Counter
}

func newNodeMetrics(r *metrics.Registry) nodeMetrics {
	return nodeMetrics{
		rounds:      r.Counter("gossip_rounds_total"),
		rumorsSent:  r.Counter("gossip_rumors_sent_total"),
		acksSent:    r.Counter("gossip_acks_sent_total"),
		aeRequests:  r.Counter("gossip_ae_requests_total"),
		aeSummaries: r.Counter("gossip_ae_summaries_total"),
		pullsSent:   r.Counter("gossip_pulls_sent_total"),
		recordsSent: r.Counter("gossip_records_sent_total"),
		newsLearned: r.Counter("gossip_news_learned_total"),
		retired:     r.Counter("gossip_rumors_retired_total"),
		failedSends: r.Counter("gossip_failed_sends_total"),
		probesSent:  r.Counter("gossip_probes_sent_total"),
		suspected:   r.Counter("gossip_peers_suspected_total"),
		gossipless:  r.Counter("gossip_gossipless_contacts_total"),
		exchanges:   r.Counter("gossip_exchanges_total"),
		exchangeRec: r.Counter("gossip_exchange_records_total"),
		dropped:     r.Counter("gossip_records_dropped_total"),
	}
}

// Node is one peer's gossip engine. All methods are safe for concurrent
// use (the live transport delivers from multiple goroutines; the simulator
// is single-threaded).
type Node struct {
	mu   sync.Mutex
	id   directory.PeerID
	dir  *directory.Directory
	cfg  Config
	env  Env
	self directory.Record

	active  map[directory.PeerID]*rumorState
	retired []RumorID // most recent last; capped at PiggybackCount

	rounds     int
	interval   time.Duration
	gossipless int
	// pullInFlight gates record pulls: at most one outstanding pull at
	// a time, so a slow link does not accumulate duplicate multi-
	// megabyte responses for the same missing records while the first
	// is still in transit. Cleared when records arrive or after
	// pullTimeout.
	pullInFlight bool
	pullStarted  time.Duration
	// localFresh marks a locally originated rumor not yet pushed: a
	// slow peer sources its first push to a fast peer (Section 7.2).
	localFresh bool

	// sendFails holds each peer's streak of consecutive failed contacts,
	// from this node's sends and from any other layer's RPCs (NoteFailure);
	// reaching suspicionThreshold marks the peer off-line. Any
	// successful contact with — or message from — the peer clears its
	// streak, so a single transient failure does not exile a live peer.
	sendFails map[directory.PeerID]failStreak

	// payloads, when set, fills the Payload of every record about to leave
	// (see SetPayloads); n.self and the own directory row carry none.
	payloads func(to directory.PeerID, recs []directory.Record)

	m nodeMetrics
}

// NewNode creates a gossip node for the peer described by self. The
// self record is inserted into dir and becomes the node's first rumor
// (its join announcement).
func NewNode(self directory.Record, dir *directory.Directory, cfg Config, env Env) *Node {
	cfg = cfg.WithDefaults()
	if self.Ver.IsZero() {
		self.Ver = directory.Version{Epoch: 1, Seq: 0}
	}
	n := &Node{
		id:        self.ID,
		dir:       dir,
		cfg:       cfg,
		env:       env,
		self:      self,
		active:    make(map[directory.PeerID]*rumorState),
		sendFails: make(map[directory.PeerID]failStreak),
		interval:  cfg.BaseInterval,
		// A joining member's first round is anti-entropy: it downloads
		// the directory from its bootstrap contact before spreading its
		// own announcement (Section 7.2's join model), which also
		// ensures its first rumor pushes have real targets to pick
		// from.
		rounds: aeEvery - 1,
		m:      newNodeMetrics(cfg.Metrics),
	}
	dir.Upsert(self)
	n.activateLocked(RumorID{Peer: self.ID, Ver: self.Ver})
	n.localFresh = true
	return n
}

// ID returns the node's peer id.
func (n *Node) ID() directory.PeerID { return n.id }

// Directory returns the node's directory replica.
func (n *Node) Directory() *directory.Directory { return n.dir }

// Interval returns the node's current gossip interval.
func (n *Node) Interval() time.Duration {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.interval
}

// SelfRecord returns the node's current own record.
func (n *Node) SelfRecord() directory.Record {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.self
}

// SetPayloads makes fill the source of every outgoing record's Bloom-filter
// payload: each batch of records about to cross the wire to peer to — a
// rumor, the answer to a pull, OutgoingSelf (to is directory.None there) —
// is handed to fill, own and relayed records alike, which sets each one's
// Payload and PayloadSize for that target. What a target already holds
// decides what it is sent, and the own record's payload is built when it
// leaves, so it always covers the version it travels with. fill is called
// with the node's mutex not held. Set it before the node is driven; the
// simulator sets none and charges Publish's sizes.
func (n *Node) SetPayloads(fill func(to directory.PeerID, recs []directory.Record)) {
	n.payloads = fill
}

// stamp fills the payloads of recs, bound for to.
func (n *Node) stamp(to directory.PeerID, recs []directory.Record) {
	if n.payloads != nil && len(recs) > 0 {
		n.payloads(to, recs)
	}
}

// OutgoingSelf returns the own record as it leaves the node: SelfRecord
// plus the payload for a target whose holdings are unknown (the bootstrap
// reply).
func (n *Node) OutgoingSelf() directory.Record {
	recs := []directory.Record{n.SelfRecord()}
	n.stamp(directory.None, recs)
	return recs[0]
}

// ActiveRumors returns the number of rumors being spread.
func (n *Node) ActiveRumors() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.active)
}

// Publish announces a change to the node's own Bloom filter: Seq is
// bumped, sizes updated, and the new record becomes an active rumor.
// diffSize is the wire size of the filter diff (the rumor payload);
// payloadSize the full compressed filter — what the simulator charges;
// a live node passes 0: its payload source sizes each record as it leaves
// (SetPayloads), and what it carries depends on what the target holds.
func (n *Node) Publish(diffSize, payloadSize int) directory.Record {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.self.Ver.Seq++
	n.self.DiffSize = int32(diffSize)
	n.self.PayloadSize = int32(payloadSize)
	n.dir.Upsert(n.self)
	n.activateLocked(RumorID{Peer: n.id, Ver: n.self.Ver})
	n.localFresh = true
	n.resetIntervalLocked()
	return n.self
}

// Rejoin announces the node's return after an off-line period: Epoch is
// bumped (a new incarnation) so the announcement supersedes any version
// gossiped before. If the node also has new content, pass the new sizes;
// otherwise pass the previous ones with diffSize 0.
func (n *Node) Rejoin(diffSize, payloadSize int) directory.Record {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.self.Ver.Epoch++
	n.self.Ver.Seq = 0
	n.self.DiffSize = int32(diffSize)
	if payloadSize > 0 {
		n.self.PayloadSize = int32(payloadSize)
	}
	n.dir.Upsert(n.self)
	n.activateLocked(RumorID{Peer: n.id, Ver: n.self.Ver})
	n.localFresh = true
	n.resetIntervalLocked()
	return n.self
}

// Quiesce drops all active rumors and retired-rumor state, as if every
// rumor had been fully spread. Experiment harnesses use it to construct a
// converged, quiet community as a starting point.
func (n *Node) Quiesce() {
	n.mu.Lock()
	defer n.mu.Unlock()
	for id := range n.active {
		delete(n.active, id)
	}
	n.retired = n.retired[:0]
	n.localFresh = false
	n.rounds = 0 // an established member, not a fresh joiner
}

// activateLocked starts (or supersedes) the active rumor for id.Peer.
func (n *Node) activateLocked(id RumorID) {
	n.active[id.Peer] = &rumorState{ver: id.Ver}
}

// retireLocked stops spreading the rumor for peer and remembers it for
// piggybacking.
func (n *Node) retireLocked(peer directory.PeerID, ver directory.Version) {
	delete(n.active, peer)
	n.m.retired.Inc()
	if n.cfg.PiggybackCount <= 0 {
		return
	}
	n.retired = append(n.retired, RumorID{Peer: peer, Ver: ver})
	if len(n.retired) > n.cfg.PiggybackCount {
		n.retired = n.retired[len(n.retired)-n.cfg.PiggybackCount:]
	}
}

// tryStartPullLocked reports whether a new pull may be issued, marking it
// in flight. A stuck pull (responder died mid-transfer) expires after
// 20 base intervals.
func (n *Node) tryStartPullLocked() bool {
	now := n.env.Now()
	if n.pullInFlight && now-n.pullStarted < 20*n.cfg.BaseInterval {
		return false
	}
	n.pullInFlight = true
	n.pullStarted = now
	return true
}

// resetIntervalLocked snaps the gossip interval back to base (on news).
func (n *Node) resetIntervalLocked() {
	n.gossipless = 0
	if n.interval != n.cfg.BaseInterval {
		n.interval = n.cfg.BaseInterval
		n.env.IntervalChanged(n.interval)
	}
}

// gossiplessContactLocked records an identical-directory contact and
// applies the adaptive slow-down when the threshold is reached.
func (n *Node) gossiplessContactLocked() {
	n.m.gossipless.Inc()
	n.gossipless++
	if n.gossipless < gossiplessThreshold {
		return
	}
	n.gossipless = 0
	if n.interval < n.cfg.MaxInterval {
		n.interval += n.cfg.SlowdownStep
		if n.interval > n.cfg.MaxInterval {
			n.interval = n.cfg.MaxInterval
		}
		n.env.IntervalChanged(n.interval)
	}
}

// chooseTarget applies the bandwidth-aware selection rules of Section 7.2
// (or uniform selection when disabled).
func (n *Node) chooseTarget(doAE bool) (directory.PeerID, bool) {
	rng := n.env.Rand()
	notSelf := func(id directory.PeerID, _ directory.Entry) bool { return id != n.id }
	if !n.cfg.BandwidthAware {
		return n.dir.PickOnline(rng, notSelf)
	}
	classIs := func(c directory.Class) directory.PickFilter {
		return func(id directory.PeerID, e directory.Entry) bool {
			return id != n.id && e.Class == c
		}
	}
	var id directory.PeerID
	var ok bool
	if n.self.Class == directory.Fast {
		if doAE {
			// Fast anti-entropy always targets fast peers.
			id, ok = n.dir.PickOnline(rng, classIs(directory.Fast))
		} else if rng.Float64() < slowPeerProb {
			id, ok = n.dir.PickOnline(rng, classIs(directory.Slow))
		} else {
			id, ok = n.dir.PickOnline(rng, classIs(directory.Fast))
		}
	} else { // slow peer
		switch {
		case doAE:
			// Slow anti-entropy chooses uniformly.
			id, ok = n.dir.PickOnline(rng, notSelf)
		case n.localFresh:
			// Source of a rumor: initial push goes to a fast peer.
			id, ok = n.dir.PickOnline(rng, classIs(directory.Fast))
		default:
			id, ok = n.dir.PickOnline(rng, classIs(directory.Slow))
		}
	}
	if !ok {
		// Degenerate communities (e.g. no slow peers at all): fall back
		// to anyone rather than stalling.
		id, ok = n.dir.PickOnline(rng, notSelf)
	}
	return id, ok
}

// Tick runs one gossip round: pick a target and either push rumors or run
// an anti-entropy exchange. Drivers call it every Interval().
func (n *Node) Tick() {
	n.mu.Lock()
	n.rounds++
	n.m.rounds.Inc()
	var dropped []directory.PeerID
	if n.cfg.TDead > 0 && n.rounds%16 == 0 {
		dropped = n.dir.DropDead(n.cfg.TDead, n.env.Now())
		n.m.dropped.Add(int64(len(dropped)))
	}
	doAE := n.cfg.Mode == ModeAEOnly || len(n.active) == 0 || n.rounds%aeEvery == 0
	target, ok := n.chooseTarget(doAE)
	if !ok {
		// No reachable target — possibly everyone is suspected off-line
		// (a partition in force). Probing is the only way back.
		probe := n.rounds%probeEvery == 0
		n.mu.Unlock()
		n.notifyDrops(dropped)
		if probe {
			n.probeOffline()
		}
		n.discover()
		return
	}
	var msg *Message
	clearFresh := false
	if n.cfg.Mode == ModeAEOnly {
		// Push anti-entropy baseline: ship our whole summary unsolicited.
		msg = &Message{Type: MsgAESummary, From: n.id, Digest: n.dir.Digest()}
		msg.Summary, _, msg.NumKnown = n.dir.SummaryRange(0, n.dir.Capacity())
		n.m.aeSummaries.Inc()
	} else if doAE {
		msg = &Message{Type: MsgAERequest, From: n.id, Digest: n.dir.Digest()}
		n.m.aeRequests.Inc()
	} else {
		msg = &Message{Type: MsgRumor, From: n.id, Updates: n.activeUpdatesLocked()}
		n.m.rumorsSent.Inc()
		// The source of a rumor keeps aiming its initial push at a fast
		// peer until one is actually reached (Section 7.2); without
		// bandwidth awareness any push satisfies it. The flag clears
		// only after the push verifiably left (failed sends re-enqueue:
		// the rumors stay active and the source keeps sourcing).
		if !n.cfg.BandwidthAware {
			clearFresh = true
		} else if e, ok := n.dir.Entry(target); ok && e.Class == directory.Fast {
			clearFresh = true
		}
	}
	probe := n.rounds%probeEvery == 0
	n.mu.Unlock()
	n.notifyDrops(dropped)
	n.stamp(target, msg.Updates)

	if n.sendOrSuspect(target, msg) && clearFresh {
		n.mu.Lock()
		n.localFresh = false
		n.mu.Unlock()
	}
	if probe {
		n.probeOffline()
	}
	n.discover()
}

// notifyDrops fires the OnDrop hook (outside the node's lock) for records
// garbage-collected this round.
func (n *Node) notifyDrops(dropped []directory.PeerID) {
	if len(dropped) > 0 && n.cfg.OnDrop != nil {
		n.cfg.OnDrop(dropped, n.env.Now())
	}
}

// discover runs one bootstrap-discovery step: while the directory believes
// fewer than DiscoverMin peers (including self) are on-line and the Env
// supports peer exchange, pull a bounded random sample of known-on-line
// records from one contact and apply them like anti-entropy pulls. This is
// what lets a joiner that was given a single seed address assemble the
// whole membership in a few rounds instead of waiting for rumors and
// anti-entropy picks to stumble onto it.
func (n *Node) discover() {
	if n.cfg.DiscoverMin <= 0 || n.dir.NumOnline() >= n.cfg.DiscoverMin {
		return
	}
	ex, ok := n.env.(PeerExchanger)
	if !ok {
		return
	}
	notSelf := func(id directory.PeerID, _ directory.Entry) bool { return id != n.id }
	target, ok := n.dir.PickOnline(n.env.Rand(), notSelf)
	if !ok {
		return
	}
	n.m.exchanges.Inc()
	recs, err := ex.ExchangePeers(target, exchangeMax)
	if err != nil {
		n.NoteFailure(target)
		return
	}
	n.NoteContact(target)
	n.dir.MarkOnline(target)
	accepted := 0
	for i := range recs {
		if n.applyRecord(recs[i], false) {
			accepted++
		}
	}
	n.m.exchangeRec.Add(int64(accepted))
}

// probeOffline attempts to recontact one peer currently believed
// off-line. Failed-contact state is only a local opinion (Section 3); a
// live peer answers the anti-entropy request, and either direction of
// that exchange flips the opinion back. This is what re-merges a healed
// partition: both sides marked each other off-line while it stood, so
// without probing no one would ever pick a cross-partition target again.
func (n *Node) probeOffline() {
	target, ok := n.dir.PickOffline(n.env.Rand())
	if !ok {
		return
	}
	n.m.probesSent.Inc()
	// A failed probe carries no new suspicion — the peer is already
	// off-line — so this bypasses sendOrSuspect.
	_ = n.env.Send(target, &Message{Type: MsgAERequest, From: n.id, Digest: n.dir.Digest()})
}

// activeUpdatesLocked snapshots the active rumors as records, in sorted
// peer order for determinism.
func (n *Node) activeUpdatesLocked() []directory.Record {
	ids := make([]directory.PeerID, 0, len(n.active))
	for id := range n.active {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	ups := make([]directory.Record, 0, len(ids))
	for _, id := range ids {
		if rec, ok := n.dir.Get(id); ok {
			// Guard against the directory having advanced past the
			// rumor (shouldn't happen — activation tracks upserts).
			ups = append(ups, rec)
		}
	}
	return ups
}

// applyRecord upserts rec, returning true when it was news. Only records
// that arrive as rumors become active rumors at the receiver (Demers'
// rumor mongering); records learned through anti-entropy or partial-AE
// pulls are recorded without re-spreading — otherwise a joiner pulling
// the whole directory would re-rumor every record in it. Either way, any
// news resets the adaptive interval (Section 3).
func (n *Node) applyRecord(rec directory.Record, viaRumor bool) bool {
	if rec.ID == n.id {
		return false // no one knows more about us than we do
	}
	if !n.dir.Upsert(rec) {
		return false
	}
	n.m.newsLearned.Inc()
	n.mu.Lock()
	if viaRumor && n.cfg.Mode == ModeRumor {
		n.activateLocked(RumorID{Peer: rec.ID, Ver: rec.Ver})
	}
	n.resetIntervalLocked()
	n.mu.Unlock()
	if n.cfg.OnNews != nil {
		n.cfg.OnNews(rec)
	}
	return true
}

// Receive processes an incoming message. reply messages are sent through
// the Env.
func (n *Node) Receive(from directory.PeerID, m *Message) {
	// Hearing from a peer directly proves it is on-line — and absolves
	// any failure streak it had accumulated.
	n.dir.MarkOnline(from)
	n.NoteContact(from)
	switch m.Type {
	case MsgRumor:
		n.receiveRumor(from, m)
	case MsgRumorAck:
		n.receiveAck(from, m)
	case MsgPull:
		n.receivePull(from, m)
	case MsgRecords:
		n.mu.Lock()
		n.pullInFlight = false
		n.mu.Unlock()
		for i := range m.Updates {
			n.applyRecord(m.Updates[i], false)
		}
	case MsgAERequest:
		n.receiveAERequest(from, m)
	case MsgAESummary:
		n.receiveAESummary(from, m)
	}
}

func (n *Node) receiveRumor(from directory.PeerID, m *Message) {
	known := make([]bool, len(m.Updates))
	acked := make([]RumorID, len(m.Updates))
	for i := range m.Updates {
		rec := m.Updates[i]
		acked[i] = RumorID{Peer: rec.ID, Ver: rec.Ver}
		known[i] = !n.applyRecord(rec, true)
	}
	n.mu.Lock()
	ack := &Message{
		Type: MsgRumorAck, From: n.id,
		Acked: acked, Known: known,
		Recent: append([]RumorID(nil), n.retired...),
	}
	n.m.acksSent.Inc()
	n.mu.Unlock()
	n.sendOrSuspect(from, ack)
}

func (n *Node) receiveAck(from directory.PeerID, m *Message) {
	n.mu.Lock()
	for i := range m.Acked {
		id := m.Acked[i]
		st, ok := n.active[id.Peer]
		if !ok || st.ver != id.Ver {
			continue // superseded or already retired
		}
		if i < len(m.Known) && m.Known[i] {
			if st.anyAck && st.lastAcker == from {
				continue // same contact again: not a new "peer in a row"
			}
			st.anyAck = true
			st.lastAcker = from
			st.consecKnown++
			if st.consecKnown >= rumorTTL {
				n.retireLocked(id.Peer, id.Ver)
			}
		} else {
			st.consecKnown = 0
			st.anyAck = true
			st.lastAcker = from
		}
	}
	n.mu.Unlock()
	// Partial anti-entropy: pull anything the acker recently learned
	// that we have not.
	var need []directory.NeedEntry
	for _, rid := range m.Recent {
		if n.dir.VersionOf(rid.Peer).Less(rid.Ver) {
			need = append(need, directory.NeedEntry{ID: rid.Peer, Have: n.dir.VersionOf(rid.Peer)})
		}
	}
	if len(need) > 0 {
		n.Pull(from, need)
	}
}

func (n *Node) receivePull(from directory.PeerID, m *Message) {
	ups := make([]directory.Record, 0, len(m.Need))
	asDiff := make([]bool, 0, len(m.Need))
	for _, ne := range m.Need {
		rec, ok := n.dir.Get(ne.ID)
		if !ok {
			continue
		}
		// A requester exactly one Seq behind (same Epoch) can be served
		// with the last diff; anyone further behind needs the full
		// filter. Affects the simulator's wire accounting only: a live
		// node's payload source decides what each record carries.
		diffOK := ne.Have.Epoch == rec.Ver.Epoch && ne.Have.Seq+1 == rec.Ver.Seq
		ups = append(ups, rec)
		asDiff = append(asDiff, diffOK)
	}
	if len(ups) == 0 {
		return
	}
	n.m.recordsSent.Add(int64(len(ups)))
	n.stamp(from, ups)
	n.sendOrSuspect(from, &Message{Type: MsgRecords, From: n.id, Updates: ups, AsDiff: asDiff})
}

func (n *Node) receiveAERequest(from directory.PeerID, m *Message) {
	cursor := m.Cursor
	if cursor < 0 {
		cursor = 0
	}
	digest := n.dir.Digest()
	reply := &Message{Type: MsgAESummary, From: n.id, Digest: digest}
	switch {
	case cursor == 0 && digest == m.Digest:
		// Converged fast path — only valid at the start of a stream; a
		// continuation request means the exchange already found a
		// difference and must run to the end of the id space.
		reply.Identical = true
		reply.NumKnown = n.dir.NumKnown()
	default:
		// Streaming: answer one bounded chunk of the id space and tell
		// the requester where to continue. Neither side materializes the
		// full version vector.
		reply.Summary, reply.Next, reply.NumKnown = n.dir.SummaryRange(cursor, summaryChunk)
		reply.SummaryFrom = cursor // Next is directory.None (<= 0) when complete
	}
	n.m.aeSummaries.Inc()
	n.sendOrSuspect(from, reply)
}

func (n *Node) receiveAESummary(from directory.PeerID, m *Message) {
	if m.Identical || (m.SummaryFrom <= 0 && m.Digest == n.dir.Digest()) {
		// Identical directories: count a gossip-less contact if we had
		// nothing to rumor (Section 3's condition for slowing down). The
		// digest shortcut covers the whole remote directory, so it also
		// ends a just-started stream; mid-stream chunks (SummaryFrom > 0)
		// run to completion on their own cursor.
		n.mu.Lock()
		if len(n.active) == 0 {
			n.gossiplessContactLocked()
		}
		n.mu.Unlock()
		return
	}
	base := m.SummaryFrom
	if base < 0 {
		base = 0
	}
	need := n.dir.MissingRange(m.Summary, base)
	if m.Next > 0 {
		// Streaming continuation: ask for the next chunk before pulling
		// this one's records, so the stream advances even while a pull
		// is in flight.
		n.m.aeRequests.Inc()
		n.sendOrSuspect(from, &Message{
			Type: MsgAERequest, From: n.id,
			Digest: n.dir.Digest(), Cursor: m.Next,
		})
	}
	if len(need) == 0 {
		// We are strictly ahead on this span; nothing to pull. (The
		// remote will catch up through its own exchanges.)
		return
	}
	if n.cfg.MaxPullBatch > 0 && len(need) > n.cfg.MaxPullBatch {
		// Acquire the directory in pieces: the rest comes on later
		// exchanges (MissingRange is deterministic, so batches progress).
		need = need[:n.cfg.MaxPullBatch]
	}
	n.Pull(from, need)
}

// Pull asks to for the records in need, through the node's one pull gate:
// no pull leaves while another is in flight, and a reply (MsgRecords) opens
// the gate again.
func (n *Node) Pull(to directory.PeerID, need []directory.NeedEntry) {
	n.mu.Lock()
	ok := n.tryStartPullLocked()
	n.mu.Unlock()
	if !ok {
		return
	}
	n.m.pullsSent.Inc()
	if !n.sendOrSuspect(to, &Message{Type: MsgPull, From: n.id, Need: need}) {
		// The pull never left; release the gate so the next opportunity
		// can re-issue it instead of waiting out the in-flight timeout.
		n.mu.Lock()
		n.pullInFlight = false
		n.mu.Unlock()
	}
}

// sendOrSuspect sends m, reporting success; the outcome feeds the target's
// failure streak.
func (n *Node) sendOrSuspect(to directory.PeerID, m *Message) bool {
	if err := n.env.Send(to, m); err != nil {
		n.NoteFailure(to)
		return false
	}
	n.NoteContact(to)
	return true
}

// NoteFailure records one failed contact with peer to — a send of this
// node's, or an RPC some other layer addressed to it — and is the only place
// a peer is marked off-line: at suspicionThreshold consecutive failures, with
// no contact in between. The off-line mark is a local opinion (Section 3);
// probeOffline and any message from the peer revise it. A peer the
// directory does not know has no streak to keep, and its failure is not
// counted.
func (n *Node) NoteFailure(to directory.PeerID) {
	rec, known := n.dir.Get(to)
	if !known {
		return
	}
	n.mu.Lock()
	st := n.sendFails[to]
	if st.addr != rec.Addr {
		st = failStreak{addr: rec.Addr}
	}
	st.fails++
	mark := st.fails >= suspicionThreshold
	if mark {
		delete(n.sendFails, to)
	} else {
		n.sendFails[to] = st
	}
	n.mu.Unlock()
	n.m.failedSends.Inc()
	if mark {
		n.m.suspected.Inc()
		n.dir.MarkOffline(to, n.env.Now())
	}
}

// NoteContact records that peer to answered — a send it acknowledged, an RPC
// it replied to (an application-level refusal included), a message from it —
// and clears its failure streak.
func (n *Node) NoteContact(to directory.PeerID) {
	n.mu.Lock()
	if len(n.sendFails) > 0 {
		delete(n.sendFails, to)
	}
	n.mu.Unlock()
}
