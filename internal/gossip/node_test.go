package gossip

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"planetp/internal/directory"
	"planetp/internal/metrics"
)

// fakeNet is a synchronous in-memory message fabric for unit-testing Node
// logic: Send delivers immediately (recursively), which is fine for the
// request/reply shapes the protocol uses.
type fakeNet struct {
	nodes   map[directory.PeerID]*Node
	offline map[directory.PeerID]bool
	// failNext fails the next n sends to a peer (transient faults),
	// decrementing per attempt.
	failNext map[directory.PeerID]int
	now      time.Duration
	rng      *rand.Rand
	sent     []sentMsg
	drop     func(to directory.PeerID, m *Message) bool
	regs     map[directory.PeerID]*metrics.Registry
}

type sentMsg struct {
	from, to directory.PeerID
	msg      *Message
}

func newFakeNet(seed int64) *fakeNet {
	return &fakeNet{
		nodes:    make(map[directory.PeerID]*Node),
		offline:  make(map[directory.PeerID]bool),
		failNext: make(map[directory.PeerID]int),
		rng:      rand.New(rand.NewSource(seed)),
		regs:     make(map[directory.PeerID]*metrics.Registry),
	}
}

// env binds a fakeNet to one node id.
type fakeEnv struct {
	net *fakeNet
	id  directory.PeerID
}

func (e *fakeEnv) Now() time.Duration            { return e.net.now }
func (e *fakeEnv) Rand() *rand.Rand              { return e.net.rng }
func (e *fakeEnv) IntervalChanged(time.Duration) {}

func (e *fakeEnv) Send(to directory.PeerID, m *Message) error {
	if e.net.offline[to] {
		return errors.New("offline")
	}
	if e.net.failNext[to] > 0 {
		e.net.failNext[to]--
		return errors.New("transient failure")
	}
	if e.net.drop != nil && e.net.drop(to, m) {
		return nil // silently dropped (lost in transit)
	}
	e.net.sent = append(e.net.sent, sentMsg{from: e.id, to: to, msg: m})
	if n, ok := e.net.nodes[to]; ok {
		n.Receive(e.id, m)
	}
	return nil
}

func (f *fakeNet) addNode(id directory.PeerID, capacity int, cfg Config) *Node {
	rec := directory.Record{ID: id, Class: directory.Fast, DiffSize: 100, PayloadSize: 1000}
	dir := directory.New(id, capacity)
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.NewRegistry()
	}
	f.regs[id] = cfg.Metrics
	n := NewNode(rec, dir, cfg, &fakeEnv{net: f, id: id})
	f.nodes[id] = n
	return n
}

// count reads one of node id's gossip_* counters.
func (f *fakeNet) count(id directory.PeerID, name string) int64 {
	return f.regs[id].Snapshot().Get(name)
}

// summaryOf is n's whole directory as one unsolicited anti-entropy summary.
func summaryOf(n *Node) *Message {
	d := n.Directory()
	m := &Message{Type: MsgAESummary, From: n.ID(), Digest: d.Digest()}
	m.Summary, _, m.NumKnown = d.SummaryRange(0, d.Capacity())
	return m
}

// connect makes every node know every other's record and quiesces.
func (f *fakeNet) connect() {
	var recs []directory.Record
	for _, n := range f.nodes {
		recs = append(recs, n.SelfRecord())
	}
	for _, n := range f.nodes {
		for _, r := range recs {
			n.Directory().Upsert(r)
		}
		n.Quiesce()
	}
}

func TestNewNodeActivatesJoinRumor(t *testing.T) {
	f := newFakeNet(1)
	n := f.addNode(0, 4, Config{})
	if n.ActiveRumors() != 1 {
		t.Fatalf("ActiveRumors = %d, want 1 (join announcement)", n.ActiveRumors())
	}
	rec, ok := n.Directory().Get(0)
	if !ok || rec.Ver != (directory.Version{Epoch: 1, Seq: 0}) {
		t.Fatalf("self record = %+v %v", rec, ok)
	}
}

func TestRumorPropagatesAndAcks(t *testing.T) {
	f := newFakeNet(2)
	a := f.addNode(0, 4, Config{})
	b := f.addNode(1, 4, Config{})
	f.connect()

	a.Publish(300, 3000)
	if a.ActiveRumors() != 1 {
		t.Fatalf("publish did not activate rumor")
	}
	a.Tick() // only possible target is b
	if got := b.Directory().VersionOf(0); got != (directory.Version{Epoch: 1, Seq: 1}) {
		t.Fatalf("b's view of a = %v", got)
	}
	// b should now itself be spreading the rumor.
	if b.ActiveRumors() != 1 {
		t.Fatalf("b.ActiveRumors = %d, want 1", b.ActiveRumors())
	}
	// Repeated known-acks from the same peer must NOT retire the rumor
	// (Demers counts distinct "peers in a row").
	for i := 0; i < 10; i++ {
		a.Tick()
	}
	if a.ActiveRumors() != 1 {
		t.Fatalf("rumor retired against a single repeated contact: %d active", a.ActiveRumors())
	}
	// Three distinct already-knowing ackers do retire it.
	rid := RumorID{Peer: 0, Ver: directory.Version{Epoch: 1, Seq: 1}}
	// (b == peer 1 was the last acker, so start with other peers.)
	for _, from := range []directory.PeerID{2, 3, 1} {
		a.Receive(from, &Message{Type: MsgRumorAck, From: from,
			Acked: []RumorID{rid}, Known: []bool{true}})
	}
	if a.ActiveRumors() != 0 {
		t.Fatalf("rumor did not retire after 3 distinct known-acks: %d active", a.ActiveRumors())
	}
	if got := f.count(0, "gossip_rumors_retired_total"); got != 1 {
		t.Fatalf("retired %d rumors, want 1", got)
	}
}

func TestSupersededRumorReplaced(t *testing.T) {
	f := newFakeNet(3)
	a := f.addNode(0, 4, Config{})
	f.addNode(1, 4, Config{})
	f.connect()
	a.Publish(10, 100)
	a.Publish(20, 200)
	if a.ActiveRumors() != 1 {
		t.Fatalf("superseding publish should keep one active rumor, got %d", a.ActiveRumors())
	}
}

func TestAntiEntropyCuresResidual(t *testing.T) {
	f := newFakeNet(4)
	a := f.addNode(0, 8, Config{})
	b := f.addNode(1, 8, Config{})
	c := f.addNode(2, 8, Config{})
	f.connect()

	// a learns something new but never rumors to c.
	a.Publish(50, 500)
	// Deliver the rumor to b only, manually.
	b.Receive(0, &Message{Type: MsgRumor, From: 0, Updates: []directory.Record{mustGet(t, a, 0)}})
	if c.Directory().VersionOf(0).Seq != 0 {
		t.Fatal("c should not know yet")
	}
	// c runs an anti-entropy round against b: request -> summary -> pull
	// -> records, all synchronous in fakeNet.
	c.Receive(1, summaryOf(b))
	if got := c.Directory().VersionOf(0); got.Seq != 1 {
		t.Fatalf("anti-entropy did not cure residual: c's view = %v", got)
	}
}

func TestPartialAntiEntropyPull(t *testing.T) {
	f := newFakeNet(5)
	a := f.addNode(0, 8, Config{})
	b := f.addNode(1, 8, Config{})
	f.connect()

	// b learns and fully retires a rumor about peer 0's update without a
	// ever... construct directly: feed b a record for a newer version of
	// a fake peer record (peer id 2 known to both via connect? add it).
	rec := directory.Record{ID: 2, Ver: directory.Version{Epoch: 1, Seq: 5}, DiffSize: 10, PayloadSize: 100}
	b.Directory().Upsert(rec)
	b.mu.Lock()
	b.retireLocked(2, rec.Ver) // as if the rumor died at b
	b.mu.Unlock()

	// a sends b a rumor; b's ack piggybacks the retired id; a pulls.
	a.Publish(10, 100)
	a.Tick()
	if got := a.Directory().VersionOf(2); got != rec.Ver {
		t.Fatalf("partial anti-entropy failed: a's view of 2 = %v, want %v", got, rec.Ver)
	}
	if f.count(0, "gossip_pulls_sent_total") == 0 {
		t.Fatal("no pull was sent")
	}
}

func TestPiggybackDisabled(t *testing.T) {
	f := newFakeNet(6)
	cfg := Config{PiggybackCount: -1} // LAN-NPA ablation
	a := f.addNode(0, 8, cfg)
	b := f.addNode(1, 8, cfg)
	f.connect()
	rec := directory.Record{ID: 2, Ver: directory.Version{Epoch: 1, Seq: 5}}
	b.Directory().Upsert(rec)
	b.mu.Lock()
	b.retireLocked(2, rec.Ver)
	b.mu.Unlock()
	if len(b.retired) != 0 {
		t.Fatal("retired ring should stay empty when piggyback disabled")
	}
	a.Publish(10, 100)
	a.Tick()
	if a.Directory().VersionOf(2) == rec.Ver {
		t.Fatal("update leaked without partial anti-entropy")
	}
}

func TestAdaptiveIntervalSlowsAndResets(t *testing.T) {
	f := newFakeNet(7)
	a := f.addNode(0, 4, Config{})
	b := f.addNode(1, 4, Config{})
	f.connect()
	base := a.Interval()
	if base != 30*time.Second {
		t.Fatalf("base interval = %v", base)
	}
	// Converged: ticks are all AE (no rumors) and directories identical.
	// Two gossip-less contacts -> one slow-down step (+5s).
	for i := 0; i < 4; i++ {
		a.Tick()
	}
	if got := a.Interval(); got != 40*time.Second {
		t.Fatalf("after 4 identical AE contacts interval = %v, want 40s", got)
	}
	// Keep going: capped at MaxInterval.
	for i := 0; i < 40; i++ {
		a.Tick()
	}
	if got := a.Interval(); got != 60*time.Second {
		t.Fatalf("interval cap = %v, want 60s", got)
	}
	// News resets to base.
	b.Publish(10, 100)
	b.Tick()
	if got := a.Interval(); got != base {
		t.Fatalf("interval after news = %v, want %v", got, base)
	}
}

func TestOfflineDetectionOnSendFailure(t *testing.T) {
	f := newFakeNet(8)
	a := f.addNode(0, 4, Config{})
	f.addNode(1, 4, Config{})
	f.connect()
	f.offline[1] = true
	a.Publish(10, 100)
	// With the default suspicion threshold (2), the first failure only
	// opens a streak; the peer stays on-line.
	a.Tick()
	e, ok := a.Directory().Entry(1)
	if !ok || !e.Online {
		t.Fatalf("one failed send must not mark peer offline: %+v", e)
	}
	// The second consecutive failure crosses the threshold.
	a.Tick()
	e, _ = a.Directory().Entry(1)
	if e.Online {
		t.Fatalf("two failed sends should mark peer offline: %+v", e)
	}
	if got := f.count(0, "gossip_failed_sends_total"); got != 2 {
		t.Fatalf("failed sends = %d", got)
	}
	if got := f.count(0, "gossip_peers_suspected_total"); got != 1 {
		t.Fatalf("suspected = %d", got)
	}
	// Hearing from the peer again flips it back.
	f.offline[1] = false
	a.Receive(1, &Message{Type: MsgAERequest, From: 1, Digest: 0})
	e, _ = a.Directory().Entry(1)
	if !e.Online {
		t.Fatal("receive should mark peer online")
	}
}

// Regression for the one-strike flakiness the suspicion state machine
// replaces: a live peer that suffers a single transient dial failure must
// not be marked off-line, and must still receive the rumor when the next
// round retries it.
func TestTransientFailureSurvivedAndRumorRetried(t *testing.T) {
	f := newFakeNet(11)
	a := f.addNode(0, 4, Config{})
	b := f.addNode(1, 4, Config{})
	f.connect()

	rec := a.Publish(10, 100)
	f.failNext[1] = 1 // exactly one transient failure
	a.Tick()
	if e, _ := a.Directory().Entry(1); !e.Online {
		t.Fatal("peer exiled after one transient failure")
	}
	if got := b.Directory().VersionOf(0); !got.Less(rec.Ver) {
		t.Fatalf("rumor should not have arrived yet (got %v)", got)
	}
	if a.ActiveRumors() == 0 {
		t.Fatal("failed push must leave the rumor enqueued")
	}
	// Next round retries and delivers.
	a.Tick()
	if got := b.Directory().VersionOf(0); got != rec.Ver {
		t.Fatalf("rumor not delivered after retry: have %v, want %v", got, rec.Ver)
	}
	if e, _ := a.Directory().Entry(1); !e.Online {
		t.Fatal("peer should remain online after successful retry")
	}
}

func TestSuccessResetsSuspicionStreak(t *testing.T) {
	f := newFakeNet(12)
	a := f.addNode(0, 4, Config{})
	f.addNode(1, 4, Config{})
	f.connect()
	a.Publish(10, 100)
	// fail, succeed, fail: never two consecutive failures.
	f.failNext[1] = 1
	a.Tick()
	a.Tick()
	f.failNext[1] = 1
	a.Tick()
	if e, _ := a.Directory().Entry(1); !e.Online {
		t.Fatal("non-consecutive failures must not mark peer offline")
	}
	if got := f.count(0, "gossip_failed_sends_total"); got != 2 {
		t.Fatalf("failed sends = %d, want 2", got)
	}
}

// A failure reported against a peer the directory does not know (an id
// out of range, or one never heard of) keeps no streak and counts nothing:
// ids arrive from outside, and each would otherwise hold an entry forever.
func TestNoteFailureIgnoresUnknownPeers(t *testing.T) {
	f := newFakeNet(14)
	a := f.addNode(0, 4, Config{})
	f.addNode(1, 4, Config{})
	f.connect()
	for _, id := range []directory.PeerID{2, 3, 4, 1 << 20, -1} {
		a.NoteFailure(id)
	}
	a.mu.Lock()
	streaks := len(a.sendFails)
	a.mu.Unlock()
	if streaks != 0 {
		t.Fatalf("%d failure streaks kept for unknown peers, want 0", streaks)
	}
	if got := f.count(0, "gossip_failed_sends_total"); got != 0 {
		t.Fatalf("failed sends = %d, want 0", got)
	}
	// A known peer still takes its strikes.
	a.NoteFailure(1)
	if got := f.count(0, "gossip_failed_sends_total"); got != 1 {
		t.Fatalf("failed sends = %d after a strike on a known peer, want 1", got)
	}
}

// A failed pull send must release the pull-in-flight gate so the next
// opportunity can re-issue it, instead of silently dropping the pull and
// stalling partial anti-entropy for 20 base intervals.
func TestFailedPullReleasesInFlightGate(t *testing.T) {
	f := newFakeNet(13)
	a := f.addNode(0, 8, Config{})
	b := f.addNode(1, 8, Config{})
	c := f.addNode(2, 8, Config{})
	f.connect()

	// b learns a new version of c that a lacks.
	rec := c.Publish(10, 100)
	b.Directory().Upsert(rec)

	// a hears b's summary, tries to pull, but the send fails.
	f.failNext[1] = 1
	a.Receive(1, summaryOf(b))
	if got := f.count(0, "gossip_pulls_sent_total"); got != 1 {
		t.Fatalf("pulls sent = %d, want 1", got)
	}
	if a.Directory().VersionOf(2) == rec.Ver {
		t.Fatal("pull should have failed")
	}
	// A second summary must be able to pull immediately (gate released).
	a.Receive(1, summaryOf(b))
	if got := f.count(0, "gossip_pulls_sent_total"); got != 2 {
		t.Fatalf("pulls sent = %d, want 2 (gate not released)", got)
	}
	if got := a.Directory().VersionOf(2); got != rec.Ver {
		t.Fatalf("record not pulled after retry: %v", got)
	}
}

// Probing recovers peers wrongly believed off-line: after the suspicion
// threshold exiles an unreachable peer, a later probe round re-contacts
// it and the answer flips it back on-line.
func TestProbeRecoversOfflinePeer(t *testing.T) {
	f := newFakeNet(14)
	a := f.addNode(0, 4, Config{})
	f.addNode(1, 4, Config{})
	f.connect()

	a.Publish(10, 100)
	f.offline[1] = true
	a.Tick()
	a.Tick()
	if e, _ := a.Directory().Entry(1); e.Online {
		t.Fatal("setup: peer should be suspected offline")
	}
	// Peer comes back. Ticks continue; the 8th round probes it.
	f.offline[1] = false
	for i := 0; i < probeEvery-2; i++ {
		a.Tick()
	}
	if e, _ := a.Directory().Entry(1); !e.Online {
		t.Fatal("probe should have rediscovered the live peer")
	}
	if f.count(0, "gossip_probes_sent_total") == 0 {
		t.Fatal("no probes were sent")
	}
}

func TestRejoinSupersedes(t *testing.T) {
	f := newFakeNet(9)
	a := f.addNode(0, 4, Config{})
	b := f.addNode(1, 4, Config{})
	f.connect()
	a.Publish(10, 100) // ver 1.1
	rec := a.Rejoin(0, 0)
	if rec.Ver != (directory.Version{Epoch: 2, Seq: 0}) {
		t.Fatalf("rejoin version = %v", rec.Ver)
	}
	// Old version must lose to the rejoin announcement.
	b.Directory().Upsert(rec)
	if b.Directory().Upsert(directory.Record{ID: 0, Ver: directory.Version{Epoch: 1, Seq: 1}}) {
		t.Fatal("stale pre-rejoin record accepted")
	}
}

func TestAEOnlyModeNeverRumors(t *testing.T) {
	f := newFakeNet(10)
	cfg := Config{Mode: ModeAEOnly}
	a := f.addNode(0, 4, cfg)
	b := f.addNode(1, 4, cfg)
	f.connect()
	a.Publish(10, 100)
	for i := 0; i < 5; i++ {
		a.Tick()
	}
	if got := f.count(0, "gossip_rumors_sent_total"); got != 0 {
		t.Fatalf("AE-only node sent %d rumors", got)
	}
	if f.count(0, "gossip_ae_summaries_total") == 0 {
		t.Fatal("AE-only node sent no summaries")
	}
	// The push-AE still propagates the update (b pulls from a).
	if got := b.Directory().VersionOf(0); got.Seq != 1 {
		t.Fatalf("push AE did not propagate: %v", got)
	}
}

func TestSelfRecordImmuneToGossip(t *testing.T) {
	f := newFakeNet(11)
	a := f.addNode(0, 4, Config{})
	f.connect()
	// A (bogus) newer record about ourselves must be ignored.
	a.Receive(1, &Message{Type: MsgRecords, From: 1, Updates: []directory.Record{
		{ID: 0, Ver: directory.Version{Epoch: 99, Seq: 0}},
	}})
	if got := a.SelfRecord().Ver; got.Epoch != 1 {
		t.Fatalf("self record mutated: %v", got)
	}
}

func TestTDeadDropsLongOfflinePeers(t *testing.T) {
	f := newFakeNet(12)
	cfg := Config{TDead: time.Hour}
	a := f.addNode(0, 8, cfg)
	f.addNode(1, 8, cfg)
	f.connect()
	// Peer 1 goes silent; a discovers it via two failed sends.
	f.offline[1] = true
	a.Publish(10, 100)
	a.Tick()
	a.Tick()
	if e, _ := a.Directory().Entry(1); e.Online {
		t.Fatal("not marked offline")
	}
	// Within T_Dead the record survives the periodic sweep.
	f.now = 30 * time.Minute
	for i := 0; i < 20; i++ {
		a.Tick()
	}
	if _, ok := a.Directory().Get(1); !ok {
		t.Fatal("record dropped before T_Dead")
	}
	// Past T_Dead it is garbage collected (Section 3: assumed to have
	// left permanently).
	f.now = 2 * time.Hour
	for i := 0; i < 20; i++ {
		a.Tick()
	}
	if _, ok := a.Directory().Get(1); ok {
		t.Fatal("record survived past T_Dead")
	}
}

func TestWireSizes(t *testing.T) {
	s := DefaultSizes()
	rumor := &Message{Type: MsgRumor, Updates: []directory.Record{{DiffSize: 3000}}}
	if got := rumor.WireSize(s); got != 3+48+3000 {
		t.Fatalf("rumor size = %d", got)
	}
	ack := &Message{Type: MsgRumorAck,
		Acked: make([]RumorID, 2), Known: make([]bool, 2), Recent: make([]RumorID, 10)}
	if got := ack.WireSize(s); got != 3+1+2*6+10*6 {
		t.Fatalf("ack size = %d", got)
	}
	// The paper promises the piggyback is "in order of tens of bytes".
	if got := ack.WireSize(s) - 3 - 1 - 2*6; got > 100 {
		t.Fatalf("piggyback too big: %d", got)
	}
	summ := &Message{Type: MsgAESummary, NumKnown: 1000}
	if got := summ.WireSize(s); got != 3+8+1000*6 {
		t.Fatalf("summary size = %d (must be proportional to community)", got)
	}
	ident := &Message{Type: MsgAESummary, NumKnown: 1000, Identical: true}
	if got := ident.WireSize(s); got != 3+8 {
		t.Fatalf("identical summary size = %d (checksum-only)", got)
	}
	req := &Message{Type: MsgAERequest}
	if got := req.WireSize(s); got != 11 {
		t.Fatalf("request size = %d", got)
	}
	recs := &Message{Type: MsgRecords,
		Updates: []directory.Record{{DiffSize: 100, PayloadSize: 1000}, {DiffSize: 100, PayloadSize: 1000}},
		AsDiff:  []bool{true, false}}
	if got := recs.WireSize(s); got != 3+48+100+48+1000 {
		t.Fatalf("records size = %d", got)
	}
	pull := &Message{Type: MsgPull, Need: make([]directory.NeedEntry, 3)}
	if got := pull.WireSize(s); got != 3+18 {
		t.Fatalf("pull size = %d", got)
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.WithDefaults()
	if c.BaseInterval != 30*time.Second || c.MaxInterval != 60*time.Second ||
		c.SlowdownStep != 5*time.Second || c.PiggybackCount != 10 {
		t.Fatalf("defaults = %+v", c)
	}
	if c.Sizes != DefaultSizes() {
		t.Fatalf("sizes = %+v", c.Sizes)
	}
}

func TestMsgTypeString(t *testing.T) {
	for mt := MsgRumor; mt <= MsgAESummary; mt++ {
		if mt.String() == "unknown" {
			t.Fatalf("missing String for %d", mt)
		}
	}
	if MsgType(99).String() != "unknown" {
		t.Fatal("unknown type should say so")
	}
}

func mustGet(t *testing.T, n *Node, id directory.PeerID) directory.Record {
	t.Helper()
	rec, ok := n.Directory().Get(id)
	if !ok {
		t.Fatalf("record %d missing", id)
	}
	return rec
}

// TestSelfPayloadStampedWhenItLeaves: with a payload source set, the own
// record carries no payload inside the node — SelfRecord and the own
// directory row stay bare, and reading them never calls the source — and
// every batch that crosses the wire (a rumor that includes self, the answer
// to a pull for self, OutgoingSelf) is handed to the source with its
// target, so the own record carries the source's bytes as of that moment
// with PayloadSize equal to their length. Relayed records go through the
// same source (here it leaves them as they are), and the source runs with
// the node's mutex free.
func TestSelfPayloadStampedWhenItLeaves(t *testing.T) {
	f := newFakeNet(18)
	a := f.addNode(0, 4, Config{})
	b := f.addNode(1, 4, Config{})
	f.connect()

	filter, calls := []byte("v1"), 0
	var targets []directory.PeerID
	a.SetPayloads(func(to directory.PeerID, recs []directory.Record) {
		calls++
		targets = append(targets, to)
		a.Interval() // takes the node's mutex: deadlocks if the caller holds it
		for i := range recs {
			if recs[i].ID == 0 {
				recs[i].Payload = filter
				recs[i].PayloadSize = int32(len(filter))
			}
		}
	})
	// A third peer's record travels in a's rumors too, with a payload of
	// its own (off-line here, so a's rumor goes to b).
	other := directory.Record{ID: 2, Ver: directory.Version{Epoch: 1}, Payload: []byte("other"), PayloadSize: 5}
	a.Receive(1, &Message{Type: MsgRumor, From: 1, Updates: []directory.Record{other}})
	a.Directory().MarkOffline(2, 0)

	a.Publish(10, 0)
	if rec := a.SelfRecord(); rec.Payload != nil || calls != 0 {
		t.Fatalf("SelfRecord built a payload (%q, %d source calls)", rec.Payload, calls)
	}
	if p, _, ok := a.Directory().Payload(0); ok || p != nil {
		t.Fatalf("own directory row carries a payload: %q", p)
	}

	checkLeaving := func(what string, recs []directory.Record, want string) {
		t.Helper()
		seen := false
		for _, r := range recs {
			if int(r.PayloadSize) != len(r.Payload) {
				t.Errorf("%s: record %d left with PayloadSize %d and %d payload bytes", what, r.ID, r.PayloadSize, len(r.Payload))
			}
			if r.ID == 0 {
				seen = true
				if string(r.Payload) != want {
					t.Errorf("%s: own payload %q, want %q", what, r.Payload, want)
				}
			} else if string(r.Payload) != "other" {
				t.Errorf("%s: peer %d's payload rewritten to %q", what, r.ID, r.Payload)
			}
		}
		if !seen {
			t.Errorf("%s: own record did not leave", what)
		}
	}

	f.sent = nil
	a.Tick()
	if len(f.sent) == 0 || f.sent[0].msg.Type != MsgRumor {
		t.Fatalf("tick sent %v, want a rumor", f.sent)
	}
	checkLeaving("rumor", f.sent[0].msg.Updates, "v1")
	if got, _, ok := b.Directory().Payload(0); !ok || string(got) != "v1" {
		t.Fatalf("receiver stored %q for the rumored record", got)
	}

	// The payload is the source's at send time, not at Publish time.
	a.Publish(10, 0)
	filter = []byte("v2-longer")
	f.sent = nil
	a.Receive(1, &Message{Type: MsgPull, From: 1, Need: []directory.NeedEntry{{ID: 0}, {ID: 2}}})
	if len(f.sent) != 1 || f.sent[0].msg.Type != MsgRecords {
		t.Fatalf("pull answered with %v", f.sent)
	}
	checkLeaving("pull reply", f.sent[0].msg.Updates, "v2-longer")

	before := calls
	checkLeaving("bootstrap reply", []directory.Record{a.OutgoingSelf()}, "v2-longer")
	if calls != before+1 {
		t.Fatalf("OutgoingSelf called the source %d times", calls-before)
	}
	if want := []directory.PeerID{1, 1, directory.None}; !reflect.DeepEqual(targets, want) {
		t.Fatalf("source called for targets %v, want %v", targets, want)
	}

	// No source (the simulator): records leave exactly as Publish sized them.
	b.Publish(7, 700)
	if rec := b.OutgoingSelf(); rec.Payload != nil || rec.PayloadSize != 700 {
		t.Fatalf("sourceless node stamped its record: %+v", rec)
	}
}
