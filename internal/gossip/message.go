// Package gossip implements PlanetP's gossiping algorithm (Section 3): a
// combination of push rumor mongering, periodic pull anti-entropy, and the
// paper's novel partial anti-entropy (rumor-ack piggybacking), with the
// dynamically adaptive gossip interval and the bandwidth-aware two-class
// target selection of Section 7.2.
//
// The engine is transport-agnostic: a Node is a passive state machine
// driven through Tick (the gossip timer fired) and Receive (a message
// arrived), sending through an Env. The discrete-event simulator
// (internal/simnet) and the live TCP transport (internal/transport) both
// drive the same code.
package gossip

import (
	"time"

	"planetp/internal/directory"
	"planetp/internal/metrics"
)

// MsgType enumerates protocol messages.
type MsgType uint8

// Protocol message types.
const (
	// MsgRumor pushes the sender's active rumors (record updates).
	MsgRumor MsgType = iota
	// MsgRumorAck acknowledges a rumor, reporting which updates were
	// already known and piggybacking recently retired rumor ids (the
	// partial anti-entropy of Section 3).
	MsgRumorAck
	// MsgPull requests specific records (by id + version held).
	MsgPull
	// MsgRecords delivers requested records.
	MsgRecords
	// MsgAERequest asks the target for its directory summary (pull
	// anti-entropy). Carries the requester's digest so an identical
	// directory can be detected without shipping the summary contents
	// in-process (wire accounting still charges the full summary).
	MsgAERequest
	// MsgAESummary carries a directory summary, either as a reply to
	// MsgAERequest or unsolicited (the push-anti-entropy baseline,
	// LAN-AE in Figure 2).
	MsgAESummary
)

// String implements fmt.Stringer.
func (t MsgType) String() string {
	switch t {
	case MsgRumor:
		return "rumor"
	case MsgRumorAck:
		return "rumor-ack"
	case MsgPull:
		return "pull"
	case MsgRecords:
		return "records"
	case MsgAERequest:
		return "ae-request"
	case MsgAESummary:
		return "ae-summary"
	}
	return "unknown"
}

// RumorID identifies one rumor: a peer record at a specific version.
type RumorID struct {
	Peer directory.PeerID
	Ver  directory.Version
}

// Message is the single protocol unit. Fields are populated according to
// Type, and the live transport's frame carries exactly the fields each Type
// uses (internal/transport, codec.gossip).
type Message struct {
	Type MsgType
	From directory.PeerID

	// Updates carries records for MsgRumor and MsgRecords. On a live node
	// every record among them has its Payload and PayloadSize stamped for
	// the target by the node's payload source as the message leaves
	// (Node.SetPayloads): a chain of the diffs the target lacks, or the
	// full filter.
	Updates []directory.Record
	// AsDiff marks, per update in MsgRecords, whether the responder
	// could satisfy the pull with a Bloom-filter diff. It affects only
	// the simulator's wire accounting; a live node's payload source
	// decides per record and target.
	AsDiff []bool

	// Acked and Known echo the rumor ids received and whether each was
	// already known (MsgRumorAck).
	Acked []RumorID
	Known []bool
	// Recent piggybacks the receiver's recently retired rumor ids on
	// the ack — the partial anti-entropy.
	Recent []RumorID

	// Need lists the records the sender wants (MsgPull).
	Need []directory.NeedEntry

	// Digest is the sender's directory digest (MsgAERequest,
	// MsgAESummary).
	Digest uint64
	// Identical reports the responder's digest matched the requester's,
	// so Summary is omitted in-process (MsgAESummary). The wire size is
	// charged as a full summary regardless — the real protocol always
	// ships it.
	Identical bool
	// Summary is a dense version vector (MsgAESummary): one chunk of the
	// id space whose index 0 corresponds to peer SummaryFrom — the whole
	// directory (index = PeerID) in the AE-only baseline's pushes.
	Summary []directory.Version
	// NumKnown is the number of known entries the summary (or chunk)
	// covers (wire accounting).
	NumKnown int

	// Cursor asks the responder to start its summary at this peer id
	// (MsgAERequest). <= 0 starts from the beginning; a positive cursor
	// marks a streaming continuation, which skips the identical-digest
	// fast path (the stream is already in progress).
	Cursor directory.PeerID
	// SummaryFrom is the peer id Summary[0] corresponds to
	// (MsgAESummary). <= 0 for full summaries.
	SummaryFrom directory.PeerID
	// Next is the cursor of the following chunk (MsgAESummary), <= 0
	// when this chunk reaches the end of the id space. The zero value
	// therefore reads as "complete", keeping unchunked messages (and
	// everything recorded before streaming existed) valid.
	Next directory.PeerID
}

// Sizes holds the wire-size constants from Table 2 of the paper, used by
// the simulator to charge bandwidth. Live mode uses real encoded bytes and
// ignores these.
type Sizes struct {
	// Header is the fixed per-message overhead (Table 2: 3 bytes).
	Header int
	// PeerSummary is the size of one peer record sans Bloom payload
	// (Table 2: 48 bytes). Used per entry in directory summaries and
	// per record in rumors/pull replies.
	PeerSummary int
	// BFSummary is the compact per-filter summary (Table 2: 6 bytes),
	// used for piggybacked rumor ids and pull-request entries — this is
	// what makes the partial anti-entropy cost "tens of bytes".
	BFSummary int
}

// DefaultSizes returns Table 2's constants.
func DefaultSizes() Sizes {
	return Sizes{Header: 3, PeerSummary: 48, BFSummary: 6}
}

// WireSize computes the simulated on-the-wire size of m in bytes.
func (m *Message) WireSize(s Sizes) int {
	n := s.Header
	switch m.Type {
	case MsgRumor:
		for i := range m.Updates {
			n += s.PeerSummary + int(m.Updates[i].DiffSize)
		}
	case MsgRumorAck:
		n += (len(m.Known) + 7) / 8
		n += len(m.Acked) * s.BFSummary
		n += len(m.Recent) * s.BFSummary
	case MsgPull:
		n += len(m.Need) * s.BFSummary
	case MsgRecords:
		for i := range m.Updates {
			n += s.PeerSummary
			if i < len(m.AsDiff) && m.AsDiff[i] {
				n += int(m.Updates[i].DiffSize)
			} else {
				n += int(m.Updates[i].PayloadSize)
			}
		}
	case MsgAERequest:
		n += 8 // digest
		if m.Cursor > 0 {
			n += 4 // streaming continuation cursor
		}
	case MsgAESummary:
		// Demers-style anti-entropy exchanges checksums first and ships
		// the per-peer summary (one BFSummary entry per known peer)
		// only on mismatch; this is what makes converged-community
		// bandwidth "negligible" (Section 3) while keeping the AE-only
		// baseline's volume proportional to community size (its pushes
		// are unsolicited, so they always carry the summary). Streamed
		// replies charge only the chunk they carry (NumKnown counts the
		// chunk's known records) plus the two cursor fields.
		n += 8
		if !m.Identical && m.NumKnown > 0 {
			n += m.NumKnown * s.BFSummary
		}
		if m.SummaryFrom > 0 || m.Next > 0 {
			n += 4 // chunk base + next cursor (packed)
		}
	}
	return n
}

// Mode selects the protocol variant.
type Mode uint8

// Protocol variants.
const (
	// ModeRumor is PlanetP's full algorithm: rumor mongering + periodic
	// pull anti-entropy + partial anti-entropy.
	ModeRumor Mode = iota
	// ModeAEOnly is the push-anti-entropy-only baseline (LAN-AE in
	// Figure 2), in the style of Name Dropper/Bayou/Deno.
	ModeAEOnly
)

// The protocol's fixed parameters (Section 3 and Table 2 of the paper).
const (
	// gossiplessThreshold identical-directory contacts trigger one
	// slow-down step.
	gossiplessThreshold = 2
	// aeEvery makes every aeEvery-th round an anti-entropy round.
	aeEvery = 10
	// rumorTTL stops spreading a rumor after this many consecutive
	// already-knew contacts (Demers' n; the paper leaves it unnamed).
	rumorTTL = 3
	// suspicionThreshold is how many consecutive failed contacts with a
	// peer — this node's sends and the RPCs other layers report through
	// Node.NoteFailure — mark it off-line, so one transient failure is
	// forgiven. Any success, or hearing from the peer, resets its streak.
	suspicionThreshold = 2
	// probeEvery makes every probeEvery-th round additionally probe one
	// random peer currently believed off-line with an anti-entropy
	// request. A live peer answers, flipping the local opinion back
	// on-line — the recovery path for suspected peers and healed
	// partitions.
	probeEvery = 8
	// exchangeMax bounds how many records one discovery pull requests.
	exchangeMax = 16
	// slowPeerProb is the probability a fast peer rumors to a slow one.
	slowPeerProb = 0.01
)

// summaryChunk bounds how many peer ids one anti-entropy summary reply
// covers. Requested summaries stream in chunks: the responder answers
// [Cursor, Cursor+summaryChunk) of the id space and the requester issues
// continuation requests, so neither side ever materializes a full
// []Version per exchange at 100k-peer scale. The AE-only baseline's
// unsolicited pushes carry the whole id space — that cost is the point of
// the baseline. A variable so a test can shrink the chunks.
var summaryChunk = 4096

// Config parameterizes a Node. Zero fields are replaced by defaults from
// the paper (Section 3 and Table 2).
type Config struct {
	// BaseInterval is T_g, the base gossiping interval (30 s).
	BaseInterval time.Duration
	// MaxInterval caps the adaptive slow-down (Table 2: 60 s).
	MaxInterval time.Duration
	// SlowdownStep is the slow-down constant (5 s).
	SlowdownStep time.Duration
	// PiggybackCount is m, the number of recently retired rumor ids
	// piggybacked on rumor acks (0 takes the default 10). Negative
	// disables the partial anti-entropy (the LAN-NPA ablation of
	// Figure 4a).
	PiggybackCount int
	// TDead drops peers continuously off-line this long (0 = never).
	TDead time.Duration
	// DiscoverMin, when positive, enables bootstrap discovery: while the
	// directory believes fewer than DiscoverMin peers (including self)
	// are on-line, every round additionally pulls a bounded random
	// sample of known-on-line records from one contact — provided the
	// Env also implements PeerExchanger. Records learned this way are
	// applied like anti-entropy pulls (news, but never re-rumored). Zero
	// disables discovery; established members whose directory already
	// meets the minimum pay nothing.
	DiscoverMin int
	// OnDrop, if non-nil, is invoked (outside the node's lock) after
	// DropDead garbage-collects records, with the dropped ids and the
	// collection time. Experiment harnesses use it to audit the T_Dead
	// invariants — no live peer collected, no dead record kept forever.
	OnDrop func(dropped []directory.PeerID, now time.Duration)
	// MaxPullBatch caps how many records one anti-entropy pull requests
	// (0 = unlimited). Bandwidth-limited peers set this to acquire a
	// large directory in pieces across successive exchanges instead of
	// one multi-minute transfer (the paper's proposed accommodation for
	// modem users joining large communities).
	MaxPullBatch int
	// Mode selects the protocol variant.
	Mode Mode
	// BandwidthAware enables the two-class target selection.
	BandwidthAware bool
	// Sizes are the wire-accounting constants.
	Sizes Sizes
	// OnNews, if non-nil, is invoked (outside the node's lock) for
	// every record accepted as fresh — the hook applications use to
	// re-evaluate persistent queries when a new Bloom filter arrives
	// (Section 5.1).
	OnNews func(directory.Record)
	// Metrics, if non-nil, receives the node's protocol counters
	// (gossip_* names). The same registry is shared with the transport
	// or simulator driving the node, so one snapshot covers a whole
	// peer. Nil disables instrumentation at zero cost.
	Metrics *metrics.Registry
}

// WithDefaults fills zero fields with the paper's values.
func (c Config) WithDefaults() Config {
	if c.BaseInterval == 0 {
		c.BaseInterval = 30 * time.Second
	}
	if c.MaxInterval == 0 {
		c.MaxInterval = 60 * time.Second
	}
	if c.SlowdownStep == 0 {
		c.SlowdownStep = 5 * time.Second
	}
	// Negative stays negative: the explicit "disabled" marker (LAN-NPA)
	// must survive repeated normalization.
	if c.PiggybackCount == 0 {
		c.PiggybackCount = 10
	}
	if c.Sizes == (Sizes{}) {
		c.Sizes = DefaultSizes()
	}
	return c
}
