// Package faultnet is a deterministic, seeded fault-injection layer for
// PlanetP's network paths. A Plan decides, per message, whether to drop,
// delay, or duplicate it, whether the connection attempt itself fails,
// and whether a scripted network partition separates the two endpoints.
//
// Every decision is a pure function of (seed, fault kind, sender,
// receiver, per-pair message sequence number), so a single seed fully
// determines the fault schedule: two runs that send the same messages in
// the same per-pair order are hit by byte-identical faults, regardless of
// how sends interleave across different peer pairs. Under a
// single-threaded driver (internal/simnet) the whole schedule is
// bit-for-bit reproducible; ScheduleHash fingerprints it so tests can
// assert exactly that.
//
// The same Plan serves both stacks, through one seam each:
// internal/simnet consults Fate inside its virtual-time Send, and
// internal/transport consults SendFate once per send attempt (its
// FateHook). Injected faults are instrumented through internal/metrics
// (faultnet_* counters).
package faultnet

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"planetp/internal/directory"
	"planetp/internal/metrics"
)

// Partition is one scripted split: between At (inclusive) and Heal
// (exclusive), peers on different sides cannot exchange messages — sends
// across the cut fail like refused connections. Heal <= At means the
// partition never heals within the run.
type Partition struct {
	// Name labels the partition in logs and metrics.
	Name string
	// At is when the split happens (driver time: virtual in simnet,
	// time-since-start in live transport).
	At time.Duration
	// Heal is when connectivity is restored.
	Heal time.Duration
	// Side maps a peer to its side of the cut. Peers mapping to
	// different values cannot communicate while the partition is active.
	Side func(id directory.PeerID) int
}

// active reports whether the partition is in force at now.
func (pt *Partition) active(now time.Duration) bool {
	return now >= pt.At && (pt.Heal <= pt.At || now < pt.Heal)
}

// SplitHalves returns a Side function cutting the id space [0, n) into
// two halves: ids below n/2 versus the rest (ids outside [0, n) join the
// upper side).
func SplitHalves(n int) func(id directory.PeerID) int {
	half := directory.PeerID(n / 2)
	return func(id directory.PeerID) int {
		if id >= 0 && id < half {
			return 0
		}
		return 1
	}
}

// Config parameterizes a Plan. All probabilities are in [0, 1]; zero
// disables that fault kind.
type Config struct {
	// Seed determines the entire fault schedule.
	Seed int64
	// Drop is the probability a message is silently lost after being
	// sent (the sender sees success; nothing arrives).
	Drop float64
	// Dup is the probability a message is delivered twice, the copy
	// arriving delayMin..delayMax after the original.
	Dup float64
	// Delay is the probability a message is held back an extra
	// delayMin..delayMax before delivery. Because only some messages
	// are delayed, later traffic overtakes them — this is also the
	// reordering knob.
	Delay float64
	// DialFail is the probability a connection attempt fails outright
	// (the sender sees an error, as from a refused or timed-out dial).
	DialFail float64
	// ConnKill is the probability the connection carrying a message dies
	// as the message crosses it. Meaningful for pooled transports, where
	// a long-lived stream can fail under an RPC long after its dial
	// succeeded: the sender sees the conn tear mid-exchange and (for a
	// reused conn) recovers with one transparent re-dial.
	ConnKill float64
	// Partitions are the scripted splits.
	Partitions []Partition
}

// delayMin and delayMax bound the injected extra latency, both for Delay
// and for a duplicate's offset.
const delayMin, delayMax = 100 * time.Millisecond, 2 * time.Second

// Fate is the Plan's verdict for one message.
type Fate struct {
	// DialFail: the connection attempt fails; nothing is transmitted.
	DialFail bool
	// Partitioned: endpoints are on opposite sides of an active
	// partition; the attempt fails like a dead peer.
	Partitioned bool
	// Drop: the message transmits but is lost; the sender sees success.
	Drop bool
	// Dup: deliver a second copy DupDelay after the first.
	Dup bool
	// Delay is extra latency on the (first) delivery; zero when the
	// message was not selected for delaying.
	Delay time.Duration
	// DupDelay is the duplicate's extra offset (meaningful when Dup).
	DupDelay time.Duration
	// ConnKill: the connection carrying this message dies under it. A
	// reused pooled conn sees the stream tear mid-exchange; a fresh one
	// dies outright, failing the send.
	ConnKill bool
}

// Failed reports whether the send attempt errors at the sender.
func (f Fate) Failed() bool { return f.DialFail || f.Partitioned }

// Counts are the cumulative injected-fault totals, by kind.
type Counts struct {
	Drops, Dups, Delays, DialFails, ConnKills, PartitionBlocks, Messages int64
}

// fault-kind salts for the decision hash. Each kind draws an independent
// stream so, e.g., enabling Dup does not perturb which messages Drop.
const (
	saltDrop     uint64 = 0x9e3779b97f4a7c15
	saltDup      uint64 = 0xc2b2ae3d27d4eb4f
	saltDelay    uint64 = 0x165667b19e3779f9
	saltDelayAmt uint64 = 0x27d4eb2f165667c5
	saltDupAmt   uint64 = 0x85ebca6b2ae35d63
	saltDialFail uint64 = 0x2545f4914f6cdd1d
	saltConnKill uint64 = 0x9e6c63d0762607a5
)

// Plan is a live fault schedule. Safe for concurrent use; fully
// deterministic when each (from, to) pair's sends are ordered (always
// true under simnet's single-threaded event loop).
type Plan struct {
	cfg Config

	mu  sync.Mutex
	seq map[uint64]uint64 // per ordered (from,to) pair message counter

	// schedHash is an FNV-1a fold of every injected fault
	// (kind, from, to, seq, amount); equal hashes mean byte-identical
	// schedules.
	schedHash uint64

	drops, dups, delays, dialFails, connKills, partBlocks, messages int64

	m planMetrics
}

type planMetrics struct {
	drops, dups, delays, dialFails, connKills, partitioned *metrics.Counter
}

// New builds a Plan from cfg. reg, when non-nil, receives the injected
// fault counters (faultnet_* names).
func New(cfg Config, reg *metrics.Registry) *Plan {
	return &Plan{
		cfg: cfg,
		seq: make(map[uint64]uint64),
		m: planMetrics{
			drops:       reg.Counter("faultnet_drops_total"),
			dups:        reg.Counter("faultnet_dups_total"),
			delays:      reg.Counter("faultnet_delays_total"),
			dialFails:   reg.Counter("faultnet_dial_failures_total"),
			connKills:   reg.Counter("faultnet_conn_kills_total"),
			partitioned: reg.Counter("faultnet_partitioned_sends_total"),
		},
		schedHash: 1469598103934665603, // FNV-1a offset basis
	}
}

// mix is the splitmix64 finalizer — the per-decision hash core.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func pairKey(from, to directory.PeerID) uint64 {
	return uint64(uint32(from))<<32 | uint64(uint32(to))
}

// roll returns a uniform [0,1) draw for one (kind, message) decision.
func (p *Plan) roll(salt uint64, pair, seq uint64) float64 {
	h := mix(mix(uint64(p.cfg.Seed)^salt) + mix(pair^0xa5a5a5a5a5a5a5a5) + mix(seq))
	return float64(h>>11) / float64(uint64(1)<<53)
}

// amount maps a draw into the delay window.
func (p *Plan) amount(salt uint64, pair, seq uint64) time.Duration {
	return delayMin + time.Duration(p.roll(salt, pair, seq)*float64(delayMax-delayMin))
}

// foldLocked mixes one injected fault into the schedule fingerprint.
func (p *Plan) foldLocked(salt uint64, pair, seq uint64, amount time.Duration) {
	for _, w := range [4]uint64{salt, pair, seq, uint64(amount)} {
		for i := 0; i < 8; i++ {
			p.schedHash ^= (w >> (8 * i)) & 0xff
			p.schedHash *= 1099511628211 // FNV-1a prime
		}
	}
}

// Partitioned reports whether an active partition separates a and b at
// now, and which one.
func (p *Plan) Partitioned(now time.Duration, a, b directory.PeerID) (string, bool) {
	for i := range p.cfg.Partitions {
		pt := &p.cfg.Partitions[i]
		if pt.active(now) && pt.Side != nil && pt.Side(a) != pt.Side(b) {
			return pt.Name, true
		}
	}
	return "", false
}

// Fate decides every fault for the next message from -> to at time now.
// One call consumes one per-pair sequence number; callers must invoke it
// exactly once per send attempt.
func (p *Plan) Fate(now time.Duration, from, to directory.PeerID) Fate {
	pair := pairKey(from, to)
	p.mu.Lock()
	seq := p.seq[pair]
	p.seq[pair] = seq + 1
	p.messages++

	var f Fate
	if _, cut := p.Partitioned(now, from, to); cut {
		f.Partitioned = true
		p.partBlocks++
		p.foldLocked(0, pair, seq, 0)
		p.mu.Unlock()
		p.m.partitioned.Inc()
		return f
	}
	if p.cfg.DialFail > 0 && p.roll(saltDialFail, pair, seq) < p.cfg.DialFail {
		f.DialFail = true
		p.dialFails++
		p.foldLocked(saltDialFail, pair, seq, 0)
		p.mu.Unlock()
		p.m.dialFails.Inc()
		return f
	}
	if p.cfg.Drop > 0 && p.roll(saltDrop, pair, seq) < p.cfg.Drop {
		f.Drop = true
		p.drops++
		p.foldLocked(saltDrop, pair, seq, 0)
	}
	if p.cfg.Delay > 0 && p.roll(saltDelay, pair, seq) < p.cfg.Delay {
		f.Delay = p.amount(saltDelayAmt, pair, seq)
		p.delays++
		p.foldLocked(saltDelay, pair, seq, f.Delay)
	}
	if p.cfg.Dup > 0 && p.roll(saltDup, pair, seq) < p.cfg.Dup {
		f.Dup = true
		f.DupDelay = p.amount(saltDupAmt, pair, seq)
		p.dups++
		p.foldLocked(saltDup, pair, seq, f.DupDelay)
	}
	if p.cfg.ConnKill > 0 && p.roll(saltConnKill, pair, seq) < p.cfg.ConnKill {
		f.ConnKill = true
		p.connKills++
		p.foldLocked(saltConnKill, pair, seq, 0)
	}
	p.mu.Unlock()

	if f.Drop {
		p.m.drops.Inc()
	}
	if f.Delay > 0 {
		p.m.delays.Inc()
	}
	if f.Dup {
		p.m.dups.Inc()
	}
	if f.ConnKill {
		p.m.connKills.Inc()
	}
	return f
}

// ErrInjected marks transport-level failures manufactured by a Plan, so
// tests and callers can tell injected faults from real network errors.
var ErrInjected = errors.New("faultnet: injected fault")

// SendFate adapts the Plan to transport.Transport's FateHook seam: one
// verdict per send attempt, independent of whether the attempt dials a
// fresh connection or reuses a pooled one. clock supplies the driver time
// partitions are scripted against (typically time-since-start).
//
// The returned values map onto the transport's fate semantics: err fails
// the attempt outright (dial failures, partitions — counted as dial
// failures and fed to suppression exactly as a refused dial would be);
// drop loses the message after a "successful" send; delay stalls the
// attempt before transmission; kill tears the connection carrying the
// message mid-exchange. Duplication has no live counterpart: each
// envelope is framed exactly once onto a stream.
func (p *Plan) SendFate(self directory.PeerID, clock func() time.Duration) func(to directory.PeerID) (err error, drop bool, delay time.Duration, kill bool) {
	return func(to directory.PeerID) (error, bool, time.Duration, bool) {
		f := p.Fate(clock(), self, to)
		switch {
		case f.Partitioned:
			return fmt.Errorf("%w: partitioned from peer %d", ErrInjected, to), false, 0, false
		case f.DialFail:
			return fmt.Errorf("%w: dial to peer %d failed", ErrInjected, to), false, 0, false
		}
		return nil, f.Drop, f.Delay, f.ConnKill
	}
}

// ScheduleHash fingerprints every fault injected so far. Two runs with
// the same seed, traffic, and per-pair send order produce equal hashes.
func (p *Plan) ScheduleHash() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.schedHash
}

// Counts returns the cumulative injected-fault totals.
func (p *Plan) Counts() Counts {
	p.mu.Lock()
	defer p.mu.Unlock()
	return Counts{
		Drops: p.drops, Dups: p.dups, Delays: p.delays,
		DialFails: p.dialFails, ConnKills: p.connKills,
		PartitionBlocks: p.partBlocks, Messages: p.messages,
	}
}
