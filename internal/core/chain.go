package core

import (
	"sync"

	"planetp/internal/bloom"
	"planetp/internal/directory"
	"planetp/internal/gossip"
	"planetp/internal/metrics"
)

// Gossiped filters as chains (DESIGN §4e, §4i, §4k). A record's payload is
// a bloom.Chain: a full filter, the base, and diff segments each tagged with
// the Seq it brings the filter to. The origin keeps its own chain as a
// segment log (ownLog); every node sends each target only the segments past
// the version that target is known to hold (heldTable, stampPayloads), and
// resolves every chain that arrives against what its directory holds before
// the gossip node sees it (resolveIncoming).

// chainMetrics are the payload counters, resolved once.
type chainMetrics struct {
	full, diff, bytes, rejects, folds *metrics.Counter
}

func newChainMetrics(r *metrics.Registry) chainMetrics {
	return chainMetrics{
		full:    r.Counter("gossip_full_payloads_sent_total"),
		diff:    r.Counter("gossip_diff_payloads_sent_total"),
		bytes:   r.Counter("gossip_payload_bytes_sent_total"),
		rejects: r.Counter("gossip_diff_rejects_total"),
		folds:   r.Counter("gossip_chain_folds_total"),
	}
}

// ownLog is the origin's segment log: the own filter as a chain, its base a
// Compress of the filter at From, each announce appending the batch's
// diff tagged with the Seq it is announced at. It restarts at every reset —
// a Compact, or the empty filter a peer starts from before recovery rebuilds
// it — so no segment spans one.
type ownLog struct {
	mu      sync.Mutex
	c       bloom.Chain
	resets  uint64 // bumped by every restart: a fold built across one is dropped
	folding bool   // a fold is being built: one at a time
}

func (l *ownLog) restart(ver directory.Version, base []byte) {
	l.mu.Lock()
	l.c = bloom.Chain{Epoch: ver.Epoch, From: ver.Seq, Base: base}
	l.resets++
	l.mu.Unlock()
}

func (l *ownLog) append(ver directory.Version, diff []byte) {
	l.mu.Lock()
	l.c.Segs = append(l.c.Segs, bloom.Segment{To: ver.Seq, Diff: diff})
	l.mu.Unlock()
}

// announce flushes the filter inserts made since the last announce into one
// segment of the own chain, tagged with the version it is about to be
// announced at, and announces that version. The segment is in the log
// before the version is visible, so every copy of the own record leaves
// with a chain that covers its version. force announces even with nothing
// pending: a publish whose bits an earlier announce already carried still
// gets its version. Without force, nothing pending (an epoch refresh, a
// recovery that restored nothing) announces nothing.
func (p *Peer) announce(force bool) error {
	p.announceMu.Lock()
	defer p.announceMu.Unlock()
	p.mu.Lock()
	if !force && p.summary.Pending() == 0 {
		p.mu.Unlock()
		return nil
	}
	diff, _, err := p.summary.Flush()
	p.mu.Unlock()
	if err != nil {
		return err
	}
	ver := p.node.SelfRecord().Ver
	ver.Seq++
	p.own.append(ver, diff)
	p.node.Publish(len(diff), 0)
	return nil
}

// ownChain returns the own chain, folded first once its segments' bytes
// have reached its base's (foldDue, DESIGN §4i).
func (p *Peer) ownChain() bloom.Chain {
	l := &p.own
	l.mu.Lock()
	c, resets := l.c, l.resets
	if !foldDue(c) || l.folding {
		l.mu.Unlock()
		return c
	}
	l.folding = true
	l.mu.Unlock()

	folded, err := foldChain(c)

	l.mu.Lock()
	defer l.mu.Unlock()
	l.folding = false
	if err != nil || l.resets != resets {
		return l.c
	}
	// Segments appended while the fold ran stay after it.
	folded.Segs = append(folded.Segs, l.c.Segs[len(c.Segs):]...)
	l.c = folded
	p.cm.folds.Inc()
	return folded
}

// foldDue is the ski-rental rule (DESIGN §4i): a chain folds when its
// segments' bytes reach its base's, so it stays under twice a full filter
// at rest and a fold's decode and compress are paid once per base's worth
// of segment bytes received.
func foldDue(c bloom.Chain) bool { return c.SegBytes() >= len(c.Base) }

// foldChain folds c's older segments into its base, keeping the newest
// half a base's worth: a holder a push interval behind the chain's end is
// still sent segments, not the full filter.
func foldChain(c bloom.Chain) (bloom.Chain, error) { return c.Fold(len(c.Base) / 2) }

// heldMax bounds the held-version table (DESIGN §4k). A sender needs entry
// (T, P) when it next sends P's record to target T, and learns it when T
// last spoke to it; with random targets a pair speaks about every N/2
// rounds. Between two such contacts a node takes in, per round, the ids of
// one push and one ack (2A for A active rumors) and a tenth of an
// anti-entropy summary (N/aeEvery). The newest half of the table must hold
// N/2·(2A + N/10) entries: ≈ 60 k at N = 1024 and A = 8, so 2^17. At
// ≈ 40 B an entry that is ≈ 5 MB at its worst, reached only when every
// pair of a thousand members churns; a 4-member community holds at most 16.
const heldMax = 1 << 17

// heldKey names one record as one target holds it.
type heldKey struct{ to, peer directory.PeerID }

// heldTable is the version of each record each target is known to hold,
// learned from what the targets themselves said: the ids their rumor acks
// echo, the Have of their pulls, their anti-entropy summaries, and the
// records they send. It keeps two generations: when the newer holds
// heldMax/2 entries, the older is dropped (counted in evicted) and the newer
// takes its place, so the most recently learned half always stays. A
// dropped entry costs one target at most one rejected guess (stampPayloads).
type heldTable struct {
	mu       sync.Mutex
	cur, old map[heldKey]heldVer
	evicted  *metrics.Counter
}

// heldVer is one entry: the version, and whether the target named it as
// what it holds when it pulled (exact), not as something it has seen (a
// lower bound: it may have moved on since).
type heldVer struct {
	ver   directory.Version
	exact bool
}

func (h *heldTable) get(to, peer directory.PeerID) (heldVer, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.getLocked(heldKey{to, peer})
}

func (h *heldTable) getLocked(k heldKey) (heldVer, bool) {
	if v, ok := h.cur[k]; ok {
		return v, true
	}
	v, ok := h.old[k]
	return v, ok
}

// putLocked records v. An exact v (a pull's Have) replaces what is
// recorded: a peer that lost state pulls from below what it acked. Any other
// only raises it.
func (h *heldTable) putLocked(to, peer directory.PeerID, v directory.Version, exact bool) {
	k := heldKey{to, peer}
	if old, ok := h.getLocked(k); !exact && ok && !old.ver.Less(v) {
		return
	}
	if h.cur == nil {
		h.cur = make(map[heldKey]heldVer)
	}
	if _, ok := h.cur[k]; !ok && len(h.cur) >= heldMax/2 {
		h.evicted.Add(int64(len(h.old)))
		clear(h.old)
		h.cur, h.old = h.old, h.cur
		if h.cur == nil {
			h.cur = make(map[heldKey]heldVer)
		}
	}
	delete(h.old, k)
	h.cur[k] = heldVer{ver: v, exact: exact}
}

// learn records what from says it holds: a pull's Have exactly; the ids of
// its acks and summaries, and the records it sends (a peer sends only what it
// holds), as lower bounds.
func (h *heldTable) learn(from directory.PeerID, m *gossip.Message) {
	h.mu.Lock()
	defer h.mu.Unlock()
	switch m.Type {
	case gossip.MsgRumor, gossip.MsgRecords:
		for i := range m.Updates {
			h.putLocked(from, m.Updates[i].ID, m.Updates[i].Ver, false)
		}
	case gossip.MsgRumorAck:
		for _, id := range m.Acked {
			h.putLocked(from, id.Peer, id.Ver, false)
		}
	case gossip.MsgPull:
		for _, ne := range m.Need {
			h.putLocked(from, ne.ID, ne.Have, true)
		}
	case gossip.MsgAESummary:
		base := max(m.SummaryFrom, 0)
		for i, v := range m.Summary {
			if !v.IsZero() {
				h.putLocked(from, base+directory.PeerID(i), v, false)
			}
		}
	}
}

// storedChain reads a stored payload as a based chain. A Compress encoding
// (a payload installed whole, not gossiped) is a base at the record's
// version.
func storedChain(payload []byte, ver directory.Version) (bloom.Chain, bool) {
	if len(payload) == 0 {
		return bloom.Chain{}, false
	}
	if !bloom.IsChain(payload) {
		return bloom.Chain{Epoch: ver.Epoch, From: ver.Seq, Base: payload}, true
	}
	c, err := bloom.ParseChain(payload)
	return c, err == nil && c.Base != nil
}

// covers reports whether chain c brings its filter to version v: the
// payload a record travels with must cover the record's version.
func covers(c bloom.Chain, v directory.Version) bool {
	return c.Epoch == v.Epoch && c.End() >= v.Seq
}

// stampPayloads is the gossip node's payload source (Node.SetPayloads):
// each record bound for to carries, of its chain, what to lacks. The gain
// rests on one property: what the target holds is known, or well guessed,
// when the record is sent. So:
//
//   - a target known to hold a version the chain covers gets the segments
//     past it, merged into one (bloom.Chain.Since);
//   - a target whose holdings are unknown, or known only as a lower bound
//     behind the chain's base, gets the segments since the base as they are
//     stored (no merge): a member has most likely moved on since it last
//     said what it holds. One that has not rejects them and pulls, and its
//     pull's Have is exact;
//   - a target whose exact Have is behind the base, the bootstrap reply with
//     no target at all, or a chain with no segments: the full chain.
func (p *Peer) stampPayloads(to directory.PeerID, recs []directory.Record) {
	for i := range recs {
		rec := &recs[i]
		var c bloom.Chain
		if rec.ID == p.id {
			c = p.ownChain()
		} else if sc, ok := storedChain(rec.Payload, rec.Ver); ok && covers(sc, rec.Ver) {
			c = sc
		} else {
			// A version learned with no payload (peer discovery samples
			// carry none) is relayed with none: a chain that falls short
			// of it would only be rejected.
			rec.Payload = nil
			continue
		}
		held, known := p.held.get(to, rec.ID)
		diff := true
		switch {
		case known && held.ver.Epoch == c.Epoch && held.ver.Seq >= c.From:
			since, err := c.Since(held.ver.Seq)
			if diff = err == nil; diff {
				rec.Payload = since.Encode()
			}
		case to != directory.None && len(c.Segs) > 0 && !held.exact:
			rec.Payload = bloom.Chain{Epoch: c.Epoch, From: c.From, Segs: c.Segs}.Encode()
		default:
			diff = false
		}
		if diff {
			p.cm.diff.Inc()
		} else {
			if rec.ID == p.id {
				rec.Payload = c.Encode()
			} // a relayed record's stored encoding is already its full chain
			p.cm.full.Inc()
		}
		rec.PayloadSize = int32(len(rec.Payload))
		p.cm.bytes.Add(int64(len(rec.Payload)))
	}
}

// resolveIncoming turns every chain in a rumor or pull reply into the full
// chain the directory stores, before the gossip node sees the message
// (bloom.Chain.Apply, DESIGN §4i): the segments past what is held are
// appended to it when the chain applies there, and a based chain the
// holder is behind replaces it. A record whose chain cannot apply is
// stripped — neither applied nor acked, so the sender never records a
// version this peer lacks — and pulled from the sender with Have set to
// what is held, unless a pull is already in flight.
func (p *Peer) resolveIncoming(from directory.PeerID, m *gossip.Message) {
	if m.Type != gossip.MsgRumor && m.Type != gossip.MsgRecords {
		return
	}
	var need []directory.NeedEntry
	kept := 0
	for i := range m.Updates {
		if have, ok := p.resolve(&m.Updates[i]); !ok {
			need = append(need, directory.NeedEntry{ID: m.Updates[i].ID, Have: have})
			continue
		}
		m.Updates[kept] = m.Updates[i]
		if kept < len(m.AsDiff) && i < len(m.AsDiff) {
			m.AsDiff[kept] = m.AsDiff[i]
		}
		kept++
	}
	if len(need) == 0 {
		return
	}
	m.Updates = m.Updates[:kept]
	if len(m.AsDiff) > kept {
		m.AsDiff = m.AsDiff[:kept]
	}
	p.cm.rejects.Add(int64(len(need)))
	// Through the node's pull gate: a reply that is rejected again arrives
	// while its own pull is still in flight, so it cannot start another.
	p.node.Pull(from, need)
}

// resolve rewrites rec's chain to the full chain to store. When it cannot
// apply it reports false and the version of what is held (zero for
// nothing). A record that is not news keeps no payload: the directory
// refuses it whatever it carries.
func (p *Peer) resolve(rec *directory.Record) (directory.Version, bool) {
	if rec.ID == p.id || !bloom.IsChain(rec.Payload) {
		return directory.Version{}, true
	}
	if !p.dir.VersionOf(rec.ID).Less(rec.Ver) {
		rec.Payload, rec.PayloadSize = nil, 0
		return directory.Version{}, true
	}
	stored, sver, _ := p.dir.Payload(rec.ID)
	held, ok := storedChain(stored, sver)
	var have directory.Version
	if ok {
		have = directory.Version{Epoch: held.Epoch, Seq: held.End()}
	}
	in, err := bloom.ParseChain(rec.Payload)
	if err != nil {
		return have, false
	}
	out, err := held.Apply(in)
	if err != nil || !covers(out, rec.Ver) {
		return have, false
	}
	if foldDue(out) {
		if out, err = foldChain(out); err != nil {
			return have, false
		}
		p.cm.folds.Inc()
	}
	rec.Payload = out.Encode()
	rec.PayloadSize = int32(len(rec.Payload))
	return have, true
}
