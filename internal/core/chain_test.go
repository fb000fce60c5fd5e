package core

import (
	"fmt"
	"strings"
	"testing"

	"planetp/internal/bloom"
	"planetp/internal/directory"
	"planetp/internal/gossip"
	"planetp/internal/metrics"
	"planetp/internal/transport"
)

// heldFilter decodes the payload q holds for p's record.
func heldFilter(t *testing.T, q *Peer, id directory.PeerID) (*bloom.Filter, directory.Version) {
	t.Helper()
	payload, ver, ok := q.dir.Payload(id)
	if !ok {
		t.Fatalf("peer %d holds no payload for %d", q.id, id)
	}
	f, err := bloom.Decompress(payload)
	if err != nil {
		t.Fatalf("held payload does not decode: %v", err)
	}
	return f, ver
}

// manyWords is a document of n distinct words.
func manyWords(prefix string, n int) string {
	var b strings.Builder
	b.WriteString("<doc>")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, " %s%dx", prefix, i)
	}
	b.WriteString("</doc>")
	return b.String()
}

// ownFilter is a copy of p's filter.
func ownFilter(p *Peer) *bloom.Filter {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.summary.Filter().Clone()
}

// TestOneVersionPushCostsWhatWireSizeCharges: once a target is known to
// hold the version before, one publish and one push send the target that
// publish's diff, and the bytes TCP carries for the rumor are within 64 B of
// what gossip.WireSize charges for it (PeerSummary + DiffSize) — the
// simulator and the live node price the one-version case alike.
func TestOneVersionPushCostsWhatWireSizeCharges(t *testing.T) {
	peers := quietCommunity(t, 2, 0)
	p, q := peers[0], peers[1]
	mustPublish(t, p, `<doc>first version of the filter</doc>`)
	p.node.Tick() // unknown holdings: the segments since the base; q's ack teaches p
	if v, ok := p.held.get(q.id, p.id); !ok || v.ver != p.node.SelfRecord().Ver {
		t.Fatalf("p learned %v (%v) for q, want %v", v, ok, p.node.SelfRecord().Ver)
	}

	mustPublish(t, p, `<doc>second version adds a handful of words</doc>`)
	self := p.node.SelfRecord()
	tx := func() int64 { return p.reg.Snapshot().Get("transport_tx_bytes_gossip") }
	diffs, before := p.reg.Snapshot().Get("gossip_diff_payloads_sent_total"), tx()
	p.node.Tick()
	sent := tx() - before
	if p.reg.Snapshot().Get("gossip_diff_payloads_sent_total") != diffs+1 {
		t.Fatal("the push did not carry a diff")
	}
	msg := gossip.Message{Type: gossip.MsgRumor, From: p.id, Updates: []directory.Record{self}}
	charge := int64(msg.WireSize(gossip.DefaultSizes()))
	if d := sent - charge; d < -64 || d > 64 {
		t.Fatalf("the rumor cost %d B on the wire, WireSize charges %d (DiffSize %d)", sent, charge, self.DiffSize)
	}
	got, ver := heldFilter(t, q, p.id)
	if ver != self.Ver || !got.Equal(ownFilter(p)) {
		t.Fatalf("q holds %v, not p's filter at %v", ver, self.Ver)
	}
}

// TestCompactReachesReceiverBehindIt: a receiver that holds a version from
// before a Compact cannot apply segments of the compacted chain, so it is
// sent the full filter and ends with exactly the compacted one: no stale
// bit of the removed document survives.
func TestCompactReachesReceiverBehindIt(t *testing.T) {
	peers := quietCommunity(t, 2, 0)
	p, q := peers[0], peers[1]
	gone, err := p.Publish(`<doc>ephemeral zebra quagga</doc>`)
	if err != nil {
		t.Fatal(err)
	}
	mustPublish(t, p, manyWords("durable", 400))
	p.node.Tick()
	_, before := heldFilter(t, q, p.id)
	if !q.view.Contains(p.id, "quagga") {
		t.Fatal("q never learned the removed document's terms")
	}
	if !p.Remove(gone.ID) {
		t.Fatal("remove failed")
	}
	if p.Compact() == 0 {
		t.Fatal("compact cleaned nothing")
	}
	mustPublish(t, p, `<doc>after the compaction</doc>`) // a segment past the new base

	fulls := p.reg.Snapshot().Get("gossip_full_payloads_sent_total")
	p.node.Receive(q.id, &gossip.Message{Type: gossip.MsgPull, From: q.id, Need: []directory.NeedEntry{{ID: p.id, Have: before}}})
	if p.reg.Snapshot().Get("gossip_full_payloads_sent_total") != fulls+1 {
		t.Fatal("a receiver behind the compaction was not sent the full filter")
	}
	got, ver := heldFilter(t, q, p.id)
	if ver != p.node.SelfRecord().Ver || !got.Equal(ownFilter(p)) {
		t.Fatalf("q holds %v, not exactly the compacted filter at %v", ver, p.node.SelfRecord().Ver)
	}
	if q.view.Contains(p.id, "quagga") && !ownFilter(p).Contains("quagga") {
		t.Fatal("a stale bit of the removed document survived at q")
	}
}

// TestRejectedChainIsPulledNotAcked: a receiver offered segments it cannot
// apply — the sender believes it holds a version it does not, as after it
// lost state — neither applies nor acks them: the record is stripped, the
// sender never records that version, and the receiver's pull with its real
// Have brings it to exactly the sender's filter.
func TestRejectedChainIsPulledNotAcked(t *testing.T) {
	peers := quietCommunity(t, 2, 0)
	p, q := peers[0], peers[1]
	// A base large enough that the small publishes after it do not fold it.
	mustPublish(t, p, manyWords("alpha", 400))
	p.node.Tick()
	_, have := heldFilter(t, q, p.id)
	for i := 0; i < 3; i++ {
		mustPublish(t, p, `<doc>kilo lima `+string(rune('a'+i))+`</doc>`)
	}
	// p wrongly believes q holds the version one before its own.
	claimed := p.node.SelfRecord().Ver
	claimed.Seq--
	p.held.mu.Lock()
	p.held.putLocked(q.id, p.id, claimed, true)
	p.held.mu.Unlock()
	mustPublish(t, p, `<doc>echo foxtrot</doc>`)

	p.node.Tick()
	if got := q.reg.Snapshot().Get("gossip_diff_rejects_total"); got != 1 {
		t.Fatalf("q counted %d rejects, want 1", got)
	}
	if v, _ := p.held.get(q.id, p.id); v.ver != have {
		t.Fatalf("p's table says q holds %v; q's pull said %v", v, have)
	}
	got, ver := heldFilter(t, q, p.id)
	if ver != p.node.SelfRecord().Ver || !got.Equal(ownFilter(p)) {
		t.Fatalf("q converged to %v, not p's filter at %v", ver, p.node.SelfRecord().Ver)
	}
	if !q.view.Contains(p.id, "foxtrot") || !q.view.Contains(p.id, "kilo") {
		t.Fatal("q's filter misses a published term")
	}
}

// TestDiscoveredVersionRelayedWithoutPayload: a peer-discovery sample
// carries no payload, so a relay that learned a newer version from one holds
// that version over a chain that ends before it. Such a relay must not send
// the short chain — its receiver would reject it and pull, and be served the
// same chain again — but the version alone, as a record with no payload: one
// pull, one reply, no reject.
func TestDiscoveredVersionRelayedWithoutPayload(t *testing.T) {
	peers := quietCommunity(t, 3, 0)
	p, x, y := peers[0], peers[1], peers[2]
	mustPublish(t, p, manyWords("base", 400))
	v1 := p.node.SelfRecord().Ver
	for _, q := range []*Peer{x, y} {
		p.node.Receive(q.id, &gossip.Message{Type: gossip.MsgPull, From: q.id, Need: []directory.NeedEntry{{ID: p.id}}})
		if _, ver := heldFilter(t, q, p.id); ver != v1 {
			t.Fatalf("peer %d holds %v, want %v", q.id, ver, v1)
		}
	}
	mustPublish(t, p, `<doc>learned only through discovery</doc>`)
	sample := transport.SanitizePeerSample([]directory.Record{p.node.OutgoingSelf()}, 1)
	if len(sample) != 1 || sample[0].Payload != nil {
		t.Fatalf("discovery sample %+v", sample)
	}
	if !x.dir.Upsert(sample[0]) {
		t.Fatal("x refused the discovered version")
	}
	v2 := sample[0].Ver

	pulls := func(q *Peer) int64 { return q.reg.Snapshot().Get("gossip_pulls_sent_total") }
	yPulls, xSends := pulls(y), x.reg.Snapshot().Get("gossip_payload_bytes_sent_total")
	x.node.Receive(y.id, &gossip.Message{Type: gossip.MsgPull, From: y.id, Need: []directory.NeedEntry{{ID: p.id, Have: v1}}})
	if got := y.reg.Snapshot().Get("gossip_diff_rejects_total"); got != 0 {
		t.Fatalf("y rejected %d chains from x", got)
	}
	if got := pulls(y) - yPulls; got != 0 {
		t.Fatalf("y pulled %d times after x's reply", got)
	}
	if got := x.reg.Snapshot().Get("gossip_payload_bytes_sent_total") - xSends; got != 0 {
		t.Fatalf("x sent %d payload bytes for a version its chain does not reach", got)
	}
	if ver := y.dir.VersionOf(p.id); ver != v2 {
		t.Fatalf("y holds %v, want the relayed %v", ver, v2)
	}
	// The origin's next chain brings y's payload up to its version.
	mustPublish(t, p, `<doc>the next version</doc>`)
	p.node.Receive(y.id, &gossip.Message{Type: gossip.MsgPull, From: y.id, Need: []directory.NeedEntry{{ID: p.id, Have: v1}}})
	got, ver := heldFilter(t, y, p.id)
	if ver != p.node.SelfRecord().Ver || !got.Equal(ownFilter(p)) {
		t.Fatalf("y holds %v, not p's filter at %v", ver, p.node.SelfRecord().Ver)
	}
}

// TestOutOfRangeSegmentRejected: a chain whose segment names a position at
// or past the filter's nbits parses (ParseChain reads only segment headers)
// but is refused when applied — appended to what is held or replacing it —
// so it is neither stored nor acked, and the stored chain still decodes.
func TestOutOfRangeSegmentRejected(t *testing.T) {
	peers := quietCommunity(t, 2, 0)
	p, q := peers[0], peers[1]
	mustPublish(t, p, manyWords("held", 200))
	p.node.Receive(q.id, &gossip.Message{Type: gossip.MsgPull, From: q.id, Need: []directory.NeedEntry{{ID: p.id}}})
	want, have := heldFilter(t, q, p.id)
	stored, _, _ := q.dir.Payload(p.id)
	nbits, _, _, ok := bloom.Header(stored)
	if !ok {
		t.Fatal("stored payload has no header")
	}
	past, err := bloom.EncodeDiff([]uint64{nbits + 3}, int(nbits))
	if err != nil {
		t.Fatal(err)
	}
	held, err := bloom.ParseChain(stored)
	if err != nil {
		t.Fatal(err)
	}
	end := held.End()
	for name, c := range map[string]bloom.Chain{
		"appended": {Epoch: have.Epoch, From: end, Segs: []bloom.Segment{{To: end + 1, Diff: past}}},
		// A base past what q holds replaces it.
		"replacing": {Epoch: have.Epoch, From: end + 1, Base: held.Base, Segs: []bloom.Segment{{To: end + 2, Diff: past}}},
	} {
		rejects := q.reg.Snapshot().Get("gossip_diff_rejects_total")
		rec := p.node.SelfRecord()
		rec.Ver, rec.Payload = directory.Version{Epoch: have.Epoch, Seq: c.End()}, c.Encode()
		(*handler)(q).HandleGossip(p.id, &gossip.Message{Type: gossip.MsgRumor, From: p.id, Updates: []directory.Record{rec}})
		if q.reg.Snapshot().Get("gossip_diff_rejects_total") != rejects+1 {
			t.Errorf("%s: the out-of-range segment was not rejected", name)
		}
		got, ver := heldFilter(t, q, p.id)
		if ver != have || !got.Equal(want) {
			t.Fatalf("%s: q holds %v, want the untouched %v", name, ver, have)
		}
	}
}

// TestHeldTableDropsOldestHalf: the held-version table never exceeds
// heldMax entries; when it fills, the half learned first is dropped and
// counted, and the newest half — an entry raised since, too — survives.
func TestHeldTableDropsOldestHalf(t *testing.T) {
	reg := metrics.NewRegistry()
	h := heldTable{evicted: reg.Counter("gossip_held_evictions_total")}
	put := func(i int) {
		h.mu.Lock()
		h.putLocked(directory.PeerID(i/1024), directory.PeerID(i%1024), directory.Version{Epoch: 1, Seq: 1}, false)
		h.mu.Unlock()
	}
	has := func(i int) bool {
		_, ok := h.get(directory.PeerID(i/1024), directory.PeerID(i%1024))
		return ok
	}
	half := heldMax / 2
	for i := 0; i < heldMax-1; i++ {
		put(i)
	}
	if !has(0) || !has(heldMax-2) || reg.Snapshot().Get("gossip_held_evictions_total") != 0 {
		t.Fatal("a table short of heldMax entries lost one")
	}
	h.mu.Lock()
	h.putLocked(0, 0, directory.Version{Epoch: 1, Seq: 2}, false) // raised: now among the newest
	h.mu.Unlock()
	put(heldMax - 1) // a new entry into a full table
	if got := reg.Snapshot().Get("gossip_held_evictions_total"); got != int64(half-1) {
		t.Fatalf("evicted %d entries, want the older half less the raised one, %d", got, half-1)
	}
	if has(1) || has(half-1) {
		t.Fatal("an entry of the older half survived")
	}
	if v, ok := h.get(0, 0); !ok || v.ver.Seq != 2 {
		t.Fatalf("the raised entry was dropped (%v, %v)", v, ok)
	}
	if !has(half) || !has(heldMax-1) {
		t.Fatal("an entry of the newer half was dropped")
	}
	if n := len(h.cur) + len(h.old); n > heldMax {
		t.Fatalf("the table holds %d entries, over heldMax %d", n, heldMax)
	}
}

// TestUnknownHoldingsGetSegmentsSinceBase: a target whose holdings the
// sender does not know is sent the chain's segments since its base, not the
// full filter. One at or past the base applies them; one behind it rejects
// them, pulls with its exact Have, and is sent the full chain.
func TestUnknownHoldingsGetSegmentsSinceBase(t *testing.T) {
	peers := quietCommunity(t, 3, 0)
	p, q, r := peers[0], peers[1], peers[2]
	v0 := p.node.SelfRecord().Ver
	mustPublish(t, p, manyWords("base", 400))
	v1 := p.node.SelfRecord().Ver
	p.node.Receive(q.id, &gossip.Message{Type: gossip.MsgPull, From: q.id, Need: []directory.NeedEntry{{ID: p.id, Have: v0}}})
	if _, ver := heldFilter(t, q, p.id); ver != v1 {
		t.Fatalf("q holds %v, want %v", ver, v1)
	}
	mustPublish(t, p, `<doc>one small segment past the base</doc>`)
	if c := p.ownChain(); c.From != v1.Seq || len(c.Segs) != 1 {
		t.Fatalf("p's chain runs from %d with %d segments, want from %d with 1", c.From, len(c.Segs), v1.Seq)
	}
	p.held.mu.Lock()
	clear(p.held.cur) // p forgets what q said it holds
	clear(p.held.old)
	p.held.mu.Unlock()

	snap := func(q *Peer, name string) int64 { return q.reg.Snapshot().Get(name) }
	for _, c := range []struct {
		to      *Peer
		rejects int64
	}{{q, 0}, {r, 1}} {
		diffs, fulls := snap(p, "gossip_diff_payloads_sent_total"), snap(p, "gossip_full_payloads_sent_total")
		recs := []directory.Record{p.node.SelfRecord()}
		p.stampPayloads(c.to.id, recs)
		if snap(p, "gossip_diff_payloads_sent_total") != diffs+1 {
			t.Fatalf("peer %d of unknown holdings was not sent the segments", c.to.id)
		}
		(*handler)(c.to).HandleGossip(p.id, &gossip.Message{Type: gossip.MsgRumor, From: p.id, Updates: recs})
		if got := snap(c.to, "gossip_diff_rejects_total"); got != c.rejects {
			t.Fatalf("peer %d rejected %d chains, want %d", c.to.id, got, c.rejects)
		}
		if got := snap(p, "gossip_full_payloads_sent_total") - fulls; got != c.rejects {
			t.Fatalf("peer %d was sent %d full chains, want %d", c.to.id, got, c.rejects)
		}
		got, ver := heldFilter(t, c.to, p.id)
		if ver != p.node.SelfRecord().Ver || !got.Equal(ownFilter(p)) {
			t.Fatalf("peer %d holds %v, not p's filter at %v", c.to.id, ver, p.node.SelfRecord().Ver)
		}
	}
}
