package core

import (
	"errors"
	"fmt"
	"time"

	"planetp/internal/chash"
	"planetp/internal/directory"
	"planetp/internal/doc"
	"planetp/internal/replica"
	"planetp/internal/store"
	"planetp/internal/transport"
)

// Content replication + hoarding wiring (Section 4 of the replication
// design, DESIGN §4j). The replica.Manager owns policy (popularity,
// budget, tombstones) and the replica records; this file logs those
// records in the peer's one WAL and owns placement and serving:
//
//   - Placement rides the brokerage ring: the replica holders of a
//     document are the first target ring successors of Hash(key),
//     excluding the origin. Every converged peer computes the same set
//     locally, so every holder's pushes agree without coordination.
//
//   - Announcement rides the Bloom path: an adopted replica's terms AND
//     a per-document marker term ("doc#<key>") are inserted into the
//     gossiped filter, so remote peers both find replica-held content in
//     searches and resolve a bare document id to its live holders by
//     probing cached filters for the marker.
//
//   - Serving: HandleGetDoc answers from the own store or the replica
//     set and feeds the popularity signal; ResolveDocument ranks
//     candidate holders by directory liveness and fails over, so a fetch
//     succeeds as long as ANY replica is up.

// docMarkerPrefix scopes marker terms; the tokenizer only emits letters
// and digits, so no document term can collide with a marker.
const docMarkerPrefix = "doc#"

func docMarker(key string) string { return docMarkerPrefix + key }

// ReplicaDocs returns the number of locally held replicas.
func (p *Peer) ReplicaDocs() int { return p.rep.Len() }

// ReplicaKeys returns the held replica keys, sorted.
func (p *Peer) ReplicaKeys() []string {
	entries := p.rep.Entries()
	keys := make([]string, len(entries))
	for i, e := range entries {
		keys[i] = e.Key
	}
	return keys
}

// adoptReplica durably stores an offered replica and indexes it for
// serving; seed seeds the local popularity counter so a fresh adoption
// is not immediately GC-eligible.
func (p *Peer) adoptReplica(e replica.Entry, seed float64) {
	ver := p.selfVer()
	var ops []store.Op
	var err error
	p.mu.Lock()
	// An offer is refused (no records) when it is tombstoned, not newer
	// than the held copy, or a document this peer owns: an own document is
	// never shadowed by a replica of itself.
	if _, own, _ := p.holding(e.Key); !own {
		if ops, err = p.rep.PlanPut(e); len(ops) > 0 {
			// A popularity score holds nothing, so it can be seeded ahead
			// of the commit: the GC never sees the new replica cold.
			p.rep.Seed(e.Key, seed)
			err = p.commitLocked(ops, ver)
		}
	}
	p.mu.Unlock()
	if err == nil && len(ops) > 0 {
		p.reg.Counter("replica_adopts_total").Inc()
		p.reg.Counter("replica_evictions_total").Add(int64(len(ops) - 1))
		err = p.announce(false)
	}
	if err != nil {
		p.reg.Counter("replica_adopt_errors_total").Inc()
	}
	p.maybeCompact()
}

// purgeReplica drops a held replica (and, with tomb, records the death
// certificate even if the replica is not held — a purge can arrive
// before the adoption it forbids). Dropping a held replica changes what
// this peer answers, so it announces a new version (paper §3): a searcher
// reuses a peer's earlier answer only while its version stands.
func (p *Peer) purgeReplica(key string, epoch uint32, tomb bool) {
	ver := p.selfVer()
	p.mu.Lock()
	held := p.rep.Has(key)
	ops, err := p.rep.PlanDrop(key, epoch, tomb)
	if err == nil {
		err = p.commitLocked(ops, ver)
	}
	p.mu.Unlock()
	if err == nil && held {
		p.reg.Counter("replica_purges_total").Inc()
		err = p.announce(true)
	}
	if err != nil {
		p.reg.Counter("replica_purge_errors_total").Inc()
	}
	p.maybeCompact()
}

// ResolveDocument fetches a document body from any live holder: the own
// store, the local replica set, then every candidate holder ranked by
// directory liveness — on-line peers whose gossiped filter announces the
// doc marker first, known-off-line holders as a last resort (the
// directory's view may be stale; a "dead" replica that answers is a
// hit). A definitive miss moves to the next candidate; a transport
// failure is a strike against the holder and fails over. It returns
// doc.ErrNotFound only when no candidate holds the document.
func (p *Peer) ResolveDocument(key string) (string, directory.PeerID, error) {
	if xml, err := p.FetchDocument(p.id, key); err == nil {
		return xml, p.id, nil
	}
	marker := docMarker(key)
	online := p.dir.OnlineIDs()
	isOnline := make(map[directory.PeerID]bool, len(online))
	for _, id := range online {
		isOnline[id] = true
	}
	candidates := make([]directory.PeerID, 0, len(online))
	for _, id := range online {
		if id != p.id && p.view.Contains(id, marker) {
			candidates = append(candidates, id)
		}
	}
	for _, id := range p.dir.KnownIDs() {
		if id != p.id && !isOnline[id] && p.view.Contains(id, marker) {
			candidates = append(candidates, id)
		}
	}
	var lastErr error
	for _, id := range candidates {
		xml, err := p.FetchDocument(id, key)
		switch {
		case err == nil:
			return xml, id, nil
		case errors.Is(err, transport.ErrDocNotFound):
			// Stale filter bit or an already-purged replica: definitive
			// miss on this holder, try the next.
		default:
			lastErr = err
		}
	}
	if lastErr != nil {
		return "", 0, fmt.Errorf("core: no reachable holder for %s: %w", key, lastErr)
	}
	return "", 0, fmt.Errorf("%w: %s", doc.ErrNotFound, key)
}

// broadcastPurge pushes death certificates for a removed document to its
// replica placement (best effort; the hoard GC's epoch-supersession
// check catches holders the push misses).
func (p *Peer) broadcastPurge(key string) {
	if p.rep.Factor() <= 1 {
		return
	}
	epoch := p.node.SelfRecord().Ver.Epoch
	ring := p.brokerRing()
	for _, succ := range chash.ReplicaHolders(ring, key, p.id, p.rep.Factor()-1) {
		if succ == p.id {
			continue
		}
		_ = p.contacted(succ, p.tp.ReplicaPurge(succ, key, p.id, epoch))
	}
}

// --- hoarding loop ---

// hoardLoop drives the replication maintenance cycle, every two gossip
// intervals as of the loop's start: push hot held documents to their
// placement, then garbage-collect cooled or superseded replicas.
func (p *Peer) hoardLoop() {
	defer close(p.hoardDone)
	ticker := time.NewTicker(2 * p.node.Interval())
	defer ticker.Stop()
	for {
		select {
		case <-p.stopCh:
			return
		case <-ticker.C:
			p.hoardTick()
		}
	}
}

// hoardTick runs one maintenance cycle.
func (p *Peer) hoardTick() {
	p.pushHotDocs()
	p.gcReplicas()
}

// pushHotDocs is the one repair rule, run by every holder of a hot
// document, origin or replica: the holder's own popularity score sets the
// target, its own on-line view sets the ring, and each placement member
// whose gossiped filter does not announce the document gets a copy. So a
// placement the ring moved, or an origin gone or cooled while its replicas
// serve the fetches, is repaired by whichever holder the fetches warm.
// The push carries the body and the origin's coordinates: the held
// replica's, or this peer at its current epoch for an own document.
func (p *Peer) pushHotDocs() {
	keys, scores := p.rep.HotKeys()
	if len(keys) == 0 {
		return
	}
	ring := p.brokerRing()
	selfEpoch := p.node.SelfRecord().Ver.Epoch
	for i, key := range keys {
		d, own, ok := p.holding(key)
		target := p.rep.TargetReplicas(scores[i])
		if !ok || target == 0 {
			continue
		}
		if own {
			d.Epoch = selfEpoch
		}
		origin := directory.PeerID(d.Origin)
		marker := docMarker(key)
		for _, succ := range chash.ReplicaHolders(ring, key, origin, target) {
			if succ == p.id || p.view.Contains(succ, marker) {
				continue
			}
			// Best effort: the next cycle repairs what a lost push misses.
			_ = p.contacted(succ, p.tp.ReplicaPut(succ, key, d.XML, origin, d.Epoch))
		}
	}
}

// gcReplicas releases cooled replicas and revalidates replicas whose
// origin has gossiped a higher incarnation (the content may have been
// removed while this holder was not looking).
func (p *Peer) gcReplicas() {
	for _, e := range p.rep.ReleaseCandidates() {
		p.purgeReplica(e.Key, e.Epoch, false)
	}
	for _, e := range p.rep.Entries() {
		origin := directory.PeerID(e.Origin)
		cur := p.dir.VersionOf(origin)
		if cur.Epoch <= e.Epoch {
			continue
		}
		xml, err := p.FetchDocument(origin, e.Key)
		switch {
		case err == nil && xml == e.XML:
			// Still current under the new incarnation: refresh the
			// validated epoch so the check does not repeat every cycle.
			p.adoptReplica(replica.Entry{Key: e.Key, Origin: e.Origin, Epoch: cur.Epoch, XML: xml}, p.rep.Score(e.Key))
		case err == nil:
			// Same key, different content: superseded.
			p.purgeReplica(e.Key, cur.Epoch, true)
		case errors.Is(err, transport.ErrDocNotFound):
			// The origin restarted without the document: removed.
			p.purgeReplica(e.Key, cur.Epoch, true)
		default:
			// Origin unreachable: keep serving — that is the point.
		}
	}
}
