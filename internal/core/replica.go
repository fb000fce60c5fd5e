package core

import (
	"errors"
	"fmt"
	"path/filepath"
	"time"

	"planetp/internal/chash"
	"planetp/internal/directory"
	"planetp/internal/doc"
	"planetp/internal/replica"
	"planetp/internal/store"
	"planetp/internal/text"
	"planetp/internal/transport"
)

// Content replication + hoarding wiring (Section 4 of the replication
// design, DESIGN §4j). The replica.Manager owns policy (popularity,
// budget, tombstones, durability); this file owns placement and serving:
//
//   - Placement rides the brokerage ring: the replica holders of a
//     document are the first target ring successors of Hash(key),
//     excluding the origin. Every converged peer computes the same set
//     locally, so pushes and pulls agree without coordination.
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

// hoardPullMax bounds one hoard pull's advertisement size.
const hoardPullMax = 32

// setupReplica builds the replica manager and, for durable peers, mounts
// and replays the replica store. Runs inside NewPeer after the main
// store's recovery: restored replicas are re-ingested and re-announced
// exactly as recovered — the fsynced set, never a torn suffix.
func (p *Peer) setupReplica() error {
	p.rep = replica.NewManager(replica.Config{
		Factor:   p.cfg.Replicas,
		Budget:   p.cfg.HoardBudget,
		HalfLife: p.cfg.HoardHalfLife,
		Now:      p.tp.Now,
		Metrics:  p.reg,
	})
	if p.cfg.DataDir == "" {
		return nil
	}
	so := p.cfg.Store
	so.Dir = filepath.Join(p.cfg.DataDir, "replicas")
	// The replica store shares no gauges with the document store; a
	// second registry client would clobber the main store's instruments.
	so.Metrics = nil
	st, rec, err := store.Open(so)
	if err != nil {
		return fmt.Errorf("core: opening replica store: %w", err)
	}
	restored, err := p.rep.Replay(rec)
	if err != nil {
		st.Close()
		return fmt.Errorf("core: replaying replica store: %w", err)
	}
	p.repStore = st
	p.rep.AttachStore(st)
	if len(restored) > 0 {
		p.mu.Lock()
		for _, e := range restored {
			p.ingestReplicaLocked(e)
		}
		diff, payload, err := p.summary.Flush()
		p.mu.Unlock()
		if err != nil {
			return err
		}
		p.node.Publish(len(diff), len(payload), payload)
	}
	st.SetSnapshotSource(p.replicaSnapshotSource)
	return nil
}

// replicaSnapshotSource feeds the replica store's compaction. The
// manager captures payload and fold LSN under its own lock, so an
// adoption racing compaction is either in the payload or above FoldLSN.
func (p *Peer) replicaSnapshotSource() (store.SnapshotData, error) {
	ver := p.node.SelfRecord().Ver
	payload, lsn, err := p.rep.SnapshotPayloadLSN()
	if err != nil {
		return store.SnapshotData{}, err
	}
	return store.SnapshotData{
		Payload: payload, Epoch: ver.Epoch, Seq: ver.Seq, FoldLSN: lsn,
	}, nil
}

// ReplicaDocs returns the number of locally held replicas.
func (p *Peer) ReplicaDocs() int {
	if p.rep == nil {
		return 0
	}
	return p.rep.Len()
}

// ReplicaKeys returns the held replica keys, sorted.
func (p *Peer) ReplicaKeys() []string {
	if p.rep == nil {
		return nil
	}
	entries := p.rep.Entries()
	keys := make([]string, len(entries))
	for i, e := range entries {
		keys[i] = e.Key
	}
	return keys
}

// recordHit feeds one served fetch into the popularity tracker.
func (p *Peer) recordHit(key string) {
	if p.rep != nil {
		p.rep.Hit(key)
	}
}

// ingestReplicaLocked indexes a replica's terms for search and announces
// them — plus the doc marker — through the Bloom summary. The summary is
// NOT flushed; callers flush once per batch and gossip the diff. Caller
// holds p.mu.
func (p *Peer) ingestReplicaLocked(e replica.Entry) {
	if _, ok := p.docOf[e.Key]; ok {
		return // already indexed (epoch refresh)
	}
	var a text.Analyzer
	ad := p.analyzeOne(e.XML, &a)
	id := p.index.AddTermFreqs(ad.freqs)
	p.docOf[e.Key] = id
	p.keyOf[id] = e.Key
	for t := range ad.freqs {
		p.summary.Insert(t)
		p.counting.Add(t)
	}
	p.summary.Insert(docMarker(e.Key))
	p.counting.Add(docMarker(e.Key))
	releaseFreqs(ad.freqs)
}

// unIngestReplicaLocked removes a replica's terms from the index and the
// counting filter (the gossiped plain filter keeps stale bits until the
// next Compact, exactly like Remove). Caller holds p.mu.
func (p *Peer) unIngestReplicaLocked(key string) {
	id, ok := p.docOf[key]
	if !ok {
		return
	}
	for _, t := range p.index.DocTerms(id) {
		p.counting.Remove(t)
	}
	p.index.RemoveDocument(id)
	delete(p.docOf, key)
	delete(p.keyOf, id)
	p.counting.Remove(docMarker(key))
}

// adoptReplica durably stores an offered replica and ingests it for
// serving; seed seeds the local popularity counter so a fresh adoption
// is not immediately GC-eligible. Own documents are never shadowed by a
// replica of themselves.
func (p *Peer) adoptReplica(e replica.Entry, seed float64) {
	if p.rep == nil {
		return
	}
	if _, err := p.store.Get(e.Key); err == nil {
		return
	}
	if !p.rep.Accepts(e.Key, e.Epoch) {
		return
	}
	evicted, err := p.rep.Put(e, seed)
	if err != nil {
		p.reg.Counter("replica_adopt_errors_total").Inc()
		return
	}
	if !p.rep.Has(e.Key) {
		return // refused (raced tombstone)
	}
	p.mu.Lock()
	for _, ev := range evicted {
		p.unIngestReplicaLocked(ev.Key)
	}
	p.ingestReplicaLocked(e)
	pending := p.summary.Pending()
	var diff, payload []byte
	if pending > 0 {
		diff, payload, err = p.summary.Flush()
	}
	p.mu.Unlock()
	if pending > 0 && err == nil {
		p.node.Publish(len(diff), len(payload), payload)
	}
}

// purgeReplica drops a held replica (and, with tomb, records the death
// certificate even if the replica is not held — a purge can arrive
// before the adoption it forbids).
func (p *Peer) purgeReplica(key string, epoch uint32, tomb bool) {
	if p.rep == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	_, held, err := p.rep.Purge(key, epoch, tomb)
	if err != nil {
		p.reg.Counter("replica_purge_errors_total").Inc()
		return
	}
	if held {
		p.unIngestReplicaLocked(key)
	}
}

// replicaHolders computes the replica placement for key: the first n
// distinct ring successors of Hash(key), excluding the origin. Every
// converged peer computes the identical set.
func replicaHolders(ring *chash.Ring[directory.PeerID], key string, origin directory.PeerID, n int) []directory.PeerID {
	if n <= 0 {
		return nil
	}
	out := make([]directory.PeerID, 0, n)
	for _, id := range ring.Successors(chash.Hash(key), n+1) {
		if id == origin {
			continue
		}
		out = append(out, id)
		if len(out) == n {
			break
		}
	}
	return out
}

// ResolveDocument fetches a document body from any live holder: the own
// store, the local replica set, then every candidate holder ranked by
// directory liveness — on-line peers whose gossiped filter announces the
// doc marker first, known-off-line holders as a last resort (the
// directory's view may be stale; a "dead" replica that answers is a
// hit). A definitive miss moves to the next candidate; a transport
// failure marks the holder off-line and fails over. It returns
// doc.ErrNotFound only when no candidate holds the document.
func (p *Peer) ResolveDocument(key string) (string, directory.PeerID, error) {
	if d, err := p.store.Get(key); err == nil {
		p.recordHit(key)
		return d.Raw, p.id, nil
	}
	if p.rep != nil {
		if e, ok := p.rep.Get(key); ok {
			p.recordHit(key)
			return e.XML, p.id, nil
		}
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
		xml, err := p.tp.GetDoc(id, key)
		switch {
		case err == nil:
			return xml, id, nil
		case errors.Is(err, transport.ErrDocNotFound):
			// Stale filter bit or an already-purged replica: definitive
			// miss on this holder, try the next.
		default:
			p.dir.MarkOffline(id, p.tp.Now())
			lastErr = err
		}
	}
	if lastErr != nil {
		return "", 0, fmt.Errorf("core: no reachable holder for %s: %w", key, lastErr)
	}
	return "", 0, fmt.Errorf("%w: %s", doc.ErrNotFound, key)
}

// hotDocs serves a hoard pull: the hottest locally held documents (own
// or replica) with their origin coordinates and scores.
func (p *Peer) hotDocs(max int) []replica.HotDoc {
	if p.rep == nil || max <= 0 {
		return nil
	}
	keys, scores := p.rep.HotKeys()
	selfEpoch := p.node.SelfRecord().Ver.Epoch
	out := make([]replica.HotDoc, 0, max)
	for i, k := range keys {
		if len(out) == max {
			break
		}
		if _, err := p.store.Get(k); err == nil {
			out = append(out, replica.HotDoc{Key: k, Origin: int32(p.id), Epoch: selfEpoch, Score: scores[i]})
		} else if e, ok := p.rep.Get(k); ok {
			out = append(out, replica.HotDoc{Key: e.Key, Origin: e.Origin, Epoch: e.Epoch, Score: scores[i]})
		}
	}
	return out
}

// broadcastPurge pushes death certificates for a removed document to its
// replica placement (best effort; the hoard GC's epoch-supersession
// check catches holders the push misses).
func (p *Peer) broadcastPurge(key string) {
	if p.rep == nil || p.rep.Factor() <= 1 || p.replaying {
		return
	}
	epoch := p.node.SelfRecord().Ver.Epoch
	ring := p.brokerRing()
	for _, succ := range replicaHolders(ring, key, p.id, p.rep.Factor()-1) {
		if succ == p.id {
			continue
		}
		_ = p.tp.ReplicaPurge(succ, key, p.id, epoch)
	}
}

// --- hoarding loop ---

// hoardLoop drives the replication maintenance cycle: push own hot
// documents to their placement, pull hot documents this peer is
// ring-responsible for, and garbage-collect cooled or superseded
// replicas.
func (p *Peer) hoardLoop() {
	defer close(p.hoardDone)
	iv := p.cfg.HoardInterval
	if iv <= 0 {
		iv = 2 * p.node.Interval()
	}
	ticker := time.NewTicker(iv)
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
	p.pullHotDocs()
	p.gcReplicas()
}

// pushHotDocs replicates this peer's own hot documents to ring
// successors that do not yet announce them. The push carries the body —
// the origin is up now; by the time it is not, the copies exist.
func (p *Peer) pushHotDocs() {
	keys, scores := p.rep.HotKeys()
	if len(keys) == 0 {
		return
	}
	ring := p.brokerRing()
	selfEpoch := p.node.SelfRecord().Ver.Epoch
	for i, key := range keys {
		d, err := p.store.Get(key)
		if err != nil {
			continue // only the origin pushes
		}
		target := p.rep.TargetReplicas(scores[i])
		if target == 0 {
			continue
		}
		marker := docMarker(key)
		for _, succ := range replicaHolders(ring, key, p.id, target) {
			if succ == p.id || p.view.Contains(succ, marker) {
				continue
			}
			if err := p.tp.ReplicaPut(succ, key, d.Raw, p.id, selfEpoch); err != nil {
				p.dir.MarkOffline(succ, p.tp.Now())
			}
		}
	}
}

// pullHotDocs asks one random on-line peer for its hot documents and
// adopts those this peer is ring-responsible for (the hoarding pull:
// popularity spreads through exchanges even when the origin never pushed
// here, e.g. after ring churn reassigned the placement).
func (p *Peer) pullHotDocs() {
	p.mu.Lock()
	q, ok := p.dir.PickOnline(p.userRandLocked(), func(id directory.PeerID, e directory.Entry) bool {
		return id != p.id
	})
	p.mu.Unlock()
	if !ok {
		return
	}
	hot, err := p.tp.HotDocs(q, hoardPullMax)
	if err != nil {
		p.dir.MarkOffline(q, p.tp.Now())
		return
	}
	if len(hot) == 0 {
		return
	}
	ring := p.brokerRing()
	for _, h := range hot {
		origin := directory.PeerID(h.Origin)
		if origin == p.id {
			continue
		}
		if _, err := p.store.Get(h.Key); err == nil {
			continue
		}
		target := p.rep.TargetReplicas(h.Score)
		if target == 0 || !p.rep.Accepts(h.Key, h.Epoch) {
			continue
		}
		responsible := false
		for _, id := range replicaHolders(ring, h.Key, origin, target) {
			if id == p.id {
				responsible = true
				break
			}
		}
		if !responsible {
			continue
		}
		xml, err := p.tp.GetDoc(q, h.Key)
		if err != nil {
			continue // the advertiser lost it or churned; next cycle
		}
		p.adoptReplica(replica.Entry{Key: h.Key, Origin: h.Origin, Epoch: h.Epoch, XML: xml}, h.Score)
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
		xml, err := p.tp.GetDoc(origin, e.Key)
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
