package core

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"planetp/internal/directory"
	"planetp/internal/store"
)

// Durable peer state. When Config.DataDir is set, the peer has one
// store.Store there and every change to what it holds — Publish/Remove of
// its own documents, adoption/eviction/purge of replicas — is a record
// appended to that store's write-ahead log before it is applied (the
// write path of ingest.go). The log is periodically folded into
// checksummed snapshots (temp + fsync + rename), and NewPeer applies
// snapshot + WAL on startup, in log order. The recovered version counters
// floor the restarted incarnation's epoch bump, so the community discards
// everything the dead incarnation gossiped — the paper's
// epoch-supersession requirement, now with something durable to stand on.

// RecoverySummary reports what a durable peer restored at startup
// (planetp-node logs it; tests assert on it).
type RecoverySummary struct {
	// Enabled reports whether the peer runs with a durable store.
	Enabled bool
	// DocsRestored is how many own documents recovery restored;
	// ReplicasRestored how many hoarded replicas it holds again.
	DocsRestored, ReplicasRestored int
	// OpsReplayed is how many WAL operations were replayed on top of the
	// snapshot.
	OpsReplayed int
	// TruncatedRecords / TruncatedBytes count the torn WAL tail dropped.
	TruncatedRecords int
	TruncatedBytes   int64
	// Quarantined lists unreadable files moved aside (never deleted).
	Quarantined []string
	// RecoveredEpoch and RecoveredSeq are the highest version counters
	// found on disk; NewEpoch is what this incarnation announces.
	RecoveredEpoch, RecoveredSeq uint32
	NewEpoch                     uint32
}

// String renders the one-line startup log.
func (r RecoverySummary) String() string {
	if !r.Enabled {
		return "durable store disabled"
	}
	s := fmt.Sprintf("recovered %d docs and %d replicas (%d WAL ops replayed), epoch %d -> %d",
		r.DocsRestored, r.ReplicasRestored, r.OpsReplayed, r.RecoveredEpoch, r.NewEpoch)
	if r.TruncatedRecords > 0 {
		s += fmt.Sprintf(", truncated %d torn record(s) / %d bytes", r.TruncatedRecords, r.TruncatedBytes)
	}
	if len(r.Quarantined) > 0 {
		s += fmt.Sprintf(", quarantined %v", r.Quarantined)
	}
	return s
}

// Recovery returns what the durable store restored at startup (zero
// value when DataDir is unset).
func (p *Peer) Recovery() RecoverySummary { return p.recovery }

// openStore mounts the durable store and computes the epoch floor. It
// runs before the gossip node exists (the recovered epoch feeds the
// node's initial record).
func openStore(cfg *Config) (*store.Store, store.Recovery, error) {
	so := cfg.Store
	so.Dir = cfg.DataDir
	so.Metrics = cfg.Metrics
	st, rec, err := store.Open(so)
	if err != nil {
		return nil, store.Recovery{}, fmt.Errorf("core: opening data dir %s: %w", cfg.DataDir, err)
	}
	return st, rec, nil
}

// recoverFrom rebuilds the peer's documents and hoard from the recovered
// snapshot and WAL suffix with the write path's apply step alone: nothing
// is logged again, nothing is sent or counted as ingest, and one
// announcement at the end covers everything. It runs inside NewPeer, after
// the gossip node exists but before Start. Each maximal run of consecutive
// publish records is applied as one batch (one analysis fan-out, one index
// pass); everything else is applied record by record, so a remove or a
// replica release between two publishes of the same key still lands
// between them.
func (p *Peer) recoverFrom(rec store.Recovery) error {
	summary := RecoverySummary{
		Enabled:          true,
		OpsReplayed:      len(rec.Ops),
		TruncatedRecords: rec.TruncatedRecords,
		TruncatedBytes:   rec.TruncatedBytes,
		Quarantined:      rec.Quarantined,
		RecoveredEpoch:   rec.Epoch,
		RecoveredSeq:     rec.Seq,
		NewEpoch:         p.node.SelfRecord().Ver.Epoch,
	}
	var run []string // the publish records since the last record of another kind
	if rec.Snapshot != nil {
		snap, err := DecodeSnapshot(rec.Snapshot)
		if err != nil {
			return fmt.Errorf("core: recovered snapshot: %w", err)
		}
		// Monotonicity validation: the checksummed store header records
		// the version the writer captured; a payload claiming different
		// counters is inconsistent and must not be adopted — it would
		// undermine the epoch bump derived from the header.
		if snap.Epoch != rec.SnapshotHeader.Epoch || snap.Seq != rec.SnapshotHeader.Seq {
			return fmt.Errorf("core: snapshot payload version %d.%d disagrees with store header %d.%d",
				snap.Epoch, snap.Seq, rec.SnapshotHeader.Epoch, rec.SnapshotHeader.Seq)
		}
		if err := p.restoreHoard(snap); err != nil {
			return err
		}
		run = snap.Docs // the folded log's publishes open the first run
	}
	shrunk := false // a recovered remove or release left stale filter bits
	for _, op := range rec.Ops {
		if op.Kind == store.OpPublish {
			run = append(run, op.Data)
			continue
		}
		shrunk = shrunk || op.Kind != store.OpReplicaPut
		if err := p.recoverPublishes(run); err != nil {
			return fmt.Errorf("core: recovering the publishes before %v: %w", op, err)
		}
		run = run[:0]
		p.mu.Lock()
		err := p.applyLocked(op)
		p.mu.Unlock()
		if err != nil {
			return fmt.Errorf("core: recovering %v: %w", op, err)
		}
	}
	if err := p.recoverPublishes(run); err != nil {
		return fmt.Errorf("core: recovering the last %d publishes: %w", len(run), err)
	}
	// A live peer gossips the bits a remove or a release strands until the
	// next Compact; a restart announces a whole filter anyway, so it
	// announces an exact one — no marker for a document it does not hold.
	if shrunk {
		p.Compact()
	} else if err := p.gossipPending(); err != nil {
		return err
	}
	summary.DocsRestored, summary.ReplicasRestored = p.LocalDocs(), p.ReplicaDocs()
	p.recovery = summary
	p.reg.Gauge("store_recovered_docs").Set(int64(summary.DocsRestored))
	return nil
}

// recoverPublishes applies a run of recovered publish records (raw XML).
func (p *Peer) recoverPublishes(xmls []string) error {
	if len(xmls) == 0 {
		return nil
	}
	ana, err := p.analyzeBatch(xmls)
	if err != nil {
		return err
	}
	p.mu.Lock()
	fresh := p.planPublishLocked(ana)
	p.applyPublishLocked(fresh)
	p.mu.Unlock()
	for _, ad := range fresh {
		releaseFreqs(ad.freqs)
	}
	return nil
}

// snapshotSource feeds the store's compaction: the peer's full state —
// own documents, replicas, tombstones — the gossip version it captures,
// and the WAL position it folds through. Every append, of either kind of
// record, is made under p.mu, and p.mu is held from the capture to the
// LSN read, so an op is in the payload if and only if its LSN is at or
// below FoldLSN; a Publish or an adoption racing with compaction can
// never be stamped as folded in without being in the snapshot. The
// capture copies only references to immutable bodies; the encoding, the
// work that grows with the corpus, runs after p.mu is released.
func (p *Peer) snapshotSource() (store.SnapshotData, error) {
	ver := p.node.SelfRecord().Ver
	p.mu.Lock()
	snap := Snapshot{ID: int32(p.id), Epoch: ver.Epoch, Seq: ver.Seq, Docs: p.store.All()}
	snap.Replicas, snap.Tombs = p.rep.State()
	fold := p.st.LastLSN()
	p.mu.Unlock()
	// The payload is at most the last one plus what the log has recorded
	// since, so the buffer is sized once and never regrown mid-encode.
	buf := bytes.NewBuffer(make([]byte, 0, p.snapSize.Load()+p.st.WALSize()))
	if err := gob.NewEncoder(buf).Encode(snap); err != nil {
		return store.SnapshotData{}, fmt.Errorf("core: snapshot: %w", err)
	}
	p.snapSize.Store(int64(buf.Len()))
	return store.SnapshotData{
		Payload: buf.Bytes(),
		Epoch:   ver.Epoch,
		Seq:     ver.Seq,
		FoldLSN: fold,
	}, nil
}

// logBatch is the write path's log step: it appends records to the WAL as
// one batch (one write, one fsync), stamped with the peer's own gossip
// version (a no-op when the peer is not durable). The caller holds p.mu from the
// append to the apply, so WAL order is apply order — a concurrent
// Remove/Publish of one document can never replay the other way round.
func (p *Peer) logBatch(ops []store.Op, ver directory.Version) error {
	if p.st == nil || len(ops) == 0 {
		return nil
	}
	for i := range ops {
		ops[i].Epoch, ops[i].Seq = ver.Epoch, ver.Seq
	}
	_, err := p.st.AppendBatch(ops)
	return err
}

// maybeCompact folds the WAL into a snapshot once it passes the size
// threshold. Called after p.mu is released (the snapshot source
// re-takes it). A compaction failure never fails the operation that
// triggered it — the record is already durably committed; the WAL just
// keeps growing until a later compaction succeeds — so it is only
// counted.
func (p *Peer) maybeCompact() {
	if p.st == nil {
		return
	}
	if err := p.st.MaybeCompact(); err != nil {
		p.reg.Counter("store_compaction_errors_total").Inc()
	}
}

// finalSnapshot folds the entire state into a snapshot at shutdown so
// the next start replays no WAL (best-effort: a failure here still
// leaves the synced WAL to recover from).
func (p *Peer) finalSnapshot() {
	if p.st == nil {
		return
	}
	if data, err := p.snapshotSource(); err == nil {
		p.st.SaveSnapshot(data)
	}
	p.st.Close()
}
