package core

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"planetp/internal/replica"
)

// Snapshot is the payload of a durable peer's snapshot file: everything
// the WAL records up to the snapshot's fold LSN, folded into one state.
// The version counters matter as much as the documents — a restarted
// incarnation must announce itself with an epoch that supersedes
// everything the previous one gossiped, or the community will discard its
// records as stale.
type Snapshot struct {
	// ID is the peer's community id.
	ID int32
	// Epoch and Seq are the last gossiped version counters.
	Epoch, Seq uint32
	// Docs are the raw XML of the peer's own documents.
	Docs []string
	// Replicas and Tombs are the hoard: the held replicas and the replica
	// layer's death certificates (key -> origin epoch purged under).
	Replicas []replica.Entry
	Tombs    map[string]uint32
}

// MaxSnapshotBytes is the default DecodeSnapshot input bound. Snapshots
// come from disk; a corrupt length must fail fast instead of ballooning
// memory during decode.
const MaxSnapshotBytes = 256 << 20

// DecodeSnapshot parses a Snapshot, bounding input at MaxSnapshotBytes.
func DecodeSnapshot(data []byte) (Snapshot, error) {
	return DecodeSnapshotLimit(data, MaxSnapshotBytes)
}

// DecodeSnapshotLimit parses a Snapshot, rejecting inputs over limit
// bytes (limit <= 0 means MaxSnapshotBytes).
func DecodeSnapshotLimit(data []byte, limit int64) (Snapshot, error) {
	if limit <= 0 {
		limit = MaxSnapshotBytes
	}
	if int64(len(data)) > limit {
		return Snapshot{}, fmt.Errorf("core: snapshot: %d bytes exceeds the %d-byte limit", len(data), limit)
	}
	var snap Snapshot
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&snap); err != nil {
		return Snapshot{}, fmt.Errorf("core: snapshot: %w", err)
	}
	return snap, nil
}

// restoreHoard loads a snapshot's replicas and tombstones into a freshly
// constructed peer and indexes the replicas; its documents are recovered
// as a run of publish records.
func (p *Peer) restoreHoard(snap Snapshot) error {
	if int32(p.id) != snap.ID {
		return fmt.Errorf("core: snapshot belongs to peer %d, not %d", snap.ID, p.id)
	}
	p.rep.Restore(snap.Replicas, snap.Tombs)
	p.mu.Lock()
	for _, e := range snap.Replicas {
		p.indexReplicaLocked(e)
	}
	p.mu.Unlock()
	return nil
}
