package core

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"planetp/internal/directory"
)

// Snapshot is a peer's durable state: everything needed to restart with
// the same identity and content. The version counters matter as much as
// the documents — a restarted incarnation must announce itself with an
// epoch that supersedes everything the previous one gossiped, or the
// community will discard its records as stale.
type Snapshot struct {
	// ID is the peer's community id.
	ID int32
	// Epoch and Seq are the last gossiped version counters.
	Epoch, Seq uint32
	// Docs are the raw XML documents in the local store.
	Docs []string
}

// Snapshot serializes the peer's durable state.
func (p *Peer) Snapshot() ([]byte, error) {
	ver := p.node.SelfRecord().Ver
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.encodeSnapshot(ver)
}

// encodeSnapshot gob-encodes the peer's durable state at the given
// version. The caller holds p.mu, so the document set is a consistent
// cut with respect to Publish/Remove (and, for durable peers, with the
// WAL append order — see snapshotSource).
func (p *Peer) encodeSnapshot(ver directory.Version) ([]byte, error) {
	snap := Snapshot{ID: int32(p.id), Epoch: ver.Epoch, Seq: ver.Seq}
	for _, d := range p.store.All() {
		snap.Docs = append(snap.Docs, d.Raw)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(snap); err != nil {
		return nil, fmt.Errorf("core: snapshot: %w", err)
	}
	return buf.Bytes(), nil
}

// MaxSnapshotBytes is the default DecodeSnapshot input bound. Snapshots
// come from disk or from operator-supplied files; a corrupt or hostile
// length must fail fast instead of ballooning memory during decode.
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

// restore republishes a snapshot's documents into a freshly constructed
// peer as one batch — one index pass, one summary flush, one gossip
// version, however many documents (called before Start, so nothing goes
// on the wire; the final filter gossips as one announcement once
// gossiping begins).
func (p *Peer) restore(snap Snapshot) error {
	if int32(p.id) != snap.ID {
		return fmt.Errorf("core: snapshot belongs to peer %d, not %d", snap.ID, p.id)
	}
	if _, err := p.PublishBatch(snap.Docs); err != nil {
		return fmt.Errorf("core: restoring documents: %w", err)
	}
	return nil
}
