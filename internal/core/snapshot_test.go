package core

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"planetp/internal/store"
)

// readSnapshot reopens a stopped peer's data directory the way a
// restarting peer (and bench/check.go) does and decodes its snapshot
// payload.
func readSnapshot(t *testing.T, fs store.FS) (Snapshot, store.Recovery) {
	t.Helper()
	st, rec, err := store.Open(store.Options{Dir: "data", FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	st.Close()
	if rec.Snapshot == nil {
		t.Fatal("data directory holds no snapshot")
	}
	snap, err := DecodeSnapshot(rec.Snapshot)
	if err != nil {
		t.Fatal(err)
	}
	return snap, rec
}

// The snapshot a graceful Stop folds carries the whole durable state —
// own documents, replicas, tombstones, version counters — and a restart
// from it alone (no WAL to replay) restores all of it.
func TestSnapshotRoundTrip(t *testing.T) {
	mem := store.NewMemFS()
	p := durableReplicaPeer(t, mem, store.Options{})
	p.Publish(`<a>first document body</a>`)
	p.Publish(`<b>second document body</b>`)
	reps := testReplicaEntries()
	p.adoptReplica(reps[0], 5)
	p.adoptReplica(reps[1], 5)
	p.purgeReplica(reps[1].Key, 3, true)
	verBefore := p.node.SelfRecord().Ver
	p.Stop()

	snap, rec := readSnapshot(t, mem)
	if snap.ID != 0 || len(snap.Docs) != 2 || len(rec.Ops) != 0 {
		t.Fatalf("snapshot = %+v with %d WAL ops after it", snap, len(rec.Ops))
	}
	if snap.Epoch != verBefore.Epoch || snap.Seq != verBefore.Seq {
		t.Fatalf("versions not captured: %+v vs %v", snap, verBefore)
	}
	if len(snap.Replicas) != 1 || snap.Replicas[0] != reps[0] {
		t.Fatalf("snapshot replicas = %+v, want only %+v", snap.Replicas, reps[0])
	}
	if !reflect.DeepEqual(snap.Tombs, map[string]uint32{reps[1].Key: 3}) {
		t.Fatalf("snapshot tombstones = %v", snap.Tombs)
	}

	q := durableReplicaPeer(t, mem, store.Options{})
	defer q.Stop()
	if q.LocalDocs() != 2 || fmt.Sprint(q.ReplicaKeys()) != fmt.Sprint([]string{reps[0].Key}) {
		t.Fatalf("restored %d docs and replicas %v", q.LocalDocs(), q.ReplicaKeys())
	}
	if !q.rep.Tombstoned(reps[1].Key, 3) || q.rep.Tombstoned(reps[1].Key, 4) {
		t.Fatal("tombstone not restored")
	}
	if got := q.node.SelfRecord().Ver.Epoch; got != snap.Epoch+1 {
		t.Fatalf("restored epoch = %d, want %d", got, snap.Epoch+1)
	}
	// Restored content, own and hoarded, is locally searchable.
	if docs, _ := q.Search("second document", 3); len(docs) == 0 {
		t.Fatal("restored docs not searchable")
	}
	if docs := q.localQuery([]string{"falcon"}, false); len(docs) != 1 || docs[0].Key != reps[0].Key {
		t.Fatalf("restored replica not searchable: %+v", docs)
	}
}

// A restored incarnation must gossip from a version that strictly
// supersedes everything the previous incarnation announced, or the
// community discards its records as stale. Publish enough documents
// that Seq advances well past zero before the snapshot is taken.
func TestSnapshotRestoredVersionSupersedes(t *testing.T) {
	mem := store.NewMemFS()
	p := durablePeer(t, mem, store.Options{})
	for i := 0; i < 5; i++ {
		if _, err := p.Publish(fmt.Sprintf(`<doc%d>body number %d walrus</doc%d>`, i, i, i)); err != nil {
			t.Fatal(err)
		}
	}
	oldVer := p.node.SelfRecord().Ver
	if oldVer.Seq == 0 {
		t.Fatal("publishing did not advance Seq; test needs a non-trivial version")
	}
	p.Stop()

	snap, _ := readSnapshot(t, mem)
	if snap.Epoch != oldVer.Epoch || snap.Seq != oldVer.Seq {
		t.Fatalf("snapshot counters %d/%d, want %d/%d",
			snap.Epoch, snap.Seq, oldVer.Epoch, oldVer.Seq)
	}

	q := durablePeer(t, mem, store.Options{})
	defer q.Stop()
	newVer := q.node.SelfRecord().Ver
	if newVer.Epoch != snap.Epoch+1 {
		t.Fatalf("restored epoch = %d, want %d", newVer.Epoch, snap.Epoch+1)
	}
	if !oldVer.Less(newVer) {
		t.Fatalf("restored version %v does not supersede %v", newVer, oldVer)
	}
	if q.LocalDocs() != 5 {
		t.Fatalf("restored %d docs, want 5", q.LocalDocs())
	}
}

// A data directory written by one peer must not be adopted by another.
func TestSnapshotWrongPeerRejected(t *testing.T) {
	mem := store.NewMemFS()
	p := durablePeer(t, mem, store.Options{})
	p.Publish(`<a>owned by peer zero</a>`)
	p.Stop()
	_, err := NewPeer(Config{
		ID: 2, Capacity: 4, Gossip: fastGossip(),
		DataDir: "data", Store: store.Options{FS: mem},
	})
	if err == nil || !strings.Contains(err.Error(), "belongs to peer 0") {
		t.Fatalf("foreign data directory accepted: %v", err)
	}
}

// A snapshot file that passes the store's checksum but whose payload is
// not a Snapshot fails the start instead of starting empty.
func TestSnapshotGarbageRejected(t *testing.T) {
	if _, err := DecodeSnapshot([]byte("not a snapshot")); err == nil {
		t.Fatal("garbage decoded")
	}
	mem := store.NewMemFS()
	st, _, err := store.Open(store.Options{Dir: "data", FS: mem})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SaveSnapshot(store.SnapshotData{Payload: []byte{1, 2, 3}, Epoch: 1}); err != nil {
		t.Fatal(err)
	}
	st.Close()
	_, err = NewPeer(Config{
		ID: 0, Capacity: 2, Gossip: fastGossip(),
		DataDir: "data", Store: store.Options{FS: mem},
	})
	if err == nil || !strings.Contains(err.Error(), "recovered snapshot") {
		t.Fatalf("garbage snapshot payload accepted: %v", err)
	}
}
