package core

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"planetp/internal/directory"
	"planetp/internal/replica"
	"planetp/internal/store"
)

// durablePeer builds a peer whose store lives on the given MemFS (or a
// FaultFS over it) so restarts and crashes are fully simulated.
func durablePeer(t *testing.T, fs store.FS, opts store.Options) *Peer {
	t.Helper()
	opts.FS = fs
	p, err := NewPeer(Config{
		ID: 0, Capacity: 4, Gossip: fastGossip(),
		DataDir: "data", Store: opts,
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestDurablePeerRestartsFromDisk(t *testing.T) {
	mem := store.NewMemFS()
	p := durablePeer(t, mem, store.Options{})
	if _, err := p.Publish(`<a>durable walrus one</a>`); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Publish(`<b>durable walrus two</b>`); err != nil {
		t.Fatal(err)
	}
	d, err := p.Publish(`<c>ephemeral heron three</c>`)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Remove(d.ID) {
		t.Fatal("remove failed")
	}
	oldVer := p.node.SelfRecord().Ver
	p.Stop() // graceful: folds a final snapshot

	q := durablePeer(t, mem, store.Options{})
	defer q.Stop()
	rec := q.Recovery()
	if !rec.Enabled {
		t.Fatal("recovery summary not enabled")
	}
	if q.LocalDocs() != 2 || rec.DocsRestored != 2 {
		t.Fatalf("restored %d docs (summary %d), want 2", q.LocalDocs(), rec.DocsRestored)
	}
	// Graceful shutdown folded everything into the snapshot: no WAL
	// replay needed.
	if rec.OpsReplayed != 0 {
		t.Fatalf("replayed %d WAL ops after graceful shutdown, want 0", rec.OpsReplayed)
	}
	// Recovery restores state; it ingests nothing.
	if got := q.Metrics().Gauge("store_recovered_docs").Value(); got != 2 {
		t.Fatalf("store_recovered_docs = %d, want 2", got)
	}
	if got := q.Metrics().Counter("ingest_docs_total").Value(); got != 0 {
		t.Fatalf("restart counted %d recovered documents as ingest", got)
	}
	newVer := q.node.SelfRecord().Ver
	if !oldVer.Less(newVer) {
		t.Fatalf("restarted version %v does not supersede %v", newVer, oldVer)
	}
	// The snapshot's documents come back as one batch: the self record
	// advances by one version, not one per document.
	if want := (directory.Version{Epoch: rec.RecoveredEpoch + 1, Seq: 1}); newVer != want {
		t.Fatalf("restored self record at %v, want %v (one version for the whole snapshot)", newVer, want)
	}
	docs, _ := q.Search("durable walrus", 4)
	if len(docs) != 2 {
		t.Fatalf("restored docs not searchable: %d hits", len(docs))
	}
	docs, _ = q.Search("ephemeral heron", 4)
	if len(docs) != 0 {
		t.Fatal("removed doc resurrected after restart")
	}
}

// Kill -9: no graceful shutdown, the last WAL append is torn mid-write,
// unsynced bytes are lost. Recovery must keep every fully committed
// publish, truncate the tear, and bump the epoch past the recovered
// counters.
func TestDurablePeerCrashRecovery(t *testing.T) {
	mem := store.NewMemFS()
	ffs := store.NewFaultFS(mem, 4242)
	p := durablePeer(t, ffs, store.Options{})
	for _, body := range []string{
		`<a>committed kestrel alpha</a>`,
		`<b>committed kestrel beta</b>`,
		`<c>committed kestrel gamma</c>`,
	} {
		if _, err := p.Publish(body); err != nil {
			t.Fatal(err)
		}
	}
	oldVer := p.node.SelfRecord().Ver
	// The very next disk write tears mid-record and the process dies.
	ffs.CrashAt(ffs.Ops(), store.CrashTorn)
	if _, err := p.Publish(`<d>lost lemming delta</d>`); err == nil {
		t.Fatal("publish with a torn WAL write reported success")
	}
	p.tp.Close() // simulate process death without graceful Stop
	mem.Crash(99)

	q := durablePeer(t, mem, store.Options{})
	defer q.Stop()
	rec := q.Recovery()
	if q.LocalDocs() != 3 {
		t.Fatalf("recovered %d docs, want the 3 committed ones", q.LocalDocs())
	}
	if rec.OpsReplayed != 3 {
		t.Fatalf("replayed %d ops, want 3", rec.OpsReplayed)
	}
	if got := q.Metrics().Counter("ingest_docs_total").Value(); got != 0 || rec.DocsRestored != 3 {
		t.Fatalf("WAL replay counted %d documents as ingest and restored %d, want 0 and 3", got, rec.DocsRestored)
	}
	if rec.TruncatedRecords == 0 {
		t.Fatal("torn tail not truncated")
	}
	newVer := q.node.SelfRecord().Ver
	if !oldVer.Less(newVer) {
		t.Fatalf("recovered version %v does not supersede %v", newVer, oldVer)
	}
	if newVer.Epoch != rec.RecoveredEpoch+1 {
		t.Fatalf("epoch %d, want recovered %d + 1", newVer.Epoch, rec.RecoveredEpoch)
	}
	docs, _ := q.Search("committed kestrel", 4)
	if len(docs) != 3 {
		t.Fatalf("committed docs not searchable: %d hits", len(docs))
	}
}

// Compaction happens transparently under sustained publishing, and the
// final state still recovers exactly.
func TestDurablePeerCompaction(t *testing.T) {
	mem := store.NewMemFS()
	p := durablePeer(t, mem, store.Options{CompactBytes: 2048})
	for i := 0; i < 30; i++ {
		if _, err := p.Publish(`<d>compaction fodder document body with enough words to matter ` +
			strings.Repeat("pad ", 10) + string(rune('a'+i%26)) + `</d>`); err != nil {
			t.Fatal(err)
		}
	}
	if got := p.Metrics().Counter("store_compactions_total").Value(); got == 0 {
		t.Fatal("no compaction under sustained publishing")
	}
	p.Stop()

	q := durablePeer(t, mem, store.Options{})
	defer q.Stop()
	// The 30 bodies differ only in one rune; doc ids dedup identical
	// bodies, so compare against what the writer actually held.
	if q.LocalDocs() == 0 {
		t.Fatal("nothing recovered after compaction")
	}
}

// Regression for the compaction/append race: a publish — or a replica
// adoption, a record of the same log — acknowledged while a compaction is
// capturing its snapshot payload must never be rotated away. Hammer the
// store from many goroutines with an aggressive compaction threshold,
// then restart ungracefully (no final snapshot) and require every
// acknowledged document and replica back.
func TestDurableConcurrentPublishSurvivesCompaction(t *testing.T) {
	mem := store.NewMemFS()
	p := durablePeer(t, mem, store.Options{CompactBytes: 512})
	const goroutines, docs = 8, 12
	var wg sync.WaitGroup
	acked := make([][]string, goroutines)
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < docs; i++ {
				body := fmt.Sprintf(`<d>concurrent compaction %d %d %s</d>`, g, i, strings.Repeat("pad ", 8))
				if g%4 == 3 {
					e := replica.Entry{Key: fmt.Sprintf("rep-%d-%d", g, i), Origin: 2, Epoch: 1, XML: body}
					p.adoptReplica(e, 5)
					if !p.rep.Has(e.Key) {
						t.Errorf("adoption of %s refused", e.Key)
						return
					}
					acked[g] = append(acked[g], e.Key)
					continue
				}
				d, err := p.Publish(body)
				if err != nil {
					t.Error(err)
					return
				}
				acked[g] = append(acked[g], d.ID)
			}
		}()
	}
	wg.Wait()
	if p.Metrics().Counter("store_compactions_total").Value() == 0 {
		t.Fatal("workload never compacted — the race was not exercised")
	}
	p.tp.Close() // process death: no graceful Stop, no final snapshot

	q := durablePeer(t, mem, store.Options{})
	defer q.Stop()
	for g, ids := range acked {
		for i, id := range ids {
			if _, err := q.store.Get(id); err != nil && !q.rep.Has(id) {
				t.Fatalf("goroutine %d op %d (%s) acknowledged before the crash but lost: %v", g, i, id, err)
			}
		}
	}
}

// TestOversizedPublishRefused: a document whose WAL record would exceed the
// store's record bound — recovery would read it as a torn tail and drop it
// with every record after it — fails to publish, and the next publish
// survives an ungraceful restart.
func TestOversizedPublishRefused(t *testing.T) {
	mem := store.NewMemFS()
	p := durablePeer(t, mem, store.Options{})
	big := `<d>oversized osprey<!--` + strings.Repeat("x", 17<<20) + `--></d>`
	if _, err := p.Publish(big); !errors.Is(err, store.ErrRecordTooLarge) {
		t.Fatalf("17 MiB publish: err = %v, want store.ErrRecordTooLarge", err)
	}
	if _, err := p.Publish(`<d>published after the refusal</d>`); err != nil {
		t.Fatal(err)
	}
	p.tp.Close() // ungraceful: recovery replays the WAL verbatim

	q := durablePeer(t, mem, store.Options{})
	defer q.Stop()
	if rec := q.Recovery(); q.LocalDocs() != 1 || rec.TruncatedRecords != 0 {
		t.Fatalf("recovered %d docs with %d truncated records, want 1 and none", q.LocalDocs(), rec.TruncatedRecords)
	}
	if docs, _ := q.Search("refusal", 4); len(docs) != 1 {
		t.Fatalf("the publish after the refusal found %d times after restart, want 1", len(docs))
	}
}

// Regression: WAL order must match in-memory apply order. Concurrent
// Publish/Remove of the same documents must never be logged in the
// opposite order they were applied (which would resurrect removed
// documents on replay). After an ungraceful restart the recovered doc
// set must equal the pre-crash doc set exactly.
func TestDurablePublishRemoveOrderSurvivesRestart(t *testing.T) {
	mem := store.NewMemFS()
	p := durablePeer(t, mem, store.Options{})
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				// Shared bodies across goroutines: the same document is
				// concurrently published and removed by different workers.
				d, err := p.Publish(fmt.Sprintf(`<d>order hammer shared %d</d>`, i%7))
				if err != nil {
					t.Error(err)
					return
				}
				if (g+i)%2 == 0 {
					p.Remove(d.ID)
				}
			}
		}()
	}
	wg.Wait()
	// Recovery replays each run of consecutive publish records as one
	// batch; pin the run boundaries with the same key on both sides of a
	// remove, and a second remove that only a later run's publish undoes.
	// Batching across a remove would lose "flicker" or resurrect "gone".
	for _, step := range []string{"+flicker", "+gone", "-flicker", "+flicker", "-gone", "+tail"} {
		xml := fmt.Sprintf(`<d>order hammer run boundary %s</d>`, step[1:])
		d, err := p.Publish(xml)
		if err != nil {
			t.Fatal(err)
		}
		if step[0] == '-' && !p.Remove(d.ID) {
			t.Fatalf("remove of %s failed", step[1:])
		}
	}
	wantIDs := p.store.IDs()
	p.tp.Close() // ungraceful: recovery replays the WAL verbatim

	q := durablePeer(t, mem, store.Options{})
	defer q.Stop()
	if gotIDs := q.store.IDs(); !reflect.DeepEqual(gotIDs, wantIDs) {
		t.Fatalf("replayed doc set diverged from pre-crash state:\n got %v\nwant %v", gotIDs, wantIDs)
	}
}

// A snapshot whose gob payload claims different version counters than
// the checksummed store header must be rejected, not adopted: the epoch
// bump is derived from the header, and a disagreeing payload could
// announce versions the bump does not supersede.
func TestSnapshotHeaderMismatchRejected(t *testing.T) {
	mem := store.NewMemFS()
	p := durablePeer(t, mem, store.Options{})
	p.Publish(`<a>header check body</a>`)
	src, err := p.snapshotSource()
	if err != nil {
		t.Fatal(err)
	}
	data, ver := src.Payload, p.node.SelfRecord().Ver
	p.Stop()

	// Rewrite the snapshot with a header claiming a LOWER version than
	// the payload carries.
	st, _, err := store.Open(store.Options{Dir: "data", FS: mem})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SaveSnapshot(store.SnapshotData{
		Payload: data, Epoch: ver.Epoch, Seq: ver.Seq + 7, FoldLSN: st.LastLSN(),
	}); err != nil {
		t.Fatal(err)
	}
	st.Close()

	if _, err := NewPeer(Config{
		ID: 0, Capacity: 4, Gossip: fastGossip(),
		DataDir: "data", Store: store.Options{FS: mem},
	}); err == nil || !strings.Contains(err.Error(), "disagrees") {
		t.Fatalf("header/payload version mismatch accepted: %v", err)
	}
}

// Full-circle community test: a durable peer crashes without a snapshot
// file ever being managed by the operator, restarts purely from its data
// directory, and the community converges on the new incarnation.
func TestDurableRestartRejoinsCommunity(t *testing.T) {
	mem := store.NewMemFS()
	var peers []*Peer
	for i := 0; i < 3; i++ {
		cfg := Config{
			ID: directory.PeerID(i), Capacity: 3,
			Gossip: fastGossip(), Seed: int64(i + 1),
		}
		if i == 1 {
			cfg.DataDir = "data"
			cfg.Store = store.Options{FS: mem}
		}
		p, err := NewPeer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		peers = append(peers, p)
	}
	t.Cleanup(peers[0].Stop)
	t.Cleanup(peers[2].Stop)
	for i := 1; i < 3; i++ {
		if err := peers[i].Join(peers[0].Addr()); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range peers {
		p.Start()
	}
	durable := peers[1]
	if _, err := durable.Publish(`<d>durable community pelican</d>`); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 15*time.Second, "initial propagation", func() bool {
		docs, _ := peers[0].Search("pelican", 2)
		return len(docs) == 1
	})
	durable.Stop()
	waitFor(t, 15*time.Second, "death detection", func() bool {
		docs, _ := peers[0].Search("pelican", 2)
		return len(docs) == 0
	})

	reborn, err := NewPeer(Config{
		ID: 1, Capacity: 3, Gossip: fastGossip(), Seed: 32,
		DataDir: "data", Store: store.Options{FS: mem},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(reborn.Stop)
	if reborn.Recovery().DocsRestored != 1 {
		t.Fatalf("recovered %d docs", reborn.Recovery().DocsRestored)
	}
	if err := reborn.Join(peers[0].Addr()); err != nil {
		t.Fatal(err)
	}
	reborn.Start()
	waitFor(t, 15*time.Second, "content restored to community", func() bool {
		docs, _ := peers[0].Search("pelican", 2)
		return len(docs) == 1 && docs[0].Peer == 1
	})
}

// TestParentDataDirRecovers opens a DataDir written by an earlier build —
// a snapshot folding two own documents, a remove, a held replica and a
// tombstone, then a WAL suffix with a publish batch, a remove, an adopted
// replica and a tombstone for a replica never held, left by a process
// that died without its final snapshot — and checks that the current code
// recovers exactly that state. The WAL and snapshot formats are the
// on-disk contract; this is the test that a change to either breaks.
func TestParentDataDirRecovers(t *testing.T) {
	const src = "testdata/datadir-parent"
	dir := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	p, err := NewPeer(Config{
		ID: 0, Capacity: 8, Gossip: fastGossip(),
		DataDir: dir, Replicas: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Stop()
	rec := p.Recovery()
	if rec.OpsReplayed == 0 || rec.TruncatedRecords != 0 || len(rec.Quarantined) != 0 {
		t.Fatalf("recovery = %+v, want a clean snapshot + WAL replay", rec)
	}
	own := map[string]string{
		"fe1df6c4cbbf44de40491d459765b3cf": `<paper><title>snapshot heron one</title><body>folded walrus</body></paper>`,
		"86341907d4eec3aafc59c51d11df44a1": `<paper><title>snapshot heron two</title><body>folded gannet</body></paper>`,
		"866112f8fc58b75258c62d1a2256e6b8": `<paper><title>wal heron four</title><body>suffix walrus</body></paper>`,
	}
	reps := map[string]string{
		"rep-snap-a": `<paper>replica falcon in snapshot</paper>`,
		"rep-wal-c":  `<paper>replica kestrel in wal</paper>`,
	}
	if p.LocalDocs() != len(own) || p.ReplicaDocs() != len(reps) {
		t.Fatalf("recovered %d docs and %d replicas, want %d and %d", p.LocalDocs(), p.ReplicaDocs(), len(own), len(reps))
	}
	for _, want := range []map[string]string{own, reps} {
		for key, body := range want {
			if got, err := p.FetchDocument(p.ID(), key); err != nil || got != body {
				t.Errorf("FetchDocument(%s) = %q, %v; want %q", key, got, err, body)
			}
		}
	}
	for _, gone := range []string{"b9ca436c5ab27b6fcdee892e16a18265", "6ea4a81292b5068902768d6ca0cc7645", "rep-snap-b"} {
		if _, err := p.FetchDocument(p.ID(), gone); err == nil {
			t.Errorf("removed or purged %s came back", gone)
		}
	}
	_, tombs := p.rep.State()
	if want := map[string]uint32{"rep-snap-b": 1, "rep-never-held": 7}; !reflect.DeepEqual(tombs, want) {
		t.Fatalf("tombstones = %v, want %v", tombs, want)
	}
	if docs, _ := p.Search("walrus", 4); len(docs) != 2 {
		t.Fatalf("recovered documents not searchable: %d hits for walrus, want 2", len(docs))
	}
}
