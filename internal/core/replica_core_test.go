package core

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"planetp/internal/chash"
	"planetp/internal/directory"
	"planetp/internal/doc"
	"planetp/internal/index"
	"planetp/internal/replica"
	"planetp/internal/store"
)

// replicatingCommunity spins up n live peers with replication factor k
// and a fast hoarding loop.
func replicatingCommunity(t *testing.T, n, k int) []*Peer {
	t.Helper()
	peers := make([]*Peer, n)
	for i := 0; i < n; i++ {
		p, err := NewPeer(Config{
			ID: directory.PeerID(i), Capacity: n,
			Gossip:   fastGossip(),
			Seed:     int64(i + 1),
			Replicas: k,
		})
		if err != nil {
			t.Fatal(err)
		}
		peers[i] = p
		t.Cleanup(p.Stop)
	}
	for i := 1; i < n; i++ {
		if err := peers[i].Join(peers[0].Addr()); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range peers {
		p.Start()
	}
	waitFor(t, 15*time.Second, "membership", func() bool {
		for _, p := range peers {
			if p.Directory().NumKnown() != n {
				return false
			}
		}
		return true
	})
	return peers
}

// replicaHolderCount counts community members (excluding the origin)
// holding a replica of key.
func replicaHolderCount(peers []*Peer, origin directory.PeerID, key string) int {
	n := 0
	for _, p := range peers {
		if p.ID() == origin {
			continue
		}
		if p.rep.Has(key) {
			n++
		}
	}
	return n
}

// TestLiveReplicationServesHitsAfterOwnerDeparts is the tentpole
// end-to-end: a hot document is replicated to ring successors by the
// hoarding loop, and after the owner departs both bare-id resolution and
// ranked search keep returning the content from a replica.
func TestLiveReplicationServesHitsAfterOwnerDeparts(t *testing.T) {
	peers := replicatingCommunity(t, 4, 3)
	d, err := peers[1].Publish(`<paper>replicated heron survives departures</paper>`)
	if err != nil {
		t.Fatal(err)
	}
	// Heat the document: remote fetches feed the owner's popularity
	// counter (score 6 → target min(k-1, 3) = 2 replicas).
	for i := 0; i < 6; i++ {
		if _, err := peers[(i%3)+1].FetchDocument(1, d.ID); err != nil && peers[(i%3)+1].ID() != 1 {
			// peer 1 fetching its own doc is local; remote errors are real.
			t.Fatal(err)
		}
	}
	waitFor(t, 15*time.Second, "2 replicas placed", func() bool {
		return replicaHolderCount(peers, 1, d.ID) >= 2
	})

	// A non-holder resolves the bare id while the owner is still up.
	if xml, _, err := peers[0].ResolveDocument(d.ID); err != nil || !strings.Contains(xml, "heron") {
		t.Fatalf("resolve with owner up: %q %v", xml, err)
	}

	// Owner departs. Resolution must fail over to a live replica.
	peers[1].Stop()
	waitFor(t, 15*time.Second, "failover to replica", func() bool {
		xml, holder, err := peers[0].ResolveDocument(d.ID)
		return err == nil && holder != 1 && strings.Contains(xml, "heron")
	})

	// Ranked search also returns the hit from a replica holder, and the
	// body is fetchable from that holder.
	waitFor(t, 15*time.Second, "search hit from replica", func() bool {
		docs, _ := peers[0].Search("replicated heron", 4)
		for _, sd := range docs {
			if sd.Key == d.ID && sd.Peer != 1 {
				xml, err := peers[0].FetchDocument(sd.Peer, sd.Key)
				return err == nil && strings.Contains(xml, "heron")
			}
		}
		return false
	})
}

// TestHoardPushPlacesEveryRingResponsiblePeer: every ring-responsible
// peer of a hot document ends up holding a searchable replica.
func TestHoardPushPlacesEveryRingResponsiblePeer(t *testing.T) {
	peers := replicatingCommunity(t, 3, 3)
	d, err := peers[0].Publish(`<paper>hoarded kestrel spreads by pushing</paper>`)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := peers[1].FetchDocument(0, d.ID); err != nil {
			t.Fatal(err)
		}
	}
	// With k=3 and 3 peers, every non-origin peer is in the placement,
	// so both must end up holding it.
	waitFor(t, 15*time.Second, "both peers hold replicas", func() bool {
		return replicaHolderCount(peers, 0, d.ID) == 2
	})
	// The replica is searchable at the holder (terms were ingested).
	for _, p := range peers[1:] {
		docs := p.localQuery([]string{"kestrel"}, false)
		found := false
		for _, r := range docs {
			if r.Key == d.ID {
				found = true
			}
		}
		if !found {
			t.Fatalf("peer %d holds replica but does not serve it in search", p.ID())
		}
	}
}

// TestReplicaHolderPushesWhenOriginGone: with the origin stopped, the
// replica holder whose served fetches raise its own target pushes the
// document to the next ring successor, which adopts it.
func TestReplicaHolderPushesWhenOriginGone(t *testing.T) {
	peers := replicatingCommunity(t, 4, 3)
	origin := peers[0]
	d, err := origin.Publish(`<paper>orphaned plover finds a new home</paper>`)
	if err != nil {
		t.Fatal(err)
	}
	placement := chash.ReplicaHolders(origin.brokerRing(), d.ID, origin.ID(), 2)
	holder, next := peers[placement[0]], peers[placement[1]]
	var reader *Peer
	for _, p := range peers[1:] {
		if p != holder && p != next {
			reader = p
		}
	}
	fetch := func(from directory.PeerID, times int) {
		for i := 0; i < times; i++ {
			if _, err := reader.FetchDocument(from, d.ID); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Score 3 at the origin: a target of one replica, the holder's.
	fetch(origin.ID(), 3)
	waitFor(t, 15*time.Second, "the first replica", func() bool { return holder.rep.Has(d.ID) })
	if next.rep.Has(d.ID) {
		t.Fatal("the second successor got a copy under a target of one")
	}
	origin.Stop()
	pushed := func() int64 { return holder.reg.Snapshot().Get("transport_tx_bytes_replica_put") }
	before := pushed()
	// The adoption seeded the holder at HotScore; three served fetches
	// raise it to 5, a target of two replicas: the holder and next.
	fetch(holder.ID(), 3)
	waitFor(t, 15*time.Second, "the second successor adopts", func() bool { return next.rep.Has(d.ID) })
	if got := pushed() - before; got <= 0 {
		t.Fatalf("the holder sent %d replica_put bytes after the origin stopped; the copy did not come by its push", got)
	}
	if e, _ := next.rep.Get(d.ID); directory.PeerID(e.Origin) != origin.ID() {
		t.Fatalf("the pushed copy names origin %d, want %d", e.Origin, origin.ID())
	}
}

// TestTombstonePurgeNeverResurrects is the satellite-4 suite: removing a
// document at its origin purges every replica, and no later push or pull
// may resurrect it at or below the tombstoned epoch.
func TestTombstonePurgeNeverResurrects(t *testing.T) {
	peers := replicatingCommunity(t, 3, 3)
	d, err := peers[1].Publish(`<paper>doomed lemming will be removed</paper>`)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := peers[2].FetchDocument(1, d.ID); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 15*time.Second, "replicas placed", func() bool {
		return replicaHolderCount(peers, 1, d.ID) == 2
	})
	purgeEpoch := peers[1].node.SelfRecord().Ver.Epoch
	if !peers[1].Remove(d.ID) {
		t.Fatal("remove failed")
	}
	waitFor(t, 15*time.Second, "replicas purged", func() bool {
		return replicaHolderCount(peers, 1, d.ID) == 0
	})
	// Anti-entropy replay: an old-epoch push must be refused forever.
	for _, p := range []*Peer{peers[0], peers[2]} {
		(*handler)(p).HandleReplicaPut(d.ID, `<paper>doomed lemming will be removed</paper>`, 1, purgeEpoch)
		if p.rep.Has(d.ID) {
			t.Fatalf("peer %d resurrected a tombstoned replica", p.ID())
		}
		if !p.rep.Tombstoned(d.ID, purgeEpoch) {
			t.Fatalf("peer %d lost the death certificate", p.ID())
		}
	}
	// Resolution reports a definitive miss, not a transport failure.
	if _, _, err := peers[0].ResolveDocument(d.ID); !errors.Is(err, doc.ErrNotFound) {
		t.Fatalf("resolve after purge = %v, want ErrNotFound", err)
	}
	// The purged content no longer appears in the holders' search index.
	for _, p := range peers {
		if docs := p.localQuery([]string{"lemming"}, false); len(docs) != 0 {
			t.Fatalf("peer %d still serves purged content: %+v", p.ID(), docs)
		}
	}
}

// durableReplicaPeer builds a durable peer with replication enabled on
// the given filesystem.
func durableReplicaPeer(t *testing.T, fs store.FS, opts store.Options) *Peer {
	t.Helper()
	opts.FS = fs
	p, err := NewPeer(Config{
		ID: 0, Capacity: 8, Gossip: fastGossip(),
		DataDir: "data", Store: opts,
		Replicas: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestRepeatedPurgeLogsNothing: a purge repeated for a replica already
// dropped and certified dead — what a re-sent oneway delivers — appends no
// WAL record and costs no fsync, whether the replica was held or the purge
// arrived before any adoption.
func TestRepeatedPurgeLogsNothing(t *testing.T) {
	p := durableReplicaPeer(t, store.NewMemFS(), store.Options{})
	t.Cleanup(p.Stop)
	e := testReplicaEntries()[0]
	p.adoptReplica(e, 5)
	if !p.rep.Has(e.Key) {
		t.Fatal("replica not adopted")
	}
	fsyncs := func() int64 { return p.reg.Snapshot().Get("store_fsyncs_total") }
	for _, key := range []string{e.Key, "never-held-doc"} {
		p.purgeReplica(key, 2, true)
		if p.rep.Has(key) || !p.rep.Tombstoned(key, 2) {
			t.Fatalf("%s: the first purge did not drop and certify it", key)
		}
		lsn, synced := p.st.LastLSN(), fsyncs()
		for _, epoch := range []uint32{2, 1} {
			p.purgeReplica(key, epoch, true)
			if got := p.st.LastLSN(); got != lsn {
				t.Fatalf("%s: a repeated purge at epoch %d moved the WAL from LSN %d to %d", key, epoch, lsn, got)
			}
			if got := fsyncs(); got != synced {
				t.Fatalf("%s: a repeated purge at epoch %d cost %d fsyncs", key, epoch, got-synced)
			}
		}
		// A purge at a newer epoch raises the certificate: that is news.
		p.purgeReplica(key, 3, true)
		if got := p.st.LastLSN(); got != lsn+1 || !p.rep.Tombstoned(key, 3) {
			t.Fatalf("%s: a purge at a newer epoch logged to LSN %d (from %d), certified %v", key, got, lsn, p.rep.Tombstoned(key, 3))
		}
	}
}

// testReplicaEntries is the deterministic adoption workload for the
// crash suite.
func testReplicaEntries() []replica.Entry {
	out := make([]replica.Entry, 4)
	for i := range out {
		out[i] = replica.Entry{
			Key:    fmt.Sprintf("rep-doc-%d", i),
			Origin: int32(i + 1),
			Epoch:  1,
			XML:    fmt.Sprintf(`<paper>replica payload number %d falcon</paper>`, i),
		}
	}
	return out
}

// mergedLogStep is one operation of the crash suite's workload and the
// state — own documents and replica set — the peer holds once it is
// acknowledged.
type mergedLogStep struct {
	run       func(p *Peer) bool // reports whether the op was acknowledged
	own, reps []string           // sorted keys after the step
}

// mergedLogWorkload interleaves own Publish/Remove with replica adopt,
// purge and replica→owned conversion, so every record kind of the one WAL
// sits next to every other.
func mergedLogWorkload() []mergedLogStep {
	reps := testReplicaEntries()
	const d0, d1 = `<paper>own osprey zero</paper>`, `<paper>own osprey one</paper>`
	// conv is adopted under its document id, then published: the
	// conversion.
	conv := replica.Entry{Origin: 6, Epoch: 1, XML: `<paper>borrowed osprey falcon</paper>`}
	conv.Key = doc.Parse(conv.XML).ID
	id0, id1 := doc.Parse(d0).ID, doc.Parse(d1).ID

	adopt := func(e replica.Entry) func(*Peer) bool {
		return func(p *Peer) bool { p.adoptReplica(e, 5); return p.rep.Has(e.Key) }
	}
	publish := func(xml string) func(*Peer) bool {
		return func(p *Peer) bool { _, err := p.Publish(xml); return err == nil }
	}
	keys := func(ks ...string) []string { sort.Strings(ks); return ks }
	return []mergedLogStep{
		{adopt(reps[0]), nil, keys(reps[0].Key)},
		{publish(d0), keys(id0), keys(reps[0].Key)},
		{adopt(reps[1]), keys(id0), keys(reps[0].Key, reps[1].Key)},
		{adopt(conv), keys(id0), keys(reps[0].Key, reps[1].Key, conv.Key)},
		{publish(d1), keys(id0, id1), keys(reps[0].Key, reps[1].Key, conv.Key)},
		{func(p *Peer) bool { p.purgeReplica(reps[0].Key, 2, true); return !p.rep.Has(reps[0].Key) },
			keys(id0, id1), keys(reps[1].Key, conv.Key)},
		{publish(conv.XML), keys(id0, id1, conv.Key), keys(reps[1].Key)},
		{func(p *Peer) bool { return p.Remove(id0) }, keys(id1, conv.Key), keys(reps[1].Key)},
		{adopt(reps[2]), keys(id1, conv.Key), keys(reps[1].Key, reps[2].Key)},
	}
}

// TestReplicaStoreCrashSuite: for every disk operation index of the
// merged-log workload, crash the store there, restart, and assert the
// peer comes back in a state the one log passed through — own documents
// AND replica set together equal to the state after the acknowledged ops,
// or after those plus the single in-flight op, which may or may not have
// reached disk intact — and that the Bloom filter's doc markers match
// what is held exactly (zero torn-state announcements). The workload
// stops at the first failure, mirroring a crashing process.
func TestReplicaStoreCrashSuite(t *testing.T) {
	steps := mergedLogWorkload()
	// workload applies ops until the first failure (the crash), returning
	// how many were acknowledged.
	workload := func(p *Peer) int {
		for i, st := range steps {
			if !st.run(p) {
				return i
			}
		}
		return len(steps)
	}
	stateAfter := func(acked int) string {
		if acked == 0 {
			return fmt.Sprint([]string(nil), []string(nil))
		}
		return fmt.Sprint(steps[acked-1].own, steps[acked-1].reps)
	}
	everHeld := map[string]bool{}
	for _, st := range steps {
		for _, k := range append(append([]string(nil), st.own...), st.reps...) {
			everHeld[k] = true
		}
	}

	// Dry run: learn the workload's disk-op budget.
	dry := store.NewFaultFS(store.NewMemFS(), 1)
	p := durableReplicaPeer(t, dry, store.Options{})
	start := dry.Ops()
	if got := workload(p); got != len(steps) {
		t.Fatalf("dry run acked %d of %d ops", got, len(steps))
	}
	if got := fmt.Sprint(p.store.IDs(), p.ReplicaKeys()); got != stateAfter(len(steps)) {
		t.Fatalf("dry run ended in %s, want %s", got, stateAfter(len(steps)))
	}
	budget := dry.Ops() - start
	p.tp.Close()
	if budget <= 0 {
		t.Fatalf("workload performed no disk ops (%d)", budget)
	}

	for mode, name := range map[store.CrashMode]string{
		store.CrashStop: "stop", store.CrashTorn: "torn",
	} {
		for i := int64(0); i < budget; i++ {
			t.Run(fmt.Sprintf("%s-op%d", name, i), func(t *testing.T) {
				mem := store.NewMemFS()
				ffs := store.NewFaultFS(mem, 4242+i)
				p := durableReplicaPeer(t, ffs, store.Options{})
				ffs.CrashAt(ffs.Ops()+i, mode)
				acked := workload(p)
				p.tp.Close() // process dies; no graceful snapshot
				mem.Crash(i)
				if acked == len(steps) {
					t.Fatalf("crash at op %d of %d never fired", i, budget)
				}

				q := durableReplicaPeer(t, mem, store.Options{})
				defer q.Stop()
				got := fmt.Sprint(q.store.IDs(), q.ReplicaKeys())
				if got != stateAfter(acked) && got != stateAfter(acked+1) {
					t.Fatalf("restored own docs and replicas %s after %d acked ops; want %s or %s",
						got, acked, stateAfter(acked), stateAfter(acked+1))
				}
				// Announcements must match what is held exactly: every
				// held key's marker is in the filter, every other key's
				// is absent.
				held := make(map[string]bool)
				for _, k := range append(q.store.IDs(), q.ReplicaKeys()...) {
					held[k] = true
				}
				q.mu.Lock()
				defer q.mu.Unlock()
				for k := range everHeld {
					if q.summary.Filter().Contains(docMarker(k)) != held[k] {
						t.Fatalf("marker announcement for %s disagrees with held set %s", k, got)
					}
				}
			})
		}
	}
}

// TestReplicaOpsTriggerCompaction: replica records fold into snapshots
// like any others. A durable peer adopting and purging replicas past the
// compaction threshold compacts, keeps its WAL bounded, and an
// ungraceful restart — snapshot plus WAL suffix — restores the exact
// replica set and tombstones. (With the hoard in a store of its own that
// nothing ever compacted, this log grew until a graceful Stop.)
func TestReplicaOpsTriggerCompaction(t *testing.T) {
	const compactBytes = 2048
	mem := store.NewMemFS()
	p := durableReplicaPeer(t, mem, store.Options{CompactBytes: compactBytes})
	for i := 0; i < 60; i++ {
		e := replica.Entry{
			Key: fmt.Sprintf("churn-%02d", i), Origin: 3, Epoch: 1,
			XML: fmt.Sprintf(`<paper>hoard churn %d %s</paper>`, i, strings.Repeat("pad ", 20)),
		}
		p.adoptReplica(e, 5)
		if !p.rep.Has(e.Key) {
			t.Fatalf("adoption %d refused", i)
		}
		if i%3 != 0 {
			p.purgeReplica(e.Key, uint32(i), i%3 == 1)
		}
	}
	if p.Metrics().Counter("store_compactions_total").Value() == 0 {
		t.Fatal("no compaction under sustained replica churn")
	}
	// One op past the threshold triggers the fold, so the log never holds
	// more than the threshold plus the batch that crossed it.
	if got := p.st.WALSize(); got > 2*compactBytes {
		t.Fatalf("WAL grew to %d bytes under a %d-byte compaction threshold", got, compactBytes)
	}
	wantReps, wantTombs := p.rep.State()
	p.tp.Close() // process death: no graceful Stop, no final snapshot

	q := durableReplicaPeer(t, mem, store.Options{})
	defer q.Stop()
	gotReps, gotTombs := q.rep.State()
	if !reflect.DeepEqual(gotReps, wantReps) || !reflect.DeepEqual(gotTombs, wantTombs) {
		t.Fatalf("restart restored %d replicas / %d tombstones, want %d / %d:\n got %v %v\nwant %v %v",
			len(gotReps), len(gotTombs), len(wantReps), len(wantTombs), gotReps, gotTombs, wantReps, wantTombs)
	}
}

// TestHostileReplicaKeyNeverReachesTheLog: a replica key comes straight
// off the wire, and one the record header cannot carry back would, once
// logged, fail every later recovery — of the peer's own documents too, now
// that they share the log. Such offers and purges are refused unlogged.
func TestHostileReplicaKeyNeverReachesTheLog(t *testing.T) {
	mem := store.NewMemFS()
	p := durableReplicaPeer(t, mem, store.Options{})
	if _, err := p.Publish(`<paper>own gannet survives</paper>`); err != nil {
		t.Fatal(err)
	}
	h := (*handler)(p)
	h.HandleReplicaPut("two words", `<paper>hostile gannet</paper>`, 3, 1)
	h.HandleReplicaPut("line\nbreak", `<paper>hostile gannet</paper>`, 3, 1)
	h.HandleReplicaPurge("tab\tbed", 3, 1)
	h.HandleReplicaPurge("", 3, 1)
	if p.ReplicaDocs() != 0 {
		t.Fatalf("hostile keys adopted: %q", p.ReplicaKeys())
	}
	p.tp.Close() // ungraceful: recovery replays the WAL verbatim

	q := durableReplicaPeer(t, mem, store.Options{})
	defer q.Stop()
	if rec := q.Recovery(); q.LocalDocs() != 1 || rec.OpsReplayed != 1 {
		t.Fatalf("recovered %d docs from %d records, want the one publish", q.LocalDocs(), rec.OpsReplayed)
	}
}

// TestReplicaConversionIsAtomic: publishing a document held as a replica
// either commits — the peer owns it and holds no replica of it — or fails
// the publish with the replica still held, indexed and served. No crash
// point leaves the document under neither name, and no failure is
// reported as a success.
func TestReplicaConversionIsAtomic(t *testing.T) {
	const xml = `<paper>borrowed petrel falcon</paper>`
	held := replica.Entry{Key: doc.Parse(xml).ID, Origin: 7, Epoch: 1, XML: xml}
	holder := func(fs store.FS) *Peer {
		p := durableReplicaPeer(t, fs, store.Options{})
		p.adoptReplica(held, 5)
		if !p.rep.Has(held.Key) {
			t.Fatal("adoption refused")
		}
		return p
	}

	// The append fails: an error, and nothing moved.
	ffs := store.NewFaultFS(store.NewMemFS(), 7)
	p := holder(ffs)
	ffs.CrashAt(ffs.Ops(), store.CrashStop)
	if _, err := p.Publish(xml); err == nil {
		t.Fatal("publish whose WAL append failed reported success")
	}
	if got := p.ReplicaKeys(); len(got) != 1 || got[0] != held.Key {
		t.Fatalf("failed conversion changed the replica set to %v", got)
	}
	if p.LocalDocs() != 0 {
		t.Fatal("failed conversion stored the document")
	}
	if docs := p.localQuery([]string{"petrel"}, false); len(docs) != 1 || docs[0].Key != held.Key {
		t.Fatalf("failed conversion left the replica unindexed: %+v", docs)
	}
	p.tp.Close()

	// The process dies at each disk operation of the conversion, and
	// right after it: the restarted peer holds the document exactly once,
	// and as its own whenever the publish was acknowledged.
	dry := store.NewFaultFS(store.NewMemFS(), 1)
	p = holder(dry)
	start := dry.Ops()
	if _, err := p.Publish(xml); err != nil {
		t.Fatal(err)
	}
	budget := dry.Ops() - start
	p.tp.Close()
	for i := int64(0); i <= budget; i++ {
		for _, mode := range []store.CrashMode{store.CrashStop, store.CrashTorn} {
			mem := store.NewMemFS()
			ffs := store.NewFaultFS(mem, 99+i)
			p := holder(ffs)
			ffs.CrashAt(ffs.Ops()+i, mode) // i == budget: after the conversion
			_, err := p.Publish(xml)
			p.tp.Close()
			mem.Crash(i)

			q := durableReplicaPeer(t, mem, store.Options{})
			_, getErr := q.store.Get(held.Key)
			owned, hoarded := getErr == nil, q.rep.Has(held.Key)
			if owned == hoarded || (err == nil && !owned) {
				t.Fatalf("%v crash at op %d/%d (publish err %v): restarted peer owns=%v holds replica=%v",
					mode, i, budget, err, owned, hoarded)
			}
			if docs := q.localQuery([]string{"petrel"}, false); len(docs) != 1 || docs[0].Key != held.Key {
				t.Fatalf("%v crash at op %d/%d: document indexed %d times", mode, i, budget, len(docs))
			}
			q.Stop()
		}
	}
}

// TestDurableReplicaRestartServesAgain: a graceful restart re-announces
// and re-serves the replica set from the final snapshot.
func TestDurableReplicaRestartServesAgain(t *testing.T) {
	mem := store.NewMemFS()
	p := durableReplicaPeer(t, mem, store.Options{})
	for _, e := range testReplicaEntries() {
		p.adoptReplica(e, 5)
	}
	if p.ReplicaDocs() != 4 {
		t.Fatalf("adopted %d replicas, want 4", p.ReplicaDocs())
	}
	p.Stop()

	q := durableReplicaPeer(t, mem, store.Options{})
	defer q.Stop()
	if q.ReplicaDocs() != 4 {
		t.Fatalf("restored %d replicas, want 4", q.ReplicaDocs())
	}
	xml, holder, err := q.ResolveDocument("rep-doc-2")
	if err != nil || holder != 0 || !strings.Contains(xml, "number 2") {
		t.Fatalf("restored replica not served: %q %d %v", xml, holder, err)
	}
	// Restored replicas are searchable.
	if docs := q.localQuery([]string{"falcon"}, false); len(docs) != 4 {
		t.Fatalf("restored replicas not searchable: %d hits", len(docs))
	}
}

// TestDocKeyMapsStayInverse: docOf (key -> index id) and the index's key
// column (index id -> key) change on four paths — publish, Remove, replica
// adopt, replica purge — and a query names a hit by the index's key alone,
// so after each of them the two must be exact inverses and every hit must
// carry its own key.
func TestDocKeyMapsStayInverse(t *testing.T) {
	p := durableReplicaPeer(t, store.NewMemFS(), store.Options{})
	defer p.Stop()
	check := func(step string, wantKeys ...string) {
		t.Helper()
		p.mu.Lock()
		if docs := shapeOf(p.index).docs; len(p.docOf) != len(wantKeys) || docs != len(wantKeys) {
			t.Errorf("%s: docOf has %d entries, the index %d documents, want %d each", step, len(p.docOf), docs, len(wantKeys))
		}
		p.index.Merge([]string{"falcon"}, false, func(r *index.Row) {
			if id, ok := p.docOf[r.Key()]; !ok || id != r.ID {
				t.Errorf("%s: index id %d is keyed %q but docOf[%q] = %d, %v", step, r.ID, r.Key(), r.Key(), id, ok)
			}
		})
		p.mu.Unlock()
		var got []string
		for _, d := range p.localQuery([]string{"falcon"}, false) {
			got = append(got, d.Key)
		}
		sort.Strings(got)
		sort.Strings(wantKeys)
		if fmt.Sprint(got) != fmt.Sprint(wantKeys) {
			t.Errorf("%s: query names %v, want %v", step, got, wantKeys)
		}
	}

	docs, err := p.PublishBatch([]string{`<a>own falcon one</a>`, `<b>own falcon two</b>`})
	if err != nil {
		t.Fatal(err)
	}
	own1, own2 := docs[0].ID, docs[1].ID
	check("publish", own1, own2)

	if !p.Remove(own1) {
		t.Fatal("remove failed")
	}
	check("remove", own2)

	// Index ids are never reused: the removed document's id stays a hole
	// and the replicas take fresh ones.
	reps := testReplicaEntries()
	p.adoptReplica(reps[0], 5)
	p.adoptReplica(reps[1], 5)
	check("replica adopt", own2, reps[0].Key, reps[1].Key)

	p.purgeReplica(reps[0].Key, 2, true)
	check("replica purge", own2, reps[1].Key)

	// Publishing a held replica converts it to an owned copy (un-ingest
	// then ingest under one lock), under the same key.
	xml := `<c>borrowed falcon three</c>`
	held := replica.Entry{Key: doc.Parse(xml).ID, Origin: 7, Epoch: 1, XML: xml}
	p.adoptReplica(held, 5)
	check("adopt by document id", own2, reps[1].Key, held.Key)
	if _, err := p.Publish(xml); err != nil {
		t.Fatal(err)
	}
	if p.rep.Has(held.Key) {
		t.Fatal("published document still held as a replica")
	}
	check("replica converted to owned", own2, reps[1].Key, held.Key)
}
