package core

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"planetp/internal/directory"
	"planetp/internal/doc"
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
			Gossip:        fastGossip(),
			Seed:          int64(i + 1),
			Replicas:      k,
			HoardInterval: 30 * time.Millisecond,
			HoardHalfLife: 10 * time.Minute, // no decay within the test
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
		if p.rep != nil && p.rep.Has(key) {
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

// TestHoardPullAdoptsRingResponsibleDocs exercises the pull path: a
// peer that never received a push adopts a hot document advertised by a
// holder once it is ring-responsible for it.
func TestHoardPullAdoptsRingResponsibleDocs(t *testing.T) {
	peers := replicatingCommunity(t, 3, 3)
	d, err := peers[0].Publish(`<paper>hoarded kestrel spreads by pulling</paper>`)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := peers[1].FetchDocument(0, d.ID); err != nil {
			t.Fatal(err)
		}
	}
	// With k=3 and 3 peers, every non-origin peer is in the placement;
	// push or pull, both must end up holding it.
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
func durableReplicaPeer(t *testing.T, fs store.FS) *Peer {
	t.Helper()
	p, err := NewPeer(Config{
		ID: 0, Capacity: 8, Gossip: fastGossip(),
		DataDir: "data", Store: store.Options{FS: fs},
		Replicas:      3,
		HoardHalfLife: 10 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
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

// TestReplicaStoreCrashSuite is the satellite-3 suite: for every disk
// operation index during a deterministic adopt/purge workload, crash the
// replica store there, restart, and assert the peer re-announces exactly
// a consistent fsynced replica set — every acknowledged op is applied,
// at most the one in-flight op may additionally have reached disk, and
// the Bloom filter's doc markers match the held set exactly (zero
// torn-state announcements). The workload stops at the first failure,
// mirroring a crashing process.
func TestReplicaStoreCrashSuite(t *testing.T) {
	entries := testReplicaEntries()

	// The logical op sequence and the replica set after each prefix.
	// states[i] is the set after the first i ops; the last op is the
	// tombstoned purge of entries[0].
	numOps := len(entries) + 1
	states := make([]map[string]bool, numOps+1)
	states[0] = map[string]bool{}
	for i, e := range entries {
		states[i+1] = map[string]bool{}
		for k := range states[i] {
			states[i+1][k] = true
		}
		states[i+1][e.Key] = true
	}
	states[numOps] = map[string]bool{}
	for k := range states[numOps-1] {
		if k != entries[0].Key {
			states[numOps][k] = true
		}
	}
	keysOf := func(s map[string]bool) []string {
		out := make([]string, 0, len(s))
		for k := range s {
			out = append(out, k)
		}
		sort.Strings(out)
		return out
	}

	// workload applies ops until the first failure (the crash), returning
	// how many were acknowledged.
	workload := func(p *Peer) int {
		for i, e := range entries {
			p.adoptReplica(e, 5)
			if !p.rep.Has(e.Key) {
				return i
			}
		}
		p.purgeReplica(entries[0].Key, 2, true)
		if p.rep.Has(entries[0].Key) {
			return numOps - 1
		}
		return numOps
	}

	// Dry run: learn the workload's disk-op budget.
	dry := store.NewFaultFS(store.NewMemFS(), 1)
	p := durableReplicaPeer(t, dry)
	start := dry.Ops()
	if got := workload(p); got != numOps {
		t.Fatalf("dry run acked %d of %d ops", got, numOps)
	}
	budget := dry.Ops() - start
	p.tp.Close()
	if budget <= 0 {
		t.Fatalf("workload performed no disk ops (%d)", budget)
	}

	for mode, name := range map[store.CrashMode]string{
		store.CrashStop: "stop", store.CrashTorn: "torn",
	} {
		for i := int64(1); i <= budget; i++ {
			t.Run(fmt.Sprintf("%s-op%d", name, i), func(t *testing.T) {
				mem := store.NewMemFS()
				ffs := store.NewFaultFS(mem, 4242+i)
				p := durableReplicaPeer(t, ffs)
				ffs.CrashAt(ffs.Ops()+i, mode)
				acked := workload(p)
				p.tp.Close() // process dies; no graceful snapshot
				mem.Crash(i)

				q := durableReplicaPeer(t, mem)
				defer q.Stop()
				got := fmt.Sprint(q.ReplicaKeys())
				// Every acked op is applied; the single in-flight op may
				// or may not have reached disk intact. Anything else is
				// torn state.
				valid := got == fmt.Sprint(keysOf(states[acked]))
				if !valid && acked < numOps {
					valid = got == fmt.Sprint(keysOf(states[acked+1]))
				}
				if !valid {
					t.Fatalf("restored replica set %s after %d acked ops; want %v or the next prefix",
						got, acked, keysOf(states[acked]))
				}
				// Announcements must match the held set exactly: every
				// restored key's marker is in the filter, every
				// non-restored key's is absent.
				held := make(map[string]bool)
				for _, k := range q.ReplicaKeys() {
					held[k] = true
				}
				q.mu.Lock()
				defer q.mu.Unlock()
				for _, e := range entries {
					if q.filter.Contains(docMarker(e.Key)) != held[e.Key] {
						t.Fatalf("marker announcement for %s disagrees with held set %s", e.Key, got)
					}
				}
			})
		}
	}
}

// TestDurableReplicaRestartServesAgain: a graceful restart re-announces
// and re-serves the replica set from the final snapshot.
func TestDurableReplicaRestartServesAgain(t *testing.T) {
	mem := store.NewMemFS()
	p := durableReplicaPeer(t, mem)
	for _, e := range testReplicaEntries() {
		p.adoptReplica(e, 5)
	}
	if p.ReplicaDocs() != 4 {
		t.Fatalf("adopted %d replicas, want 4", p.ReplicaDocs())
	}
	p.Stop()

	q := durableReplicaPeer(t, mem)
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

// TestDocKeyMapsStayInverse: docOf (key -> index id) and keyOf (index id
// -> key) are maintained by hand at four sites — publish, Remove,
// replica adopt, replica purge — and localQuery names a hit by keyOf
// alone, so after each of them the two must be exact inverses and every
// hit must carry its own key.
func TestDocKeyMapsStayInverse(t *testing.T) {
	p := durableReplicaPeer(t, store.NewMemFS())
	defer p.Stop()
	check := func(step string, wantKeys ...string) {
		t.Helper()
		p.mu.Lock()
		if len(p.docOf) != len(wantKeys) || len(p.keyOf) != len(wantKeys) {
			t.Errorf("%s: docOf has %d entries, keyOf %d, want %d each", step, len(p.docOf), len(p.keyOf), len(wantKeys))
		}
		for key, id := range p.docOf {
			if p.keyOf[id] != key {
				t.Errorf("%s: docOf[%q] = %d but keyOf[%d] = %q", step, key, id, id, p.keyOf[id])
			}
		}
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

	// The freed index id may be reused by the next ingest: the stale
	// reverse entry must be gone, not overwritten by luck.
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
