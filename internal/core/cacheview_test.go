package core

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"planetp/internal/bloom"
	"planetp/internal/directory"
	"planetp/internal/search"
)

// cachePayload builds a small compressed Bloom filter over terms.
func cachePayload(terms ...string) []byte {
	f := bloom.New(4096, 2)
	for _, t := range terms {
		f.Insert(t)
	}
	return f.Compress()
}

// TestViewCacheReleasesDroppedPeerBytes is the leak regression test: the
// pre-existing dirView cached decompressed filters in an unbounded map
// keyed by peer id and never removed entries for churned-out peers. With
// the eviction hook wired through Directory.SetOnEvict, dropping a dead
// peer must release its resident filter bytes immediately.
func TestViewCacheReleasesDroppedPeerBytes(t *testing.T) {
	p, err := NewPeer(Config{ID: 0, Capacity: 16, Gossip: fastGossip()})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Stop()

	pay := cachePayload("gossip", "bloom")
	for id := directory.PeerID(1); id <= 3; id++ {
		p.dir.Upsert(directory.Record{
			ID: id, Ver: directory.Version{Epoch: 1, Seq: 1},
			Payload: pay, PayloadSize: int32(len(pay)),
		})
	}
	for id := directory.PeerID(1); id <= 3; id++ {
		if !p.view.Contains(id, "gossip") {
			t.Fatalf("peer %d filter lost inserted term", id)
		}
	}
	before := p.view.cache.ResidentBytes()
	if before <= 0 {
		t.Fatal("no resident bytes after probing three peers")
	}

	// Peer 2 churns out: off-line past T_Dead, then dropped.
	p.dir.MarkOffline(2, time.Minute)
	dropped := p.dir.DropDead(time.Second, 2*time.Minute)
	if len(dropped) != 1 || dropped[0] != 2 {
		t.Fatalf("DropDead = %v, want [2]", dropped)
	}
	after := p.view.cache.ResidentBytes()
	if after >= before {
		t.Fatalf("resident bytes %d not released by drop (before %d)", after, before)
	}
	st := p.view.cache.Stats()
	if st.Evictions == 0 {
		t.Fatal("drop fired no cache eviction")
	}
	if p.view.Contains(2, "gossip") {
		t.Fatal("dropped peer still probeable")
	}

	// Supersede path: a new filter version invalidates the old entry.
	evBefore := p.view.cache.Stats().Evictions
	pay2 := cachePayload("fresh")
	p.dir.Upsert(directory.Record{
		ID: 1, Ver: directory.Version{Epoch: 1, Seq: 2},
		Payload: pay2, PayloadSize: int32(len(pay2)),
	})
	if p.view.cache.Stats().Evictions <= evBefore {
		t.Fatal("supersede fired no cache eviction")
	}
	if p.view.Contains(1, "gossip") {
		t.Fatal("superseded filter still answers old terms")
	}
	if !p.view.Contains(1, "fresh") {
		t.Fatal("new filter version not probeable")
	}
}

// TestSearchProbesEachPeerOnce counts the filter-cache lookups of a
// search: a T-term query resolves each of the N remote peers' filters once
// (2*T*N lookups when IPF and rank each probed per term), and its repeat
// does the same against filters the cache already holds.
func TestSearchProbesEachPeerOnce(t *testing.T) {
	const n = 20
	const query = "alpha bravo charlie"
	p, err := NewPeer(Config{ID: 0, Capacity: 64, Gossip: fastGossip()})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Stop()
	// The remote peers' address: an un-started peer whose transport
	// answers queries (with no documents), so no contact fails and flips
	// a peer off-line under the second search.
	stub, err := NewPeer(Config{ID: 1, Capacity: 64, Gossip: fastGossip()})
	if err != nil {
		t.Fatal(err)
	}
	defer stub.Stop()
	pay := cachePayload(Terms(query)...) // every term hits every peer
	for id := directory.PeerID(1); id <= n; id++ {
		p.dir.Upsert(directory.Record{
			ID: id, Ver: directory.Version{Epoch: 1, Seq: 1}, Addr: stub.Addr(),
			Payload: pay, PayloadSize: int32(len(pay)),
		})
	}
	lookups := func() int64 {
		s := p.reg.Snapshot()
		return s.Get("core_filter_cache_hits") + s.Get("core_filter_cache_misses")
	}

	before := lookups()
	_, st := p.Search(query, 5)
	if st.PeersRanked != n || st.PeersContacted == 0 {
		t.Fatalf("search ranked %d peers and contacted %d, want %d ranked and some contacted", st.PeersRanked, st.PeersContacted, n)
	}
	if got := lookups() - before; got != n {
		t.Fatalf("%d-term search made %d filter-cache lookups, want %d (one per remote peer)", len(Terms(query)), got, n)
	}
	before = lookups()
	misses := p.reg.Snapshot().Get("core_filter_cache_misses")
	if _, again := p.Search(query, 5); again != st {
		t.Fatalf("repeat search stats %+v differ from the first %+v", again, st)
	}
	if got := lookups() - before; got != n {
		t.Fatalf("repeat search made %d filter-cache lookups, want %d", got, n)
	}
	if got := p.reg.Snapshot().Get("core_filter_cache_misses") - misses; got != 0 {
		t.Fatalf("repeat search decoded %d filters again, want 0", got)
	}
}

// TestSearchReportsFilterIndex: a search over peers whose filters are
// dense enough builds the filter cache's position-major base, and
// /debug/metrics shows it — its rows (a superseded one stays, masked,
// until the next rebuild) and bytes, the rebuild and its duration, the
// rows the delta answered once a peer moves to a new version, and a
// resident gauge that covers both tiers.
func TestSearchReportsFilterIndex(t *testing.T) {
	const n = 8
	p, err := NewPeer(Config{ID: 0, Capacity: 64, Gossip: fastGossip()})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Stop()
	stub, err := NewPeer(Config{ID: 1, Capacity: 64, Gossip: fastGossip()})
	if err != nil {
		t.Fatal(err)
	}
	defer stub.Stop()
	upsert := func(id directory.PeerID, seq uint32) {
		terms := []string{"alpha", "bravo"}
		for i := 0; i < 800; i++ {
			terms = append(terms, fmt.Sprintf("t%d-%d-%d", id, seq, i))
		}
		pay := cachePayload(terms...)
		p.dir.Upsert(directory.Record{
			ID: id, Ver: directory.Version{Epoch: 1, Seq: seq}, Addr: stub.Addr(),
			Payload: pay, PayloadSize: int32(len(pay)),
		})
	}
	for id := directory.PeerID(1); id <= n; id++ {
		upsert(id, 1)
	}
	p.Search("alpha bravo", 5)
	upsert(3, 2)
	p.Search("alpha bravo", 5)
	s := p.reg.Snapshot()
	if got := s.Gauges["filtercache_index_rows"]; got != n {
		t.Errorf("filtercache_index_rows = %d, want %d", got, n)
	}
	if s.Get("filtercache_index_rebuilds_total") != 1 || s.Histograms["filtercache_rebuild_us"].Count != 1 {
		t.Errorf("rebuilds %d, rebuild_us count %d, want 1 each", s.Get("filtercache_index_rebuilds_total"), s.Histograms["filtercache_rebuild_us"].Count)
	}
	if got := s.Get("filtercache_delta_rows_total"); got != 1 {
		t.Errorf("filtercache_delta_rows_total = %d, want 1 (the superseded peer)", got)
	}
	bytes, resident := s.Gauges["filtercache_index_bytes"], s.Gauges["core_filter_cache_resident_bytes"]
	if bytes <= 0 || resident <= bytes || resident != p.view.cache.ResidentBytes() {
		t.Errorf("index %d B, resident gauge %d B, cache %d B: want resident = index + delta", bytes, resident, p.view.cache.ResidentBytes())
	}
}

// TestSweepMatchesPerPeerProbes: the view's one sweep answers, row for
// row and cell for cell, what a Contains per (peer, term) answers
// — across version bumps, Invalidate, a budget so small that the sweep
// evicts its own rows, off-line and filterless peers, the self row and a
// corrupt payload — and it stays well-formed while Upsert and MarkOffline
// race it.
func TestSweepMatchesPerPeerProbes(t *testing.T) {
	p, err := NewPeer(Config{ID: 0, Capacity: 64, Gossip: fastGossip(), FilterCacheBudget: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Stop()
	if _, err := p.Publish(`<d>alpha sweep</d>`); err != nil {
		t.Fatal(err)
	}
	vocab := []string{"alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "sweep"}
	ds := bloom.MakeDigests(vocab)
	// payOf gives peer id at seq a version-dependent subset of vocab.
	payOf := func(id directory.PeerID, seq uint32) []byte {
		var terms []string
		for i, w := range vocab {
			if (int(id)+int(seq)+i)%3 != 0 {
				terms = append(terms, w)
			}
		}
		return cachePayload(terms...)
	}
	upsert := func(id directory.PeerID, ver directory.Version, pay []byte) {
		p.dir.Upsert(directory.Record{ID: id, Ver: ver, Payload: pay, PayloadSize: int32(len(pay))})
	}
	const filtered, filterless, corrupt = 24, 27, directory.PeerID(28)
	for id := directory.PeerID(1); id <= filtered; id++ {
		upsert(id, directory.Version{Epoch: 1, Seq: 1}, payOf(id, 1))
	}
	for id := directory.PeerID(filtered + 1); id <= filterless; id++ {
		upsert(id, directory.Version{Epoch: 1, Seq: 1}, nil)
	}
	bad := payOf(corrupt, 1)
	upsert(corrupt, directory.Version{Epoch: 1, Seq: 1}, bad[:len(bad)-1])
	p.dir.MarkOffline(3, time.Second)
	p.dir.MarkOffline(9, time.Second)

	check := func(when string) {
		t.Helper()
		evictions := p.view.cache.Stats().Evictions
		peers, hits := p.view.Sweep(ds)
		if want := p.dir.OnlineIDs(); !slices.Equal(peers, want) {
			t.Fatalf("%s: Sweep peers %v, want the on-line ids %v", when, peers, want)
		}
		if !slices.Contains(peers, p.id) {
			t.Fatalf("%s: the self row is missing", when)
		}
		if p.view.cache.Stats().Evictions == evictions {
			t.Fatalf("%s: the sweep evicted nothing; the budget does not bite", when)
		}
		for r, id := range peers {
			for i, term := range vocab {
				if got, want := hits[r*len(ds)+i], p.view.Contains(id, term); got != want {
					t.Fatalf("%s: peer %d %q: sweep %v, Contains %v", when, id, term, got, want)
				}
			}
			if id == corrupt || id > filtered && id <= filterless {
				if slices.Contains(hits[r*len(ds):(r+1)*len(ds)], true) {
					t.Fatalf("%s: peer %d has no usable filter but hit", when, id)
				}
			}
		}
	}
	check("initial")
	check("repeat")
	for id := directory.PeerID(1); id <= filtered; id += 4 {
		upsert(id, directory.Version{Epoch: 1, Seq: 2}, payOf(id, 2))
	}
	check("after version bumps")
	for id := directory.PeerID(2); id <= filtered; id += 5 {
		p.view.cache.Invalidate(id)
	}
	check("after Invalidate")
	p.dir.MarkOffline(4, time.Second)
	p.dir.MarkOnline(3)
	check("after off/on-line flips")
	upsert(corrupt, directory.Version{Epoch: 1, Seq: 2}, payOf(corrupt, 2))
	peers, hits := p.view.Sweep(ds)
	if r := slices.Index(peers, corrupt); r < 0 || !slices.Contains(hits[r*len(ds):(r+1)*len(ds)], true) {
		t.Fatal("the repaired payload's new version answers no probe")
	}

	// Racing the directory's writers: every sweep is well-formed and a
	// peer without a usable filter never hits.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				peers, hits := p.view.Sweep(ds)
				if len(hits) != len(peers)*len(ds) || !slices.IsSorted(peers) {
					t.Errorf("malformed sweep: %d peers, %d cells", len(peers), len(hits))
					return
				}
				for r, id := range peers {
					if id > filtered && id <= filterless && slices.Contains(hits[r*len(ds):(r+1)*len(ds)], true) {
						t.Errorf("filterless peer %d hit", id)
						return
					}
				}
			}
		}()
	}
	for i := 0; i < 600; i++ {
		id := directory.PeerID(1 + i%filtered)
		switch i % 3 {
		case 0:
			upsert(id, directory.Version{Epoch: 1, Seq: uint32(3 + i)}, payOf(id, uint32(i)))
		case 1:
			p.dir.MarkOffline(id, time.Duration(i)*time.Millisecond)
		case 2:
			upsert(id, directory.Version{Epoch: 2, Seq: uint32(i)}, payOf(id, uint32(i)))
		}
	}
	close(stop)
	wg.Wait()
}

// TestSweepFollowsDirectoryGeneration: the view reads the directory's
// on-line columns once per generation. Sweeps over an unchanged directory
// share one read, and a sweep after an Upsert, an off-line and on-line
// flip, or a DropDead sees the change, row for row and cell for cell.
func TestSweepFollowsDirectoryGeneration(t *testing.T) {
	p, err := NewPeer(Config{ID: 0, Capacity: 16, Gossip: fastGossip()})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Stop()
	mustPublish(t, p, `<d>alpha self</d>`)
	vocab := []string{"alpha", "bravo", "charlie", "self"}
	ds := bloom.MakeDigests(vocab)
	upsert := func(id directory.PeerID, seq uint32, terms ...string) {
		pay := cachePayload(terms...)
		p.dir.Upsert(directory.Record{ID: id, Ver: directory.Version{Epoch: 1, Seq: seq}, Payload: pay, PayloadSize: int32(len(pay))})
	}
	upsert(1, 1, "alpha")
	upsert(2, 1, "bravo")
	upsert(3, 1, "charlie")

	check := func(when string) []directory.PeerID {
		t.Helper()
		peers, hits := p.view.Sweep(ds)
		if want := p.dir.OnlineIDs(); !slices.Equal(peers, want) {
			t.Fatalf("%s: Sweep peers %v, want the on-line ids %v", when, peers, want)
		}
		for r, id := range peers {
			for i, term := range vocab {
				if got, want := hits[r*len(ds)+i], p.view.Contains(id, term); got != want {
					t.Fatalf("%s: peer %d %q: sweep %v, Contains %v", when, id, term, got, want)
				}
			}
		}
		return peers
	}
	first := check("initial")
	if again := check("repeat"); &again[0] != &first[0] {
		t.Fatal("a sweep over an unchanged directory read its columns again")
	}
	upsert(4, 1, "alpha", "bravo")
	upsert(1, 2, "charlie")
	if peers := check("after upserts"); !slices.Contains(peers, 4) {
		t.Fatal("the new peer is missing")
	}
	p.dir.MarkOffline(2, time.Second)
	if peers := check("after an off-line flip"); slices.Contains(peers, 2) {
		t.Fatal("the off-line peer is still swept")
	}
	p.dir.MarkOnline(2)
	if peers := check("after an on-line flip"); !slices.Contains(peers, 2) {
		t.Fatal("the peer back on-line is missing")
	}
	p.dir.MarkOffline(3, time.Second)
	if dropped := p.dir.DropDead(time.Second, time.Minute); !slices.Equal(dropped, []directory.PeerID{3}) {
		t.Fatalf("DropDead = %v, want [3]", dropped)
	}
	if peers := check("after DropDead"); slices.Contains(peers, 3) {
		t.Fatal("the dropped peer is still swept")
	}
}

// TestViewCacheConcurrentChurn races the query fast path (IPF ranking +
// single and batched digest probes through the filter cache) against
// directory churn: version bumps, off-line flips, and T_Dead drops. Run
// with -race; the assertions only check crash-freedom and that probes
// never observe a peer the directory dropped.
func TestViewCacheConcurrentChurn(t *testing.T) {
	p, err := NewPeer(Config{
		ID: 0, Capacity: 64, Gossip: fastGossip(),
		FilterCacheBudget: 16 << 10, // tiny: force constant eviction
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Stop()

	terms := []string{"alpha", "bravo", "charlie"}
	digests := make([]bloom.Digest, len(terms))
	for i, s := range terms {
		digests[i] = bloom.MakeDigest(s)
	}
	payOf := func(seq uint32) []byte {
		return cachePayload("alpha", "bravo", "charlie", fmt.Sprintf("v%d", seq))
	}
	for id := directory.PeerID(1); id < 32; id++ {
		pay := payOf(1)
		p.dir.Upsert(directory.Record{
			ID: id, Ver: directory.Version{Epoch: 1, Seq: 1},
			Payload: pay, PayloadSize: int32(len(pay)),
		})
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				id := directory.PeerID(1 + (i+g)%32)
				p.view.Contains(id, terms[i%len(terms)])
				p.view.Sweep(digests)
				if i%7 == 0 {
					search.RankPeers(p.view, terms, search.IPF(p.view, terms))
				}
			}
		}(g)
	}

	for i := 0; i < 1500; i++ {
		id := directory.PeerID(1 + i%31)
		switch i % 5 {
		case 0, 1, 2: // version bump
			seq := uint32(2 + i/5)
			pay := payOf(seq)
			p.dir.Upsert(directory.Record{
				ID: id, Ver: directory.Version{Epoch: 1, Seq: seq},
				Payload: pay, PayloadSize: int32(len(pay)),
			})
		case 3: // churn out...
			p.dir.MarkOffline(id, time.Duration(i)*time.Millisecond)
			p.dir.DropDead(time.Nanosecond, time.Hour)
		case 4: // ...and rejoin with a fresh epoch
			pay := payOf(1)
			p.dir.Upsert(directory.Record{
				ID: id, Ver: directory.Version{Epoch: uint32(2 + i/5), Seq: 1},
				Payload: pay, PayloadSize: int32(len(pay)),
			})
		}
	}
	close(stop)
	wg.Wait()

	if rb := p.view.cache.ResidentBytes(); rb > 16<<10 {
		t.Fatalf("resident bytes %d exceed the 16KiB budget after churn", rb)
	}
}
