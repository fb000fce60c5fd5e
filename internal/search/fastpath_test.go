package search

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"planetp/internal/directory"
	"planetp/internal/metrics"
)

// syncFake wraps a fakeCommunity so the concurrent fan-out can use it: the
// mutable bookkeeping is mutex-guarded and per-peer artificial delays simulate
// slow links.
type syncFake struct {
	*fakeCommunity
	mu    sync.Mutex
	delay map[directory.PeerID]time.Duration
}

func newSyncFake(f *fakeCommunity) *syncFake {
	return &syncFake{fakeCommunity: f, delay: map[directory.PeerID]time.Duration{}}
}

func (s *syncFake) QueryPeer(id directory.PeerID, terms []string) ([]DocResult, error) {
	if d := s.delay[id]; d > 0 {
		time.Sleep(d)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fakeCommunity.QueryPeer(id, terms)
}

func (s *syncFake) QueryPeerAll(id directory.PeerID, terms []string) ([]DocResult, error) {
	if d := s.delay[id]; d > 0 {
		time.Sleep(d)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fakeCommunity.QueryPeerAll(id, terms)
}

// buildDeterminismFixture seeds a community with skewed term placement,
// duplicate document keys replicated across peers, and failing peers — the
// cases where a sloppy concurrent merge would diverge from the sequential
// sweep.
func buildDeterminismFixture(seed int64) *syncFake {
	f := newFake()
	rng := rand.New(rand.NewSource(seed))
	for p := directory.PeerID(0); p < 30; p++ {
		for d := 0; d < 4; d++ {
			freqs := map[string]int{"alpha": rng.Intn(5) + 1}
			if rng.Intn(2) == 0 {
				freqs["beta"] = rng.Intn(3) + 1
			}
			if rng.Intn(5) == 0 {
				freqs["gamma"] = rng.Intn(4) + 1
			}
			key := fmt.Sprintf("p%d-d%d", p, d)
			if rng.Intn(4) == 0 {
				// Replicated document: the same key lives on several
				// peers; only the first contact in rank order may count.
				key = fmt.Sprintf("shared-%d", rng.Intn(8))
			}
			f.addDoc(p, key, freqs)
		}
		if rng.Intn(6) == 0 {
			f.fail[p] = true
		}
	}
	return newSyncFake(f)
}

// TestConcurrentRankedDeterminism: with any Concurrency setting, Ranked
// must return exactly the sequential result — same documents, same scores,
// same Stats — because responses are merged in rank order.
func TestConcurrentRankedDeterminism(t *testing.T) {
	terms := []string{"alpha", "beta", "gamma"}
	for _, seed := range []int64{1, 7, 42} {
		f := buildDeterminismFixture(seed)
		wantDocs, wantSt := Ranked(f, f, terms, Options{K: 12, GroupSize: 5})
		for _, conc := range []int{2, 4, 16} {
			f.fakeCommunity.queried = nil
			gotDocs, gotSt := Ranked(f, f, terms, Options{K: 12, GroupSize: 5, Concurrency: conc})
			if !reflect.DeepEqual(gotDocs, wantDocs) {
				t.Fatalf("seed %d conc %d: docs diverge from sequential\n got %v\nwant %v",
					seed, conc, gotDocs, wantDocs)
			}
			if gotSt != wantSt {
				t.Fatalf("seed %d conc %d: stats %+v, want %+v", seed, conc, gotSt, wantSt)
			}
		}
	}
}

// TestConcurrentExhaustiveDeterminism mirrors the ranked test for the
// conjunctive path.
func TestConcurrentExhaustiveDeterminism(t *testing.T) {
	terms := []string{"alpha", "beta"}
	f := buildDeterminismFixture(3)
	wantDocs, wantSt := Exhaustive(f, f, terms, Options{})
	gotDocs, gotSt := Exhaustive(f, f, terms, Options{Concurrency: 8})
	if !reflect.DeepEqual(gotDocs, wantDocs) {
		t.Fatalf("concurrent exhaustive diverges:\n got %v\nwant %v", gotDocs, wantDocs)
	}
	if gotSt != wantSt {
		t.Fatalf("stats %+v, want %+v", gotSt, wantSt)
	}
}

// TestConcurrentRankedSlowFlakyPeers exercises the fan-out under the race
// detector with slow and failing peers mixed into one group.
func TestConcurrentRankedSlowFlakyPeers(t *testing.T) {
	f := buildDeterminismFixture(9)
	for p := directory.PeerID(0); p < 30; p += 3 {
		f.delay[p] = time.Duration(p%5) * time.Millisecond
	}
	terms := []string{"alpha", "beta"}
	want, wantSt := Ranked(f, f, terms, Options{K: 10, GroupSize: 8})
	got, gotSt := Ranked(f, f, terms, Options{K: 10, GroupSize: 8, Concurrency: 8})
	if !reflect.DeepEqual(got, want) || gotSt != wantSt {
		t.Fatalf("slow/flaky concurrent run diverges: %+v vs %+v", gotSt, wantSt)
	}
}

// TestIPFCacheHitMiss: cached results are the exact objects the uncached
// path computes, hit/miss counters track lookups, and term order is part
// of the key (score bit-exactness beats hit rate).
func TestIPFCacheHitMiss(t *testing.T) {
	f := buildRankedCommunity()
	c := NewIPFCache()
	reg := metrics.NewRegistry()
	terms := []string{"gossip", "bloom"}

	ipf1, r1 := c.IPFRanked(f, terms, reg)
	ipf2, r2 := c.IPFRanked(f, terms, reg)
	wantIPF := IPF(f, terms)
	wantRanks := RankPeers(f, terms, wantIPF)
	if !reflect.DeepEqual(ipf1, wantIPF) || !reflect.DeepEqual(r1, wantRanks) {
		t.Fatalf("cached compute differs from direct path")
	}
	if !reflect.DeepEqual(ipf2, ipf1) || !reflect.DeepEqual(r2, r1) {
		t.Fatalf("second lookup differs")
	}
	s := reg.Snapshot()
	if s.Get("search_ipf_cache_hits_total") != 1 || s.Get("search_ipf_cache_misses_total") != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1",
			s.Get("search_ipf_cache_hits_total"), s.Get("search_ipf_cache_misses_total"))
	}

	// Permuted terms are a distinct entry: reusing one would fold IPF
	// weights in a different order.
	c.IPFRanked(f, []string{"bloom", "gossip"}, reg)
	if c.Len() != 2 {
		t.Fatalf("Len = %d after permuted query, want 2", c.Len())
	}

	c.Invalidate()
	c.IPFRanked(f, terms, reg)
	if got := reg.Snapshot().Get("search_ipf_cache_misses_total"); got != 3 {
		t.Fatalf("misses = %d after invalidate, want 3", got)
	}
}

// versionedFake adds a settable view version to fakeCommunity.
type versionedFake struct {
	*fakeCommunity
	ver uint64
}

func (v *versionedFake) ViewVersion() (uint64, bool) { return v.ver, true }

// TestIPFCacheVersionFlush: a version advance drops every entry on the
// next lookup without an explicit Invalidate.
func TestIPFCacheVersionFlush(t *testing.T) {
	v := &versionedFake{fakeCommunity: buildRankedCommunity(), ver: 1}
	c := NewIPFCache()
	reg := metrics.NewRegistry()
	terms := []string{"gossip"}

	c.IPFRanked(v, terms, reg)
	c.IPFRanked(v, terms, reg)
	if got := reg.Snapshot().Get("search_ipf_cache_hits_total"); got != 1 {
		t.Fatalf("hits = %d before version bump", got)
	}

	v.ver = 2 // a filter changed somewhere
	c.IPFRanked(v, terms, reg)
	s := reg.Snapshot()
	if s.Get("search_ipf_cache_misses_total") != 2 {
		t.Fatalf("version bump did not flush: misses = %d", s.Get("search_ipf_cache_misses_total"))
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d after re-fill", c.Len())
	}
}

// invalidatingView fires a cache invalidation from inside the compute
// phase (Peers is called outside the cache lock), simulating a filter
// change racing a miss.
type invalidatingView struct {
	*fakeCommunity
	cache *IPFCache
	fired bool
}

func (v *invalidatingView) Peers() []directory.PeerID {
	if !v.fired {
		v.fired = true
		v.cache.Invalidate()
	}
	return v.fakeCommunity.Peers()
}

// TestIPFCacheRacingInvalidate: an invalidation arriving while a miss is
// being computed must win — the late store is discarded, not resurrected.
func TestIPFCacheRacingInvalidate(t *testing.T) {
	c := NewIPFCache()
	v := &invalidatingView{fakeCommunity: buildRankedCommunity(), cache: c}
	reg := metrics.NewRegistry()
	ipf, ranks := c.IPFRanked(v, []string{"gossip"}, reg)
	if len(ipf) == 0 || len(ranks) == 0 {
		t.Fatal("racing invalidate corrupted the returned results")
	}
	// The late store carries the pre-invalidation stamp: the next lookup
	// must recompute, not be served it.
	c.IPFRanked(v, []string{"gossip"}, reg)
	if s := reg.Snapshot(); s.Get("search_ipf_cache_hits_total") != 0 || s.Get("search_ipf_cache_misses_total") != 2 {
		t.Fatalf("entry computed across an Invalidate was served: hits=%d misses=%d",
			s.Get("search_ipf_cache_hits_total"), s.Get("search_ipf_cache_misses_total"))
	}
	// The recompute's own entry is good.
	c.IPFRanked(v, []string{"gossip"}, reg)
	if got := reg.Snapshot().Get("search_ipf_cache_hits_total"); got != 1 {
		t.Fatalf("hits = %d after a clean recompute, want 1", got)
	}
}

// TestIPFCacheBounded: distinct queries on a view that never changes (no
// version move to retire them) stop accumulating at the bound.
func TestIPFCacheBounded(t *testing.T) {
	v := &versionedFake{fakeCommunity: buildRankedCommunity(), ver: 1}
	c := NewIPFCache()
	for i := 0; i < 10000; i++ {
		c.IPFRanked(v, []string{"gossip", fmt.Sprintf("q%d", i)}, nil)
	}
	if c.Len() != ipfCacheEntries {
		t.Fatalf("Len = %d after 10000 distinct queries, want the bound %d", c.Len(), ipfCacheEntries)
	}
	// The most recent query is still a hit.
	reg := metrics.NewRegistry()
	c.IPFRanked(v, []string{"gossip", "q9999"}, reg)
	if got := reg.Snapshot().Get("search_ipf_cache_hits_total"); got != 1 {
		t.Fatalf("most recent query evicted: hits = %d", got)
	}
}

// TestRegistryCacheInvalidation: a filter notification through the
// persistent-query registry invalidates the attached cache (the unversioned
// fallback path).
func TestRegistryCacheInvalidation(t *testing.T) {
	f := newFake()
	f.addDoc(0, "d0", map[string]int{"news": 1})
	reg := NewRegistry(f, f)
	c := NewIPFCache()
	reg.SetCache(c)

	c.IPFRanked(f, []string{"news"}, nil)
	if c.Len() != 1 {
		t.Fatalf("Len = %d after warm-up", c.Len())
	}
	reg.NotifyFilter(0)
	m := metrics.NewRegistry()
	c.IPFRanked(f, []string{"news"}, m)
	if m.Snapshot().Get("search_ipf_cache_hits_total") != 0 {
		t.Fatal("NotifyFilter did not invalidate the IPF cache")
	}
}

// TestRankedWithCacheMatchesUncached: the full search result is identical
// with and without a cache, on both cold and warm lookups.
func TestRankedWithCacheMatchesUncached(t *testing.T) {
	f := buildDeterminismFixture(11)
	terms := []string{"alpha", "beta"}
	want, wantSt := Ranked(f, f, terms, Options{K: 8, GroupSize: 3})
	cache := NewIPFCache()
	for pass := 0; pass < 2; pass++ { // pass 0 fills, pass 1 hits
		got, gotSt := Ranked(f, f, terms, Options{K: 8, GroupSize: 3, Cache: cache})
		if !reflect.DeepEqual(got, want) || gotSt != wantSt {
			t.Fatalf("pass %d: cached search diverges", pass)
		}
	}
	if cache.Len() != 1 {
		t.Fatalf("cache Len = %d", cache.Len())
	}
}

// TestMergedViewDeclinesDigests: a wrapper over a base without digest
// support must not be treated as digest-capable even though it
// structurally satisfies RowView.
func TestMergedViewDeclinesDigests(t *testing.T) {
	f := buildRankedCommunity() // fakeCommunity: Contains only
	mv := NewMergedView(f, 2)
	q := newQuery(mv, []string{"gossip"})
	if q.rv != nil {
		t.Fatal("newQuery accepted digest probing from a non-digest base")
	}
	if _, ok := mv.ViewVersion(); ok {
		t.Fatal("MergedView invented a version for an unversioned base")
	}
	// The fallback path still answers correctly through group semantics.
	if c := q.candidates([]directory.PeerID{0}); len(c) != 1 {
		t.Fatal("fallback candidate test failed")
	}
}
