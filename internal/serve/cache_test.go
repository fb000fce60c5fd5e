package serve

import (
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"planetp/internal/core"
	"planetp/internal/directory"
)

// TestResultCacheLRUAndGeneration: unit behaviour — LRU eviction at
// cacheEntries, miss on generation advance, stale put never returned.
func TestResultCacheLRUAndGeneration(t *testing.T) {
	c := newResultCache()
	c.put(1, "a", []byte("A"))
	c.put(1, "b", []byte("B"))
	for i := 2; i < cacheEntries; i++ {
		c.put(1, strconv.Itoa(i), nil)
	}
	if _, ok := c.get(1, "a"); !ok {
		t.Fatal("a missing after put")
	}
	// a is now most-recent; inserting c evicts b.
	c.put(1, "c", []byte("C"))
	if _, ok := c.get(1, "b"); ok {
		t.Fatal("b survived past the cap; LRU should have evicted it")
	}
	if _, ok := c.get(1, "a"); !ok {
		t.Fatal("a evicted although most recently used")
	}

	// After a generation advance no older entry is ever returned — not at
	// the new generation, and (once seen stale) not at the old one either.
	for _, key := range []string{"a", "c"} {
		if _, ok := c.get(2, key); ok {
			t.Fatalf("%s: hit across a generation advance", key)
		}
		if _, ok := c.get(1, key); ok {
			t.Fatalf("%s: stale entry survived the lookup that found it stale", key)
		}
	}

	// A put stamped with a superseded generation must be dropped: the
	// search it caches ran against a view that has already changed.
	c.put(1, "old", []byte("stale"))
	if _, ok := c.get(2, "old"); ok {
		t.Fatal("stale-generation put was stored")
	}
}

func cacheHeader(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("search status = %d", resp.StatusCode)
	}
	return resp.Header.Get("X-Planetp-Cache")
}

// TestSearchCacheHitAndKeying: repeated identical searches hit; changing
// K or the terms misses.
func TestSearchCacheHitAndKeying(t *testing.T) {
	p := newTestPeer(t, 0)
	if _, err := p.Publish(`<doc>cache keying coverage</doc>`); err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, p, Config{})

	if got := cacheHeader(t, postJSON(t, ts.URL+"/v1/search", SearchRequest{Query: "cache", K: 5})); got != "miss" {
		t.Fatalf("first search = %q, want miss", got)
	}
	if got := cacheHeader(t, postJSON(t, ts.URL+"/v1/search", SearchRequest{Query: "cache", K: 5})); got != "hit" {
		t.Fatalf("repeat search = %q, want hit", got)
	}
	// Different K → different truncation → separate entry.
	if got := cacheHeader(t, postJSON(t, ts.URL+"/v1/search", SearchRequest{Query: "cache", K: 1})); got != "miss" {
		t.Fatalf("different-K search = %q, want miss", got)
	}
	// Equivalent spelling (stemming + case) canonicalizes to the same
	// terms — and hits.
	if got := cacheHeader(t, postJSON(t, ts.URL+"/v1/search", SearchRequest{Query: "Caches", K: 5})); got != "hit" {
		t.Fatalf("stem-equivalent search = %q, want hit", got)
	}
	// NoCache bypasses without disturbing the entry.
	if got := cacheHeader(t, postJSON(t, ts.URL+"/v1/search", SearchRequest{Query: "cache", K: 5, NoCache: true})); got != "bypass" {
		t.Fatalf("no-cache search header = %q, want bypass", got)
	}
	if hits := s.reg.Counter("serve_cache_hits_total").Value(); hits != 2 {
		t.Fatalf("serve_cache_hits_total = %d, want 2", hits)
	}
}

// TestPublishInvalidatesSearchCache is the end-to-end cache-correctness
// contract, verified through the HTTP handlers alone: a publish bumps
// directory.Generation() (it upserts the self record), so a search that
// was cached before the publish must MISS afterwards and return the new
// document — a stale hit here would mean the serving tier can answer
// from a view the node itself no longer holds.
func TestPublishInvalidatesSearchCache(t *testing.T) {
	p := newTestPeer(t, 0)
	_, ts := newTestServer(t, p, Config{})

	pub := postJSON(t, ts.URL+"/v1/publish", PublishRequest{XML: `<doc>stale bread first</doc>`})
	pub.Body.Close()
	genBefore := p.Directory().Generation()

	q := SearchRequest{Query: "stale", K: 10}
	first := postJSON(t, ts.URL+"/v1/search", q)
	if got := first.Header.Get("X-Planetp-Cache"); got != "miss" {
		t.Fatalf("first search = %q, want miss", got)
	}
	res1 := decodeBody[SearchResponse](t, first)
	if len(res1.Hits) != 1 {
		t.Fatalf("first search hits = %+v, want 1", res1.Hits)
	}
	if got := cacheHeader(t, postJSON(t, ts.URL+"/v1/search", q)); got != "hit" {
		t.Fatalf("warmed search = %q, want hit", got)
	}

	// The invalidating event, through the API like any client.
	pub2 := postJSON(t, ts.URL+"/v1/publish", PublishRequest{XML: `<doc>stale bread second</doc>`})
	if pub2.StatusCode != http.StatusOK {
		t.Fatalf("publish status = %d", pub2.StatusCode)
	}
	pub2.Body.Close()
	if gen := p.Directory().Generation(); gen <= genBefore {
		t.Fatalf("publish did not advance the directory generation (%d -> %d)", genBefore, gen)
	}

	after := postJSON(t, ts.URL+"/v1/search", q)
	if got := after.Header.Get("X-Planetp-Cache"); got != "miss" {
		t.Fatalf("post-publish search = %q, want miss (stale hit!)", got)
	}
	res2 := decodeBody[SearchResponse](t, after)
	if len(res2.Hits) != 2 {
		t.Fatalf("post-publish search hits = %d, want 2 (new doc missing)", len(res2.Hits))
	}
	if res2.Generation <= res1.Generation {
		t.Fatalf("response generation did not advance: %d -> %d", res1.Generation, res2.Generation)
	}

	// And the refreshed answer is itself cacheable again.
	if got := cacheHeader(t, postJSON(t, ts.URL+"/v1/search", q)); got != "hit" {
		t.Fatalf("re-warmed search = %q, want hit", got)
	}
}

// TestBatchPublishInvalidatesSearchCache: the batched ingest route
// invalidates too (one generation bump per batch).
func TestBatchPublishInvalidatesSearchCache(t *testing.T) {
	p := newTestPeer(t, 0)
	_, ts := newTestServer(t, p, Config{})

	if _, err := p.Publish(`<doc>batch invalidation zero</doc>`); err != nil {
		t.Fatal(err)
	}
	q := SearchRequest{Query: "invalidation", K: 10}
	cacheHeader(t, postJSON(t, ts.URL+"/v1/search", q)) // warm
	if got := cacheHeader(t, postJSON(t, ts.URL+"/v1/search", q)); got != "hit" {
		t.Fatalf("warmed search = %q, want hit", got)
	}

	b := postJSON(t, ts.URL+"/v1/publish-batch", PublishBatchRequest{XMLs: []string{
		`<doc>batch invalidation one</doc>`, `<doc>batch invalidation two</doc>`,
	}})
	b.Body.Close()

	after := postJSON(t, ts.URL+"/v1/search", q)
	if got := after.Header.Get("X-Planetp-Cache"); got != "miss" {
		t.Fatalf("post-batch search = %q, want miss", got)
	}
	if res := decodeBody[SearchResponse](t, after); len(res.Hits) != 3 {
		t.Fatalf("post-batch hits = %d, want 3", len(res.Hits))
	}
}

// TestUnknownSearchFieldsIgnored: the request fields the API once had
// ("group_size", "concurrency") are ignored like any unknown field. On a
// four-peer community where contacting in groups of 3 would cost a fourth
// contact, a request carrying them gets the plain request's contact
// schedule, and shares its cache entry.
func TestUnknownSearchFieldsIgnored(t *testing.T) {
	// Every filter has the term, so peers rank by id: peer 0 holds the
	// best document, peers 1 and 2 fail to improve on it and, at k = 1,
	// equation 4 stops the search before peer 3.
	peers := make([]*core.Peer, 4)
	for i := range peers {
		p, err := core.NewPeer(core.Config{
			ID: directory.PeerID(i), Capacity: len(peers),
			Gossip: fastGossip(), Seed: int64(i + 1),
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(p.Stop)
		peers[i] = p
		xml := `<doc>legacy filler words around it</doc>`
		if i == 0 {
			xml = `<doc>legacy legacy</doc>`
		}
		if _, err := p.Publish(xml); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range peers[1:] {
		if err := p.Join(peers[0].Addr()); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range peers {
		p.Start()
	}
	_, ts := newTestServer(t, peers[0], Config{})
	search := func(body string) *http.Response {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/search", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("search %s: status %d", body, resp.StatusCode)
		}
		return resp
	}
	waitForCond(t, 10*time.Second, "peer 0 to hold all four filters", func() bool {
		st := decodeBody[SearchResponse](t, search(`{"query":"legacy","k":1,"no_cache":true}`)).Stats
		return st.PeersRanked == len(peers)
	})

	plain := search(`{"query":"legacy","k":1}`)
	if got := plain.Header.Get("X-Planetp-Cache"); got != "miss" {
		t.Fatalf("plain search = %q, want miss", got)
	}
	want := decodeBody[SearchResponse](t, plain).Stats
	if want.PeersContacted != 3 || !want.StoppedEarly {
		t.Fatalf("plain search stats = %+v, want 3 peers contacted and an early stop", want)
	}
	const legacy = `"group_size":3,"concurrency":4`
	fresh := search(`{"query":"legacy","k":1,"no_cache":true,` + legacy + `}`)
	if got := decodeBody[SearchResponse](t, fresh).Stats; got != want {
		t.Fatalf("stats with the legacy fields = %+v, want the plain request's %+v", got, want)
	}
	if got := cacheHeader(t, search(`{"query":"legacy","k":1,`+legacy+`}`)); got != "hit" {
		t.Fatalf("legacy-field search = %q, want hit on the plain request's entry", got)
	}
}
