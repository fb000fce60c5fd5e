package serve

import (
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"planetp/internal/core"
	"planetp/internal/directory"
	"planetp/internal/metrics"
)

// TestResultCacheLRUAndGeneration: unit behaviour — LRU eviction at
// cacheEntries, miss on generation advance, stale put never returned.
func TestResultCacheLRUAndGeneration(t *testing.T) {
	c := newResultCache()
	c.put(1, "a", cached{body: []byte("A")})
	c.put(1, "b", cached{body: []byte("B")})
	for i := 2; i < cacheEntries; i++ {
		c.put(1, strconv.Itoa(i), cached{})
	}
	if _, ok, _ := c.get(1, "a"); !ok {
		t.Fatal("a missing after put")
	}
	// a is now most-recent; inserting c evicts b.
	c.put(1, "c", cached{body: []byte("C")})
	if _, ok, _ := c.get(1, "b"); ok {
		t.Fatal("b survived past the cap; LRU should have evicted it")
	}
	if _, ok, _ := c.get(1, "a"); !ok {
		t.Fatal("a evicted although most recently used")
	}

	// After a generation advance no older entry is ever returned — not at
	// the new generation, and (once seen stale) not at the old one either.
	for _, key := range []string{"a", "c"} {
		if _, ok, _ := c.get(2, key); ok {
			t.Fatalf("%s: hit across a generation advance", key)
		}
		if _, ok, _ := c.get(1, key); ok {
			t.Fatalf("%s: stale entry survived the lookup that found it stale", key)
		}
	}

	// A put stamped with a superseded generation must be dropped: the
	// search it caches ran against a view that has already changed.
	c.put(1, "old", cached{body: []byte("stale")})
	if _, ok, _ := c.get(2, "old"); ok {
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

// quietPair builds two peers that know each other and are never started:
// no gossip runs, so the directory generation moves only when the test
// moves it. Peer 1 holds two documents with "repair".
func quietPair(t *testing.T) (p0, p1 *core.Peer) {
	t.Helper()
	peers := make([]*core.Peer, 2)
	for i := range peers {
		p, err := core.NewPeer(core.Config{ID: directory.PeerID(i), Capacity: 2, Seed: int64(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(p.Stop)
		peers[i] = p
	}
	if _, err := peers[1].PublishBatch([]string{"<doc>repair one</doc>", "<doc>repair repair two</doc>"}); err != nil {
		t.Fatal(err)
	}
	peers[0].Directory().Upsert(peers[1].Node().OutgoingSelf())
	peers[1].Directory().Upsert(peers[0].Node().OutgoingSelf())
	return peers[0], peers[1]
}

// A query's first sighting keeps only its body; its second, a stale entry,
// is repaired and keeps the answers; its third reuses the remote peer's
// answer, whose record did not move. Each is a miss, and both counters
// read the repairs and the reuse over HTTP, as JSON and as Prometheus text.
func TestStaleEntryRepairedFromKeptAnswers(t *testing.T) {
	p, _ := quietPair(t)
	s, ts := newTestServer(t, p, Config{})
	q := SearchRequest{Query: "repair", K: 10}
	key := searchCacheKey(core.Terms(q.Query), q.K)
	ask := func(round int) {
		t.Helper()
		resp := postJSON(t, ts.URL+"/v1/search", q)
		if got := resp.Header.Get("X-Planetp-Cache"); got != "miss" {
			t.Fatalf("search %d = %q, want miss", round, got)
		}
		if res := decodeBody[SearchResponse](t, resp); len(res.Hits) != 2 || res.Stats.PeersContacted != 1 {
			t.Fatalf("search %d: %+v, want peer 1's 2 documents", round, res)
		}
	}
	entry := func() cached {
		t.Helper()
		e, fresh, _ := s.cache.get(p.Directory().Generation(), key)
		if !fresh {
			t.Fatal("no fresh entry after a search")
		}
		return e
	}
	publish := func() {
		t.Helper()
		if _, err := p.Publish("<doc>unrelated " + strconv.Itoa(int(p.Directory().Generation())) + "</doc>"); err != nil {
			t.Fatal(err)
		}
	}

	ask(1)
	if e := entry(); e.answers != nil {
		t.Fatal("a first-sighting search kept its answers")
	}
	publish()
	ask(2)
	if e := entry(); e.answers == nil {
		t.Fatal("a repaired entry kept no answers")
	}
	publish()
	ask(3)

	resp, err := http.Get(ts.URL + "/debug/metrics")
	if err != nil {
		t.Fatal(err)
	}
	snap := decodeBody[metrics.Snapshot](t, resp)
	if r, u := snap.Counters["serve_cache_repairs_total"], snap.Counters["search_answers_reused_total"]; r != 2 || u != 1 {
		t.Fatalf("JSON: serve_cache_repairs_total %d, search_answers_reused_total %d; want 2 and 1", r, u)
	}
	resp, err = http.Get(ts.URL + "/debug/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	text, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{"\nserve_cache_repairs_total 2\n", "\nsearch_answers_reused_total 1\n"} {
		if !strings.Contains(string(text), line) {
			t.Fatalf("Prometheus text lacks %q", strings.TrimSpace(line))
		}
	}
}
