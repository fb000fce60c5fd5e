package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"planetp/internal/core"
	"planetp/internal/directory"
	"planetp/internal/gossip"
)

// fastGossip shrinks protocol timers so live tests converge in
// milliseconds.
func fastGossip() gossip.Config {
	return gossip.Config{
		BaseInterval: 25 * time.Millisecond,
		MaxInterval:  100 * time.Millisecond,
		SlowdownStep: 25 * time.Millisecond,
	}
}

// newTestPeer builds (and starts) one standalone peer.
func newTestPeer(t *testing.T, id int) *core.Peer {
	t.Helper()
	p, err := core.NewPeer(core.Config{
		ID: directory.PeerID(id), Capacity: 8,
		Gossip: fastGossip(), Seed: int64(id + 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Stop)
	p.Start()
	return p
}

// newTestServer mounts a Server for p on an httptest listener.
func newTestServer(t *testing.T, p *core.Peer, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(p, cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeBody[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

// TestPublishSearchFetchRoundTrip: the basic API surface works end to
// end on a single node — publish, search for it, fetch the body.
func TestPublishSearchFetchRoundTrip(t *testing.T) {
	p := newTestPeer(t, 0)
	_, ts := newTestServer(t, p, Config{})

	pub := postJSON(t, ts.URL+"/v1/publish", PublishRequest{XML: `<doc>epidemic gossip algorithms</doc>`})
	if pub.StatusCode != http.StatusOK {
		t.Fatalf("publish status = %d", pub.StatusCode)
	}
	id := decodeBody[PublishResponse](t, pub).ID
	if id == "" {
		t.Fatal("publish returned empty id")
	}

	sr := postJSON(t, ts.URL+"/v1/search", SearchRequest{Query: "gossip", K: 5})
	if sr.StatusCode != http.StatusOK {
		t.Fatalf("search status = %d", sr.StatusCode)
	}
	res := decodeBody[SearchResponse](t, sr)
	if len(res.Hits) != 1 || res.Hits[0].Key != id {
		t.Fatalf("search hits = %+v, want the published doc %s", res.Hits, id)
	}

	dr, err := http.Get(ts.URL + "/v1/doc/" + id)
	if err != nil {
		t.Fatal(err)
	}
	if dr.StatusCode != http.StatusOK {
		t.Fatalf("doc status = %d", dr.StatusCode)
	}
	if got := decodeBody[DocResponse](t, dr).XML; got != `<doc>epidemic gossip algorithms</doc>` {
		t.Fatalf("doc body = %q", got)
	}

	if r, _ := http.Get(ts.URL + "/v1/doc/nope"); r.StatusCode != http.StatusNotFound {
		t.Fatalf("missing doc status = %d, want 404", r.StatusCode)
	}
}

// TestDocPinnedPeerValidated: ?peer=N names a peer id, an int32. One out
// of range is refused, not wrapped onto another peer; one the directory
// does not know answers 404 without an RPC and without a strike against it.
func TestDocPinnedPeerValidated(t *testing.T) {
	p := newTestPeer(t, 0)
	_, ts := newTestServer(t, p, Config{})
	d, err := p.Publish(`<doc>pinned holder</doc>`)
	if err != nil {
		t.Fatal(err)
	}
	get := func(query string) int {
		t.Helper()
		r, err := http.Get(ts.URL + "/v1/doc/" + d.ID + query)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		return r.StatusCode
	}
	if code := get("?peer=0"); code != http.StatusOK {
		t.Fatalf("?peer=0 (self) status = %d, want 200", code)
	}
	for _, pv := range []string{"4294967296", "2147483648", "x"} {
		if code := get("?peer=" + pv); code != http.StatusBadRequest {
			t.Fatalf("?peer=%s status = %d, want 400", pv, code)
		}
	}
	for _, pv := range []string{"5", "-1", "2147483647"} {
		if code := get("?peer=" + pv); code != http.StatusNotFound {
			t.Fatalf("?peer=%s status = %d, want 404", pv, code)
		}
	}
	if got := p.Metrics().Counter("gossip_failed_sends_total").Value(); got != 0 {
		t.Fatalf("gossip_failed_sends_total = %d after fetches from unknown peers, want 0", got)
	}
}

// TestPublishBatchAndPeers: a batch ingests atomically; /v1/peers shows
// the directory.
func TestPublishBatchAndPeers(t *testing.T) {
	p := newTestPeer(t, 0)
	_, ts := newTestServer(t, p, Config{})

	batch := PublishBatchRequest{XMLs: []string{
		`<doc>alpha one</doc>`, `<doc>beta two</doc>`, `<doc>gamma three</doc>`,
	}}
	resp := postJSON(t, ts.URL+"/v1/publish-batch", batch)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status = %d", resp.StatusCode)
	}
	ids := decodeBody[PublishBatchResponse](t, resp).IDs
	if len(ids) != 3 {
		t.Fatalf("batch ids = %v", ids)
	}
	if p.LocalDocs() != 3 {
		t.Fatalf("LocalDocs = %d, want 3", p.LocalDocs())
	}

	pr, err := http.Get(ts.URL + "/v1/peers")
	if err != nil {
		t.Fatal(err)
	}
	peers := decodeBody[PeersResponse](t, pr)
	if peers.Self != 0 || peers.Known < 1 {
		t.Fatalf("peers = %+v", peers)
	}
}

// TestBadRequests: malformed input is the caller's problem — 400, never
// a 500 or a hang.
func TestBadRequests(t *testing.T) {
	p := newTestPeer(t, 0)
	_, ts := newTestServer(t, p, Config{})

	resp, err := http.Post(ts.URL+"/v1/search", "application/json", bytes.NewReader([]byte("{not json")))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body status = %d", resp.StatusCode)
	}
	resp.Body.Close()

	if r := postJSON(t, ts.URL+"/v1/search", SearchRequest{Query: "the and of"}); r.StatusCode != http.StatusBadRequest {
		t.Fatalf("stop-word query status = %d, want 400", r.StatusCode)
	}
	if r := postJSON(t, ts.URL+"/v1/publish", PublishRequest{XML: "<d></d>"}); r.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty doc status = %d, want 400", r.StatusCode)
	}
	if r := postJSON(t, ts.URL+"/v1/publish-batch", PublishBatchRequest{}); r.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty batch status = %d, want 400", r.StatusCode)
	}
	over := PublishBatchRequest{XMLs: make([]string, maxBatch+1)}
	for i := range over.XMLs {
		over.XMLs[i] = "<a>x</a>"
	}
	if r := postJSON(t, ts.URL+"/v1/publish-batch", over); r.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized batch status = %d, want 413", r.StatusCode)
	}
}

// TestSearchRejectsHugeK: k arrives from outside and every contacted
// peer's reply grows with it, so a request above maxK is refused before
// any search runs.
func TestSearchRejectsHugeK(t *testing.T) {
	p := newTestPeer(t, 0)
	if _, err := p.Publish(`<doc>cache bound</doc>`); err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, p, Config{})

	r := postJSON(t, ts.URL+"/v1/search", SearchRequest{Query: "cache", K: 20000000})
	if r.StatusCode != http.StatusBadRequest {
		t.Fatalf("k = 20000000 status = %d, want 400", r.StatusCode)
	}
	r.Body.Close()
	if got := s.reg.Counter("search_ranked_queries_total").Value(); got != 0 {
		t.Fatalf("refused request ran %d searches", got)
	}
	ok := postJSON(t, ts.URL+"/v1/search", SearchRequest{Query: "cache", K: maxK})
	if ok.StatusCode != http.StatusOK {
		t.Fatalf("k = maxK status = %d, want 200", ok.StatusCode)
	}
	if hits := decodeBody[SearchResponse](t, ok).Hits; len(hits) != 1 {
		t.Fatalf("k = maxK hits = %+v, want the one document", hits)
	}
}

// TestAdmissionControlShedsWith429: saturate the in-flight pool and
// assert the contract — every extra request is shed instantly with 429 +
// Retry-After (never dropped without a response), admitted requests
// complete normally, and the in-flight gauge returns to zero after the
// pool drains.
func TestAdmissionControlShedsWith429(t *testing.T) {
	p := newTestPeer(t, 0)
	if _, err := p.Publish(`<doc>hello admission</doc>`); err != nil {
		t.Fatal(err)
	}

	const slots = 4
	s := New(p, Config{MaxInFlight: slots})
	// Park every admitted request on a gate while holding its slot.
	gate := make(chan struct{})
	entered := make(chan string, slots*2)
	s.testHook = func(route string) {
		entered <- route
		<-gate
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var wg sync.WaitGroup
	admitted := make([]*http.Response, slots)
	for i := 0; i < slots; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			admitted[i] = postJSON(t, ts.URL+"/v1/search", SearchRequest{Query: "hello"})
		}(i)
	}
	for i := 0; i < slots; i++ {
		select {
		case <-entered:
		case <-time.After(5 * time.Second):
			t.Fatal("admitted requests never reached the handler")
		}
	}

	// Pool full: the next wave must shed — instantly, all with a
	// response, all 429 + Retry-After.
	const extra = 8
	for i := 0; i < extra; i++ {
		resp := postJSON(t, ts.URL+"/v1/search", SearchRequest{Query: "hello"})
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("overload status = %d, want 429", resp.StatusCode)
		}
		ra := resp.Header.Get("Retry-After")
		if secs, err := strconv.Atoi(ra); err != nil || secs < 1 {
			t.Fatalf("Retry-After = %q, want a positive integer", ra)
		}
		resp.Body.Close()
	}
	if got := s.reg.Counter("serve_shed_total").Value(); got != extra {
		t.Fatalf("serve_shed_total = %d, want %d", got, extra)
	}
	if got := s.reg.Gauge("serve_inflight_requests").Value(); got != slots {
		t.Fatalf("in-flight gauge = %d while saturated, want %d", got, slots)
	}

	// Release the gate: admitted requests finish successfully and the
	// gauge returns to zero.
	close(gate)
	wg.Wait()
	for i, resp := range admitted {
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("admitted request %d status = %d", i, resp.StatusCode)
		}
		resp.Body.Close()
	}
	waitForCond(t, 2*time.Second, "in-flight gauge to drain", func() bool {
		return s.reg.Gauge("serve_inflight_requests").Value() == 0 && s.InFlight() == 0
	})
}

// TestPprofBypassesAdmission: the profile index and a heap profile
// answer 200 even while every slot is held.
func TestPprofBypassesAdmission(t *testing.T) {
	p := newTestPeer(t, 0)
	s := New(p, Config{MaxInFlight: 1})
	gate := make(chan struct{})
	entered := make(chan string, 1)
	s.testHook = func(route string) {
		entered <- route
		<-gate
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, err := http.Get(ts.URL + "/v1/peers")
		if err == nil {
			resp.Body.Close()
		}
	}()
	<-entered

	for _, path := range []string{"/debug/pprof/", "/debug/pprof/heap"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || len(body) == 0 {
			t.Fatalf("%s while saturated: status %d, %d bytes, %v", path, resp.StatusCode, len(body), err)
		}
	}
	close(gate)
	<-done
}

// TestHealthzBypassesAdmission: /healthz answers 200 even while every
// slot is held.
func TestHealthzBypassesAdmission(t *testing.T) {
	p := newTestPeer(t, 0)
	s := New(p, Config{MaxInFlight: 1})
	gate := make(chan struct{})
	entered := make(chan string, 1)
	s.testHook = func(route string) {
		entered <- route
		<-gate
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, err := http.Get(ts.URL + "/v1/peers")
		if err == nil {
			resp.Body.Close()
		}
	}()
	<-entered

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status = %d while saturated, want 200", resp.StatusCode)
	}
	h := decodeBody[HealthResponse](t, resp)
	if h.Status != "ok" || h.InFlight != 1 {
		t.Fatalf("healthz = %+v", h)
	}
	close(gate)
	<-done
}

// TestGracefulDrain: Shutdown lets in-flight requests finish, rejects
// new ones with 503, flips /healthz to draining, and leaves the
// in-flight gauge at zero.
func TestGracefulDrain(t *testing.T) {
	p := newTestPeer(t, 0)
	if _, err := p.Publish(`<doc>drain me gently</doc>`); err != nil {
		t.Fatal(err)
	}
	s := New(p, Config{MaxInFlight: 4})
	gate := make(chan struct{})
	entered := make(chan string, 1)
	s.testHook = func(route string) {
		entered <- route
		<-gate
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// One slow in-flight request...
	inflightResp := make(chan *http.Response, 1)
	go func() {
		inflightResp <- postJSON(t, ts.URL+"/v1/search", SearchRequest{Query: "drain"})
	}()
	<-entered

	// ...then the drain begins concurrently.
	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shutdownDone <- s.Shutdown(ctx)
	}()
	waitForCond(t, 2*time.Second, "draining flag", s.Draining)

	// New work is refused while the old request is still running (the
	// draining check fires before the slot pool and the test hook, so
	// this request cannot block).
	refused := postJSON(t, ts.URL+"/v1/search", SearchRequest{Query: "drain"})
	if refused.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("during drain status = %d, want 503", refused.StatusCode)
	}
	refused.Body.Close()
	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if hr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz during drain = %d, want 503", hr.StatusCode)
	}
	if h := decodeBody[HealthResponse](t, hr); h.Status != "draining" {
		t.Fatalf("healthz status = %q, want draining", h.Status)
	}

	// The in-flight request completes successfully despite the drain.
	close(gate)
	resp := <-inflightResp
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("in-flight request during drain status = %d", resp.StatusCode)
	}
	res := decodeBody[SearchResponse](t, resp)
	if len(res.Hits) != 1 {
		t.Fatalf("in-flight search hits = %+v", res.Hits)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if got := s.reg.Gauge("serve_inflight_requests").Value(); got != 0 {
		t.Fatalf("in-flight gauge after drain = %d, want 0", got)
	}
}

// TestRouteMetrics: per-route counters and latency histograms fill in.
func TestRouteMetrics(t *testing.T) {
	p := newTestPeer(t, 0)
	s, ts := newTestServer(t, p, Config{})

	for i := 0; i < 3; i++ {
		resp := postJSON(t, ts.URL+"/v1/publish", PublishRequest{XML: fmt.Sprintf("<doc>metric doc %d</doc>", i)})
		resp.Body.Close()
	}
	resp := postJSON(t, ts.URL+"/v1/search", SearchRequest{Query: "metric"})
	resp.Body.Close()

	if got := s.reg.Counter("serve_publish_requests_total").Value(); got != 3 {
		t.Fatalf("publish route counter = %d, want 3", got)
	}
	if got := s.reg.Counter("serve_search_requests_total").Value(); got != 1 {
		t.Fatalf("search route counter = %d, want 1", got)
	}
	if got := s.reg.Histogram("serve_search_latency_us", serveLatencyBounds).Count(); got != 1 {
		t.Fatalf("search latency histogram count = %d, want 1", got)
	}
	if got := s.reg.Counter("serve_requests_total").Value(); got != 4 {
		t.Fatalf("serve_requests_total = %d, want 4", got)
	}
}

// TestServeShutdownWaitsForInFlight exercises the real listener path:
// Serve on a TCP listener, then Shutdown must block until the in-flight
// request finishes, and Serve must return http.ErrServerClosed.
func TestServeShutdownWaitsForInFlight(t *testing.T) {
	p := newTestPeer(t, 0)
	if _, err := p.Publish(`<doc>real listener drain</doc>`); err != nil {
		t.Fatal(err)
	}
	s := New(p, Config{MaxInFlight: 4})
	gate := make(chan struct{})
	entered := make(chan string, 1)
	s.testHook = func(route string) {
		entered <- route
		<-gate
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve(ln) }()
	base := "http://" + ln.Addr().String()

	inflightResp := make(chan *http.Response, 1)
	go func() {
		inflightResp <- postJSON(t, base+"/v1/search", SearchRequest{Query: "listener"})
	}()
	<-entered

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shutdownDone <- s.Shutdown(ctx)
	}()
	select {
	case err := <-shutdownDone:
		t.Fatalf("Shutdown returned %v before the in-flight request finished", err)
	case <-time.After(50 * time.Millisecond):
	}

	close(gate)
	resp := <-inflightResp
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("in-flight request status = %d", resp.StatusCode)
	}
	resp.Body.Close()
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-serveErr; err != http.ErrServerClosed {
		t.Fatalf("Serve returned %v, want http.ErrServerClosed", err)
	}
}

// waitForCond polls until cond or the deadline.
func waitForCond(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}
