package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"planetp"
	"planetp/internal/bloom"
	"planetp/internal/broker"
	"planetp/internal/directory"
	"planetp/internal/gossip"
	"planetp/internal/metrics"
	"planetp/internal/replica"
	"planetp/internal/search"
	"planetp/internal/store"
	"planetp/internal/transport"
)

// liveNodes is the size of every gossiping cluster; liveCapacity its id
// space (as check.sh boots planetp-node).
const (
	liveNodes    = 4
	liveCapacity = 16
)

// cluster is one workload's system under test: nodes wired as
// cmd/planetp-node wires them, each serving HTTP and gossip on its own
// loopback listener, plus (rank_wide only) the stub transports that
// answer for the virtual peers.
type cluster struct {
	peers   []*planetp.Peer
	servers []*planetp.Server
	traced  []*http.Server // the traced run serves Handler() behind the middleware
	urls    []string
	stubs   []*transport.Transport
	// regs holds every endpoint's registry (nodes, then stubs): wire
	// bytes are summed over all of them.
	regs   []*metrics.Registry
	dirs   []string
	corpus *corpus
	// nodeDocs holds, per node, the corpus documents it was sent.
	nodeDocs [][]genDoc
	// dirBytesPerPeer is rank_wide's heap growth per installed virtual
	// peer (traced run only).
	dirBytesPerPeer float64
	// httpBytes counts the bytes on the harness's HTTP connections.
	httpBytes atomic.Int64
}

// nodeConfig is the planetp-node wiring of node i.
func nodeConfig(i, capacity int, dir string, sc scale, tr *tracer) planetp.Config {
	cfg := planetp.Config{
		ID:            planetp.PeerID(i),
		ListenAddr:    "127.0.0.1:0",
		Capacity:      capacity,
		Gossip:        planetp.GossipConfig{BaseInterval: sc.gossip, MaxInterval: 2 * sc.gossip},
		Seed:          int64(i + 1),
		BrokerTopFrac: 0.10,
		BrokerDiscard: 10 * time.Minute,
		DataDir:       dir,
	}
	if tr != nil {
		cfg.Gossip.OnNews = func(rec directory.Record) { tr.news(i, rec) }
		cfg.Store.FS = tracedFS{FS: store.OSFS{}, tr: tr, node: i}
	}
	return cfg
}

// addNode constructs node i and its HTTP listener and appends both to c.
func (c *cluster) addNode(i, capacity int, root string, sc scale, tr *tracer) (*planetp.Peer, error) {
	dir := filepath.Join(root, fmt.Sprintf("n%d", i))
	peer, err := planetp.NewPeer(nodeConfig(i, capacity, dir, sc, tr))
	if err != nil {
		return nil, fmt.Errorf("node %d: %w", i, err)
	}
	c.peers = append(c.peers, peer)
	c.dirs = append(c.dirs, dir)
	c.regs = append(c.regs, peer.Metrics())
	return peer, nil
}

// serve starts node i's HTTP tier on an ephemeral loopback port: the
// node's own Server.Serve, or — traced — the same Handler behind the
// bench's middleware.
func (c *cluster) serve(i int, tr *tracer) error {
	srv := planetp.NewServer(c.peers[i], planetp.ServeConfig{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	c.servers = append(c.servers, srv)
	c.urls = append(c.urls, "http://"+ln.Addr().String())
	if tr == nil {
		go srv.Serve(ln) //nolint:errcheck // always http.ErrServerClosed after Shutdown
		return nil
	}
	hs := &http.Server{Handler: tr.middleware(i, srv.Handler()), ReadHeaderTimeout: 10 * time.Second}
	c.traced = append(c.traced, hs)
	go hs.Serve(ln) //nolint:errcheck
	return nil
}

// buildLive boots the 4-node gossiping cluster, preloads the corpus in
// batches round-robin over HTTP, and waits until every directory reports
// all nodes on-line with one digest. On error the partial cluster is
// stopped.
func buildLive(root string, seed int64, sc scale, tr *tracer) (c *cluster, err error) {
	c = &cluster{corpus: newCorpus(), nodeDocs: make([][]genDoc, liveNodes)}
	defer func() {
		if err != nil {
			c.stop()
			c = nil
		}
	}()
	for i := 0; i < liveNodes; i++ {
		peer, err := c.addNode(i, liveCapacity, root, sc, tr)
		if err != nil {
			return c, err
		}
		if i > 0 {
			if err := peer.JoinSeeds(planetp.BootstrapConfig{Seeds: []string{c.peers[0].Addr()}}); err != nil {
				return c, err
			}
		}
		peer.Start()
		if err := c.serve(i, tr); err != nil {
			return c, err
		}
	}
	docs := preloadDocs(seed, sc)
	c.corpus.add(docs)
	if err := c.preload(docs, sc.batch); err != nil {
		return c, err
	}
	return c, c.awaitConverged(30 * time.Second)
}

// preloadWorkers is how many connections publish the corpus: two per
// node, so each node's WAL group commit always has a batch waiting.
const preloadWorkers = 2 * liveNodes

// preload publishes docs in batches, batch b to node b mod N, over
// preloadWorkers connections, checking every acknowledgement.
func (c *cluster) preload(docs []genDoc, batchSize int) error {
	batches := (len(docs) + batchSize - 1) / batchSize
	errs := make(chan error, preloadWorkers)
	for w := 0; w < preloadWorkers; w++ {
		go func(w int) {
			cl := newHTTPClient(&c.httpBytes)
			defer cl.CloseIdleConnections()
			var buf bytes.Buffer
			for b := w; b < batches; b += preloadWorkers {
				batch := docs[b*batchSize : min((b+1)*batchSize, len(docs))]
				node := b % len(c.urls)
				status, err := post(cl, c.urls[node]+"/v1/publish-batch", publishOp(batch).body, "", &buf)
				if err == nil && status != http.StatusOK {
					err = fmt.Errorf("status %d", status)
				}
				if err == nil {
					err = checkPublishReply(buf.Bytes(), batch)
				}
				if err != nil {
					errs <- fmt.Errorf("preload batch %d on node %d: %w", b, node, err)
					return
				}
			}
			errs <- nil
		}(w)
	}
	var first error
	for w := 0; w < preloadWorkers; w++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	for b := 0; b < batches; b++ {
		node := b % len(c.urls)
		c.nodeDocs[node] = append(c.nodeDocs[node], docs[b*batchSize:min((b+1)*batchSize, len(docs))]...)
	}
	return first
}

// awaitConverged polls until every node sees every node on-line and all
// directory digests agree.
func (c *cluster) awaitConverged(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		d0 := c.peers[0].Directory().Digest()
		ok := true
		for _, p := range c.peers {
			dir := p.Directory()
			if dir.NumOnline() != len(c.peers) || dir.Digest() != d0 {
				ok = false
				break
			}
		}
		if ok {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("cluster did not converge within %v", limit)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stubKeyPrefix starts every canned document key a stub answers with.
const stubKeyPrefix = "stub-"

// stubHandler answers every query with one canned document containing
// the first query term; everything else is a no-op. It stands in for the
// 1023 virtual peers of rank_wide.
type stubHandler struct{ key string }

func (h stubHandler) HandleQuery(terms []string, all bool) []search.DocResult {
	if len(terms) == 0 {
		return nil
	}
	return []search.DocResult{{Key: h.key, TermFreqs: map[string]int{terms[0]: 1}, DocLen: 10}}
}
func (stubHandler) HandleGossip(directory.PeerID, *gossip.Message)            {}
func (stubHandler) HandleBrokerPut(string, broker.Snippet, time.Duration)     {}
func (stubHandler) HandleBrokerGet(string) []broker.Snippet                   { return nil }
func (stubHandler) HandleBrokerWatch([]string, directory.PeerID)              {}
func (stubHandler) HandleNotify(broker.Snippet)                               {}
func (stubHandler) HandleGetDoc(string) (string, bool)                        { return "", false }
func (stubHandler) HandleProxySearch([]string, int) []search.ScoredDoc        { return nil }
func (stubHandler) HandlePeerExchange(int) []directory.Record                 { return nil }
func (stubHandler) HandleReplicaPut(string, string, directory.PeerID, uint32) {}
func (stubHandler) HandleReplicaPurge(string, directory.PeerID, uint32)       {}
func (stubHandler) HandleHotDocs(int) []replica.HotDoc                        { return nil }
func (stubHandler) SelfRecord() directory.Record                              { return directory.Record{} }
func noResolve(directory.PeerID) (string, bool)                               { return "", false }
func newStub(i int, reg *metrics.Registry) (*transport.Transport, error) {
	return transport.New(directory.PeerID(0), "127.0.0.1:0",
		stubHandler{key: fmt.Sprintf("%s%d", stubKeyPrefix, i)}, noResolve, int64(100+i), reg)
}

// rankWideStubs is how many stub listeners share the virtual peers.
const rankWideStubs = 2

// buildRankWide builds one un-started node (no gossip loop; its
// transport still accepts) whose directory holds sc.virtualPeers virtual
// peers, each with a real compressed Bloom filter and the address of a
// stub listener.
func buildRankWide(root string, seed int64, sc scale, tr *tracer) (c *cluster, err error) {
	c = &cluster{corpus: newCorpus(), nodeDocs: make([][]genDoc, 1)}
	defer func() {
		if err != nil {
			c.stop()
			c = nil
		}
	}()
	peer, err := c.addNode(0, sc.virtualPeers+1, root, sc, tr)
	if err != nil {
		return c, err
	}
	if err := c.serve(0, tr); err != nil {
		return c, err
	}
	for i := 0; i < rankWideStubs; i++ {
		reg := metrics.NewRegistry()
		stub, err := newStub(i, reg)
		if err != nil {
			return c, err
		}
		c.stubs = append(c.stubs, stub)
		c.regs = append(c.regs, reg)
	}
	var before runtime.MemStats
	if tr != nil {
		before = heapAfterGC()
	}
	rng := rand.New(rand.NewSource(subSeed(seed, "filters", 0)))
	dir := peer.Directory()
	for v := 1; v <= sc.virtualPeers; v++ {
		f := bloom.Default()
		for k := 0; k < sc.filterWords; k++ {
			f.Insert(word(int32(rng.Intn(sc.rankVocab))))
		}
		payload := f.Compress()
		if !dir.Upsert(directory.Record{
			ID: directory.PeerID(v), Ver: directory.Version{Epoch: 1, Seq: 1},
			Addr:        c.stubs[v%rankWideStubs].Addr(),
			PayloadSize: int32(len(payload)), Payload: payload,
		}) {
			return c, fmt.Errorf("virtual peer %d rejected by the directory", v)
		}
	}
	if tr != nil {
		after := heapAfterGC()
		c.dirBytesPerPeer = (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / float64(sc.virtualPeers)
	}
	if n := dir.NumOnline(); n != sc.virtualPeers+1 {
		return c, fmt.Errorf("directory reports %d on-line, want %d", n, sc.virtualPeers+1)
	}
	return c, nil
}

// heapAfterGC reads memory statistics after two collections (the second
// frees what the first's finalizers released).
func heapAfterGC() runtime.MemStats {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

// stop drains the HTTP tier, stops peers and stubs, and removes the data
// directories. It is safe on a partially built cluster and reports the
// first error.
func (c *cluster) stop() error {
	var first error
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for _, s := range c.servers {
		if err := s.Shutdown(ctx); err != nil && first == nil {
			first = err
		}
	}
	for _, hs := range c.traced {
		if err := hs.Shutdown(ctx); err != nil && first == nil {
			first = err
		}
	}
	for _, p := range c.peers {
		p.Stop()
	}
	for _, s := range c.stubs {
		s.Close()
	}
	for _, d := range c.dirs {
		if err := os.RemoveAll(d); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// newHTTPClient is one closed-loop client's HTTP side: sequential use
// keeps exactly one keep-alive connection per node. Every byte its
// connections carry, either way, is added to wire.
func newHTTPClient(wire *atomic.Int64) *http.Client {
	var d net.Dialer
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			conn, err := d.DialContext(ctx, network, addr)
			if err != nil {
				return nil, err
			}
			return countedConn{Conn: conn, n: wire}, nil
		},
	}}
}

// countedConn adds the bytes read and written to n.
type countedConn struct {
	net.Conn
	n *atomic.Int64
}

func (c countedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

func (c countedConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n.Add(int64(n))
	return n, err
}

// opHeader carries the client span id to the traced middleware.
const opHeader = "X-Bench-Op"

// post sends one JSON request and reads the whole reply into buf.
func post(cl *http.Client, url string, body []byte, opID string, buf *bytes.Buffer) (int, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if opID != "" {
		req.Header.Set(opHeader, opID)
	}
	resp, err := cl.Do(req)
	if err != nil {
		return 0, err
	}
	buf.Reset()
	_, err = io.Copy(buf, resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	return resp.StatusCode, err
}
