package main

import (
	"math"
	"sort"
	"sync"
	"time"

	"planetp/internal/bloom"
	"planetp/internal/broker"
	"planetp/internal/chash"
	"planetp/internal/directory"
	"planetp/internal/doc"
	"planetp/internal/filtercache"
	"planetp/internal/index"
	"planetp/internal/metrics"
	"planetp/internal/search"
	"planetp/internal/text"
	"planetp/internal/transport"
)

// Stage replay (metric source C). Right after a traced op returns, the
// client calls the layers' public functions on bench-owned instances
// with that op's inputs, in the order the node calls them, and records
// one span per call. The node's own instances are never touched; the
// replay reads the node's Directory() and queries live peers through a
// bench-owned client transport.

// nodeReplay is the bench-owned copy of the per-node layer state.
type nodeReplay struct {
	self  directory.PeerID
	dir   *directory.Directory
	cache *filtercache.Cache

	// mu guards the write-side copies (the publish replay mutates them;
	// the search replay reads the index).
	mu      sync.Mutex
	index   *index.Index
	keys    map[index.DocID]string
	summary *bloom.Summary
}

type dirSource struct{ dir *directory.Directory }

func (s dirSource) Payload(id directory.PeerID) ([]byte, directory.Version, bool) {
	return s.dir.Payload(id)
}

// replayState is shared by every client of a traced run.
type replayState struct {
	tr    *tracer
	nodes []*nodeReplay
	tp    *transport.Transport // bench-owned client transport
	tpReg *metrics.Registry
	// sink is a bench-owned transport that sends broker puts to itself:
	// the replay pays for a real framed RPC over loopback into a
	// bench-owned broker without adding snippets to a live node's.
	sink   *transport.Transport
	broker *broker.Broker
}

// sinkHandler stores broker puts in the bench-owned broker.
type sinkHandler struct {
	stubHandler
	b *broker.Broker
}

func (h sinkHandler) HandleBrokerPut(key string, sn broker.Snippet, discard time.Duration) {
	h.b.Put(key, sn, discard)
}

func (rs *replayState) close() {
	rs.tp.Close()
	rs.sink.Close()
}

// newReplayState builds the bench-owned layer instances: per node a
// filter cache over its directory, and an index and Bloom summary loaded
// with the documents that node was preloaded with.
func newReplayState(c *cluster, tr *tracer) (*replayState, error) {
	rs := &replayState{tr: tr, tpReg: metrics.NewRegistry()}
	dir0 := c.peers[0].Directory()
	tp, err := transport.New(directory.PeerID(0), "127.0.0.1:0", stubHandler{}, func(id directory.PeerID) (string, bool) {
		rec, ok := dir0.Get(id)
		return rec.Addr, ok && rec.Addr != ""
	}, 1, rs.tpReg)
	if err != nil {
		return nil, err
	}
	rs.tp = tp
	start := time.Now()
	rs.broker = broker.NewBroker(func() time.Duration { return time.Since(start) })
	var sinkAddr string
	rs.sink, err = transport.New(directory.PeerID(0), "127.0.0.1:0", sinkHandler{b: rs.broker},
		func(directory.PeerID) (string, bool) { return sinkAddr, true }, 2, nil)
	if err != nil {
		tp.Close()
		return nil, err
	}
	sinkAddr = rs.sink.Addr()
	var an text.Analyzer
	for i, p := range c.peers {
		nr := &nodeReplay{
			self:    p.ID(),
			dir:     p.Directory(),
			cache:   filtercache.New(dirSource{p.Directory()}, filtercache.Config{}),
			index:   index.New(),
			keys:    make(map[index.DocID]string),
			summary: bloom.NewSummary(bloom.Default()),
		}
		if i < len(c.nodeDocs) {
			nr.ingest(&an, c.nodeDocs[i])
		}
		rs.nodes = append(rs.nodes, nr)
	}
	return rs, nil
}

// ingested is one replayed batch: the parsed documents, their term
// frequencies, and what each stage took.
type ingested struct {
	docs                           []*doc.Document
	freqs                          []map[string]int
	parse, analyze, add, summarize time.Duration
}

// ingest runs the node's publish pipeline on the bench-owned copies.
func (nr *nodeReplay) ingest(an *text.Analyzer, docs []genDoc) ingested {
	t0 := time.Now()
	parsed := make([]*doc.Document, len(docs))
	for i, d := range docs {
		parsed[i] = doc.Parse(d.xml)
	}
	t1 := time.Now()
	freqs := make([]map[string]int, len(docs))
	for i, d := range parsed {
		freqs[i] = an.TermFreqs(d.Text, nil)
	}
	t2 := time.Now()
	nr.mu.Lock()
	ids := nr.index.AddTermFreqsBatch(freqs)
	t3 := time.Now()
	for i, f := range freqs {
		nr.keys[ids[i]] = parsed[i].ID
		for t := range f {
			nr.summary.Insert(t)
		}
	}
	_, _, _ = nr.summary.Flush()
	t4 := time.Now()
	nr.mu.Unlock()
	return ingested{docs: parsed, freqs: freqs, parse: t1.Sub(t0), analyze: t2.Sub(t1), add: t3.Sub(t2), summarize: t4.Sub(t3)}
}

// brokerTopFrac and brokerDiscard are the node's dual-publication
// settings (see nodeConfig).
const (
	brokerTopFrac = 0.10
	brokerDiscard = 10 * time.Minute
)

// topTerms is the harness's copy of the node's rule for which terms of a
// document go to the brokerage: the ceil(frac*|terms|) most frequent, at
// least one, ties broken lexicographically.
func topTerms(freqs map[string]int, frac float64) []string {
	terms := make([]string, 0, len(freqs))
	for t := range freqs {
		terms = append(terms, t)
	}
	sort.Slice(terms, func(i, j int) bool {
		if freqs[terms[i]] != freqs[terms[j]] {
			return freqs[terms[i]] > freqs[terms[j]]
		}
		return terms[i] < terms[j]
	})
	n := int(math.Ceil(frac*float64(len(terms)) - 1e-9))
	return terms[:min(max(n, 1), len(terms))]
}

// brokerPuts replays the dual publication of a batch: each document's
// top terms go to the broker the node's ring names — a local Put when
// that is the node itself, otherwise one RPC (to the bench-owned sink).
func (rs *replayState) brokerPuts(nr *nodeReplay, in ingested) error {
	ring := chash.NewRing[directory.PeerID]()
	for _, id := range nr.dir.OnlineIDs() {
		bid := chash.IDForPeer(int32(id))
		for !ring.Join(bid, id) {
			bid = (bid + 1) % chash.MaxID
		}
	}
	for i, d := range in.docs {
		sn := broker.Snippet{ID: d.ID, Owner: int32(nr.self), XML: d.Raw, Keys: topTerms(in.freqs[i], brokerTopFrac)}
		for _, key := range sn.Keys {
			_, owner, ok := ring.Successor(chash.Hash(key))
			switch {
			case !ok:
			case owner == nr.self:
				rs.broker.Put(key, sn, brokerDiscard)
			default:
				if err := rs.sink.BrokerPut(owner, key, sn, brokerDiscard); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// localQuery mirrors the node's answer to a query for its own documents:
// index lookup plus per-term frequencies.
func (nr *nodeReplay) localQuery(terms []string) []search.DocResult {
	nr.mu.Lock()
	defer nr.mu.Unlock()
	ids := nr.index.SearchAny(terms)
	out := make([]search.DocResult, 0, len(ids))
	for _, id := range ids {
		freqs := make(map[string]int, len(terms))
		for _, t := range terms {
			if f := nr.index.Freq(id, t); f > 0 {
				freqs[t] = f
			}
		}
		out = append(out, search.DocResult{Peer: nr.self, Key: nr.keys[id], TermFreqs: freqs, DocLen: nr.index.DocLen(id)})
	}
	return out
}

// tracedView is the decorated FilterView: it sums the time spent inside
// filter probes. Ranked runs sequentially here, so plain fields suffice.
type tracedView struct {
	nr      *nodeReplay
	probes  int64
	probeNs int64
}

func (v *tracedView) Peers() []directory.PeerID { return v.nr.dir.OnlineIDs() }

func (v *tracedView) Contains(id directory.PeerID, term string) bool {
	return v.ContainsDigest(id, bloom.MakeDigest(term))
}

func (v *tracedView) ContainsDigest(id directory.PeerID, d bloom.Digest) bool {
	t := time.Now()
	ok := v.nr.cache.ContainsDigest(id, d)
	v.probeNs += int64(time.Since(t))
	v.probes++
	return ok
}

// tracedFetcher is the decorated Fetcher: the node's own documents come
// from the bench-owned index, every other peer from a real RPC through
// the bench-owned transport.
type tracedFetcher struct {
	rs     *replayState
	nr     *nodeReplay
	parent int64
	op     int64
	node   int
}

func (f *tracedFetcher) QueryPeer(id directory.PeerID, terms []string) ([]search.DocResult, error) {
	tr := f.rs.tr
	start := tr.now()
	var docs []search.DocResult
	var err error
	name := "transport.query"
	if id == f.nr.self {
		name = "index.lookup"
		docs = f.nr.localQuery(terms)
	} else {
		docs, err = f.rs.tp.Query(id, terms, false)
	}
	tr.add(span{Name: name, Start: start, End: tr.now(), Parent: f.parent, Op: f.op, Node: f.node})
	return docs, err
}

func (f *tracedFetcher) QueryPeerAll(id directory.PeerID, terms []string) ([]search.DocResult, error) {
	return f.QueryPeer(id, terms)
}

// timed runs fn as a child span of parent.
func (rs *replayState) timed(name string, parent, op int64, node int, fn func()) {
	start := rs.tr.now()
	fn()
	rs.tr.add(span{Name: name, Start: start, End: rs.tr.now(), Parent: parent, Op: op, Node: node})
}

// search replays one search op against node: ParseQuery -> MakeDigests
// -> Ranked over the decorated view and fetcher.
func (rs *replayState) search(op int64, node int, query string) {
	tr := rs.tr
	nr := rs.nodes[node]
	root := tr.newID()
	start := tr.now()
	var terms []string
	rs.timed("text.parse_query", root, op, node, func() { terms = text.ParseQuery(query) })
	rs.timed("bloom.make_digests", root, op, node, func() { bloom.MakeDigests(terms) })
	ranked := tr.newID()
	view := &tracedView{nr: nr}
	fetch := &tracedFetcher{rs: rs, nr: nr, parent: ranked, op: op, node: node}
	rstart := tr.now()
	search.Ranked(view, fetch, terms, search.Options{K: 10})
	rend := tr.now()
	// The probes are too many and too short to record one by one: they
	// become one aggregate child whose length is their summed time.
	tr.add(span{Name: "filtercache.probe", Start: rstart, End: rstart + view.probeNs, Parent: ranked, Op: op, Node: node, Agg: view.probes})
	tr.add(span{Name: "search.ranked", ID: ranked, Start: rstart, End: rend, Parent: root, Op: op, Node: node})
	tr.add(span{Name: "replay.search", ID: root, Start: start, End: tr.now(), Parent: op, Op: op, Node: node})
}

// publish replays one publish-batch op: Parse -> TermFreqs ->
// AddTermFreqsBatch -> Summary.Insert/Flush -> broker puts. The node
// analyses a batch on GOMAXPROCS workers; the replay is sequential.
func (rs *replayState) publish(an *text.Analyzer, op int64, node int, docs []genDoc) error {
	tr := rs.tr
	nr := rs.nodes[node]
	root := tr.newID()
	start := tr.now()
	in := nr.ingest(an, docs)
	at := start
	for _, st := range []struct {
		name string
		d    time.Duration
	}{{"doc.parse", in.parse}, {"text.term_freqs", in.analyze}, {"index.add_batch", in.add}, {"bloom.summary_flush", in.summarize}} {
		tr.add(span{Name: st.name, Start: at, End: at + int64(st.d), Parent: root, Op: op, Node: node})
		at += int64(st.d)
	}
	var err error
	rs.timed("broker.put", root, op, node, func() { err = rs.brokerPuts(nr, in) })
	tr.add(span{Name: "replay.publish", ID: root, Start: start, End: tr.now(), Parent: op, Op: op, Node: node})
	return err
}
