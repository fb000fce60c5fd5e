// Package core implements the live PlanetP peer: the public object that
// ties together the local data store and inverted index, the Bloom-filter
// summary, gossip-based directory replication, the information brokerage,
// and content search and retrieval (Sections 1-5 of the paper).
package core

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"planetp/internal/bloom"
	"planetp/internal/broker"
	"planetp/internal/directory"
	"planetp/internal/doc"
	"planetp/internal/filtercache"
	"planetp/internal/gossip"
	"planetp/internal/index"
	"planetp/internal/metrics"
	"planetp/internal/replica"
	"planetp/internal/search"
	"planetp/internal/store"
	"planetp/internal/text"
	"planetp/internal/transport"
)

// Config describes a live peer.
type Config struct {
	// ID is this peer's community id; ids must be unique within the
	// community and below Capacity.
	ID directory.PeerID
	// Name is a human-readable label (also salts the broker ring id).
	Name string
	// ListenAddr is the TCP listen address ("" = ephemeral loopback).
	ListenAddr string
	// Capacity is the community id-space size.
	Capacity int
	// Gossip tunes the protocol; zero fields take paper defaults. Tests
	// shrink the intervals to milliseconds.
	Gossip gossip.Config
	// Class is the peer's connectivity class (for bandwidth-aware
	// communities).
	Class directory.Class
	// Resolver fetches linked external files during indexing (nil =
	// index snippet text only).
	Resolver doc.Resolver
	// Seed makes the peer's randomized choices reproducible.
	Seed int64
	// BrokerTopFrac publishes this fraction of a document's most
	// frequent terms to the brokerage on Publish (PFS uses 0.10); 0
	// disables dual publication.
	BrokerTopFrac float64
	// BrokerDiscard is the snippet discard time for dual publication
	// (PFS uses 10 minutes).
	BrokerDiscard time.Duration
	// StructuredIndex additionally indexes every term scoped by its XML
	// element ("title:gossip"), enabling tag-restricted queries — the
	// extension the paper plans in footnote 2. Plain queries behave
	// identically; the cost is a larger term set per document.
	StructuredIndex bool
	// Epoch is this peer's incarnation number (default 1). A peer that
	// restarts without its previous in-memory state MUST supply a
	// larger epoch than any it gossiped before — a persisted boot
	// counter or a timestamp — or the community will reject its
	// announcements as stale gossip. With DataDir set, the epoch is
	// floored by what the directory recorded (and bumped automatically).
	Epoch uint32
	// DataDir, when non-empty, makes the peer crash-safe durable: it
	// opens one store there, and every Publish/Remove and every replica
	// adoption, eviction and purge is appended to that store's
	// checksummed write-ahead log, periodically folded into atomic
	// snapshots, and replayed on the next start. A restarted peer
	// recovers its documents and its hoard and automatically announces an
	// epoch superseding everything its previous incarnation gossiped — no
	// operator-managed epoch counters needed. See Peer.Recovery for the
	// startup summary.
	DataDir string
	// Store fine-tunes that one durable store (filesystem seam for fault
	// injection, compaction threshold, size bounds). Dir and Metrics
	// are taken from DataDir and Metrics; only meaningful with DataDir.
	Store store.Options
	// Metrics receives the peer's counters across every layer (gossip,
	// transport, broker, search). Nil gets a fresh registry, so
	// Peer.Metrics() is always usable.
	Metrics *metrics.Registry
	// FilterCacheBudget bounds the resident bytes of the query engine's
	// decoded peer Bloom filters, both tiers together: the position-major
	// base index over the admitted peers' filters, and the delta of
	// recently probed filters the base does not cover (each the smaller of
	// a set-bit-position array and the plain bitset, least recently probed
	// evicted first). 0 takes the 64 MiB default; negative keeps no base
	// and only a minimal single-probe delta (for memory-starved
	// deployments). See metrics core_filter_cache_* and filtercache_*.
	FilterCacheBudget int64
	// Replicas is the replication factor k for hot documents: the
	// community-wide copy target, origin included (the hottest document
	// gets k-1 replicas placed on its ring successors). 0 or 1 disables
	// replication — hits die with their owner, the paper's baseline.
	Replicas int
	// HoardBudget bounds the excess-capacity bytes this peer donates to
	// replica bodies (default 64 MiB). Adoption past the budget evicts
	// the least popular replicas first.
	HoardBudget int64
}

// Peer is a live PlanetP community member.
type Peer struct {
	cfg  Config
	id   directory.PeerID
	dir  *directory.Directory
	node *gossip.Node
	tp   *transport.Transport

	mu          sync.Mutex
	store       *doc.Store
	index       *index.Index
	docOf       map[string]index.DocID // doc key -> local index id (the index holds the inverse)
	summary     *bloom.Summary         // the gossiped Bloom filter and its pending diff
	broker      *broker.Broker
	watchers    []remoteWatch
	registry    *search.Registry
	view        *dirView
	userRng     *rand.Rand
	reg         *metrics.Registry
	topk        *topkMemo // ranked answers, resumed by a repeated query
	stopCh      chan struct{}
	loopDone    chan struct{}
	started     bool
	closed      bool
	brokerSwept time.Duration // transport clock at sweepBroker's last sweep; only the gossip loop touches it

	// The gossiped filter as a chain (chain.go): announceMu orders each
	// announce's flush, segment and version bump, and a Compact's restart;
	// own is the segment log; held is what each target holds; strays
	// holds the addresses senders gave in their own records that did not
	// apply here, dialled only where the directory has none
	// (resolveIncoming), until the directory admits the sender (onNews).
	announceMu sync.Mutex
	own        ownLog
	held       heldTable
	strays     sync.Map // directory.PeerID -> string
	cm         chainMetrics

	// Durable state (nil/zero unless Config.DataDir is set).
	st       *store.Store
	recovery RecoverySummary
	snapSize atomic.Int64 // the last snapshot payload's size, to pre-size the next

	// Replication state: the replica manager is always constructed (it
	// also carries the popularity signal); hoardDone closes when the
	// hoarding loop exits.
	rep       *replica.Manager
	hoardDone chan struct{}
	hoarding  bool
}

// remoteWatch is a brokerage watch registered by another peer.
type remoteWatch struct {
	keys    []string
	watcher directory.PeerID
}

// NewPeer constructs (but does not start) a peer.
func NewPeer(cfg Config) (*Peer, error) {
	if cfg.Capacity <= 0 {
		return nil, errors.New("core: Capacity must be positive")
	}
	if int(cfg.ID) < 0 || int(cfg.ID) >= cfg.Capacity {
		return nil, fmt.Errorf("core: ID %d outside capacity %d", cfg.ID, cfg.Capacity)
	}
	if cfg.Name == "" {
		cfg.Name = fmt.Sprintf("peer-%d", cfg.ID)
	}
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.NewRegistry()
	}
	p := &Peer{
		cfg:       cfg,
		id:        cfg.ID,
		dir:       directory.New(cfg.ID, cfg.Capacity),
		store:     doc.NewStore(),
		index:     index.New(),
		docOf:     make(map[string]index.DocID),
		summary:   bloom.NewSummary(bloom.Default()),
		reg:       cfg.Metrics,
		topk:      newTopkMemo(cfg.Metrics),
		cm:        newChainMetrics(cfg.Metrics),
		held:      heldTable{evicted: cfg.Metrics.Counter("gossip_held_evictions_total")},
		stopCh:    make(chan struct{}),
		loopDone:  make(chan struct{}),
		hoardDone: make(chan struct{}),
	}
	p.view = &dirView{p: p, cache: filtercache.New(p.dir, filtercache.Config{
		Budget:  cfg.FilterCacheBudget,
		Metrics: cfg.Metrics,
	})}
	// Churned-out and superseded peers must release their cached filter
	// bytes immediately — without this hook they stayed resident until
	// the next probe of the same id (dropped peers: forever). A superseded
	// record leaves the peer's pooled conns alone: every publish supersedes
	// one, and only the socket retires a conn (DESIGN §4k).
	p.dir.SetOnEvict(func(ids []directory.PeerID) {
		for _, id := range ids {
			p.view.cache.Invalidate(id)
		}
	})
	p.registry = search.NewRegistry(p.view, fetcher{p})

	// Deferred: the transport reserves its port now (the self record
	// needs the bound address) but serves no inbound request until the
	// handler's dependencies — above all p.node — are wired. Without
	// this, a neighbor's join RPC racing peer construction dereferences
	// a nil gossip node.
	tp, err := transport.NewDeferred(cfg.ID, cfg.ListenAddr, (*handler)(p), p.resolveAddr, cfg.Seed, cfg.Metrics)
	if err != nil {
		return nil, err
	}
	p.tp = tp
	p.broker = broker.NewBroker(tp.Now)
	p.broker.SetMetrics(cfg.Metrics)

	gcfg := cfg.Gossip
	gcfg.Metrics = cfg.Metrics
	userOnNews := gcfg.OnNews
	gcfg.OnNews = func(rec directory.Record) {
		p.onNews(rec)
		if userOnNews != nil {
			userOnNews(rec)
		}
	}
	epoch := max(1, cfg.Epoch)
	var durableRec store.Recovery
	if cfg.DataDir != "" {
		st, rec, err := openStore(&cfg)
		if err != nil {
			tp.Close()
			return nil, err
		}
		p.st = st
		durableRec = rec
		// The restarted incarnation must supersede everything the dead
		// one could have gossiped: its durable version counters floor
		// the epoch bump.
		epoch = max(epoch, rec.Epoch+1)
	}
	self := directory.Record{
		ID: cfg.ID, Class: cfg.Class, Addr: tp.Addr(),
		Ver: directory.Version{Epoch: epoch},
	}
	p.node = gossip.NewNode(self, p.dir, gcfg, tp)
	p.own.restart(self.Ver, p.summary.Filter().Compress())
	p.node.SetPayloads(p.stampPayloads)
	// Every peer has a replica manager (it also carries the popularity
	// signal), built before recovery applies replica records to it and
	// before the transport serves an inbound ReplicaPut.
	p.rep = replica.NewManager(replica.Config{
		Factor: cfg.Replicas, Budget: cfg.HoardBudget, Now: tp.Now, Metrics: cfg.Metrics,
	})
	if p.st != nil {
		if err := p.recoverFrom(durableRec); err != nil {
			tp.Close()
			p.st.Close()
			return nil, err
		}
		p.st.SetSnapshotSource(p.snapshotSource)
	}
	tp.StartAccepting()
	return p, nil
}

// ID returns the peer's community id.
func (p *Peer) ID() directory.PeerID { return p.id }

// Name returns the peer's label.
func (p *Peer) Name() string { return p.cfg.Name }

// Addr returns the peer's listen address.
func (p *Peer) Addr() string { return p.tp.Addr() }

// Directory exposes the peer's directory replica (read-mostly).
func (p *Peer) Directory() *directory.Directory { return p.dir }

// Node exposes the gossip engine (interval, self record); its counters are
// the gossip_* names in Metrics().
func (p *Peer) Node() *gossip.Node { return p.node }

// Metrics returns the peer's metrics registry (never nil): one snapshot
// covers the gossip, transport, broker, and search layers.
func (p *Peer) Metrics() *metrics.Registry { return p.reg }

// Start launches the gossip loop.
func (p *Peer) Start() {
	p.mu.Lock()
	if p.started || p.closed {
		p.mu.Unlock()
		return
	}
	p.started = true
	hoard := p.rep.Factor() > 1
	p.hoarding = hoard
	p.mu.Unlock()
	go p.gossipLoop()
	if hoard {
		go p.hoardLoop()
	}
}

// Stop shuts the peer down.
func (p *Peer) Stop() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	started := p.started
	hoarding := p.hoarding
	p.mu.Unlock()
	close(p.stopCh)
	if started {
		<-p.loopDone
	}
	if hoarding {
		<-p.hoardDone
	}
	// Durable peers fold their full state into a final snapshot so the
	// next start replays nothing; the synced WAL covers a failure here.
	p.finalSnapshot()
	p.tp.Close()
}

// gossipLoop drives Tick at the node's (adaptive) interval, with a small
// random initial phase.
func (p *Peer) gossipLoop() {
	defer close(p.loopDone)
	interval := p.node.Interval()
	timer := time.NewTimer(time.Duration(p.cfg.Seed%7+1) * interval / 8)
	defer timer.Stop()
	for {
		select {
		case <-p.stopCh:
			return
		case d := <-p.tp.IntervalCh():
			// Interval changed: re-arm if it shrank.
			if d < interval {
				interval = d
				if !timer.Stop() {
					select {
					case <-timer.C:
					default:
					}
				}
				timer.Reset(d)
			}
		case <-timer.C:
			p.node.Tick()
			p.sweepBroker(p.tp.Now())
			interval = p.node.Interval()
			timer.Reset(interval)
		}
	}
}

// brokerSweepEvery paces sweepBroker: snippets outlive their discard time by
// at most this much.
const brokerSweepEvery = time.Minute

// sweepBroker discards the local broker's expired snippets, at most once per
// brokerSweepEvery of transport clock. Get drops what it finds expired under
// the key it reads; a snippet filed under a key nobody asks for is released
// only here.
func (p *Peer) sweepBroker(now time.Duration) {
	if now-p.brokerSwept < brokerSweepEvery {
		return
	}
	p.brokerSwept = now
	p.broker.Sweep()
}

// Join bootstraps into an existing community via any member's address.
func (p *Peer) Join(seedAddr string) error {
	rec, err := p.tp.FetchRecord(seedAddr)
	if err != nil {
		return fmt.Errorf("core: join via %s: %w", seedAddr, err)
	}
	p.dir.Upsert(rec)
	return nil
}

// resolveAddr maps a peer id to its gossiped address, or else to the
// address its own rejected record gave.
func (p *Peer) resolveAddr(id directory.PeerID) (string, bool) {
	if rec, ok := p.dir.Get(id); ok && rec.Addr != "" {
		return rec.Addr, true
	}
	addr, ok := p.strays.Load(id)
	if !ok {
		return "", false
	}
	return addr.(string), true
}

// onNews reacts to fresh gossip: persistent queries re-evaluate against
// the peer whose filter changed, and the directory, which now holds the
// peer, gives its address from here on.
func (p *Peer) onNews(rec directory.Record) {
	p.registry.NotifyFilter(rec.ID)
	p.strays.Delete(rec.ID)
}

// Publish shares an XML document with the community: it is stored
// locally, indexed, summarized into the Bloom filter, and the new filter
// is gossiped. When BrokerTopFrac > 0, the document's most frequent terms
// are also published to the brokerage (the PFS dual publication of
// Section 6). It returns the parsed document.
//
// Publish is the batch-of-one case of PublishBatch; callers ingesting
// many documents should batch them — one WAL commit, one index pass, and
// one gossiped filter diff cover the whole batch.
func (p *Peer) Publish(xml string) (*doc.Document, error) {
	docs, err := p.PublishBatch([]string{xml})
	if err != nil {
		return nil, err
	}
	return docs[0], nil
}

// selfVer reads the peer's current gossip version for stamping WAL
// records. It is read before taking p.mu so the gossip node's internal
// lock is never acquired under the peer mutex; the slight staleness is
// harmless — record versions only floor the restart epoch bump, and the
// bump raises the epoch past any seq within it.
func (p *Peer) selfVer() directory.Version {
	if p.st == nil {
		return directory.Version{}
	}
	return p.node.SelfRecord().Ver
}

// termFreq is one term of a document with its frequency, for topTerms.
type termFreq struct {
	t string
	f int
}

// termFreqPool lends topTerms its scratch slice of a document's terms.
var termFreqPool = sync.Pool{New: func() any { return new([]termFreq) }}

// topTerms returns the ceil(frac * |terms|) most frequent terms (at least
// one), ties broken lexicographically for determinism.
func topTerms(freqs map[string]int, frac float64) []string {
	buf := termFreqPool.Get().(*[]termFreq)
	all := (*buf)[:0]
	for t, f := range freqs {
		all = append(all, termFreq{t, f})
	}
	slices.SortFunc(all, func(a, b termFreq) int {
		if a.f != b.f {
			return cmp.Compare(b.f, a.f)
		}
		return strings.Compare(a.t, b.t)
	})
	// Ceil of the exact fraction; the epsilon keeps float noise like
	// 0.2*5 == 1.0000000000000002 from rounding an integral product up.
	n := min(max(int(math.Ceil(frac*float64(len(all))-1e-9)), 1), len(all))
	out := make([]string, n)
	for i := range out {
		out[i] = all[i].t
	}
	clear(all) // the pool must not pin the document's terms
	*buf = all[:0]
	termFreqPool.Put(buf)
	return out
}

// Remove unpublishes a document: the local store and index forget it,
// and a new version is announced, as for every change to what this peer
// answers (paper §3). The gossiped Bloom filter is not shrunk immediately
// (plain filters cannot delete); stale bits persist — costing only false
// positives — until Compact rebuilds the filter (StaleFraction says how
// many).
func (p *Peer) Remove(docID string) bool {
	ver := p.selfVer()
	p.mu.Lock()
	if _, err := p.store.Get(docID); err != nil {
		p.mu.Unlock()
		return false
	}
	// A failed append applies nothing: the document stays and the caller
	// sees false (no removal that silently resurrects after a crash). The
	// failure is counted so operators can spot a sick disk.
	err := p.commitLocked([]store.Op{{Kind: store.OpRemove, Data: docID}}, ver)
	p.mu.Unlock()
	if err != nil {
		p.reg.Counter("store_wal_append_errors_total").Inc()
		return false
	}
	// The removal is durable and applied: a failed announce leaves it
	// standing, and the next announce carries it.
	_ = p.announce(true)
	p.maybeCompact()
	// Push death certificates to the replica placement so live holders
	// purge (and tombstone) the content instead of serving it forever.
	p.broadcastPurge(docID)
	return true
}

// StaleFraction reports the fraction of the currently gossiped filter's
// bits that removals have invalidated — 0 immediately after a Publish or
// Compact, approaching 1 as the peer unpublishes content. Callers can use
// a threshold (say 0.25) to decide when a Compact is worth its gossip
// cost.
func (p *Peer) StaleFraction() float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	set := p.summary.Filter().SetBits()
	if set == 0 {
		return 0
	}
	return float64(set-p.rebuildFilterLocked().SetBits()) / float64(set)
}

// rebuildFilterLocked builds the filter of exactly what the peer holds
// now: every indexed term and one marker per indexed key. Every one of
// them was inserted into the gossiped filter, so the rebuilt filter's bits
// are a subset of its bits. Caller holds p.mu.
func (p *Peer) rebuildFilterLocked() *bloom.Filter {
	f := bloom.Default()
	f.InsertAll(p.index.Terms())
	for key := range p.docOf {
		f.Insert(docMarker(key))
	}
	return f
}

// Compact rebuilds the peer's Bloom filter from its live index contents,
// dropping every stale bit left behind by Remove, and gossips the fresh
// filter (a new version superseding the bloated one). It reports how many
// bits were cleaned.
//
// A compacted filter cannot be expressed as an additive diff: the own
// chain restarts with the fresh filter as its base, at the new version, so
// a holder behind it is sent the full filter. Only the copy of the filter's
// words is made under p.mu; the Golomb coding runs outside it.
func (p *Peer) Compact() int {
	p.announceMu.Lock()
	defer p.announceMu.Unlock()
	p.mu.Lock()
	fresh := p.rebuildFilterLocked()
	cleaned := p.summary.Filter().SetBits() - fresh.SetBits()
	p.summary.Reset(fresh)
	snap := fresh.Clone()
	p.mu.Unlock()
	base := snap.Compress()
	ver := p.node.SelfRecord().Ver
	ver.Seq++
	p.own.restart(ver, base)
	p.node.Publish(len(base), 0)
	return cleaned
}

// LocalDocs returns the number of locally published documents.
func (p *Peer) LocalDocs() int { return p.store.Len() }

// --- query pipeline ---

// Terms runs the query pipeline over a raw query string, supporting both
// plain words and the structured "tag:word" syntax.
func Terms(query string) []string { return text.ParseQuery(query) }

// Search runs the ranked TFxIPF search (Section 5.2) for a raw query.
func (p *Peer) Search(query string, k int) ([]search.ScoredDoc, search.Stats) {
	return search.Ranked(p.view, fetcher{p}, Terms(query), search.Options{K: k, Metrics: p.reg})
}

// SearchVia delegates a ranked search to a better-connected peer, which
// runs the whole peer-contacting pipeline and returns only the top-k
// results — the paper's proxy search for modem-class members (Section
// 7.2's "support some form of proxy search, where modem-connected peers
// can ask peers with better connectivity to help with searches").
func (p *Peer) SearchVia(proxy directory.PeerID, query string, k int) ([]search.ScoredDoc, error) {
	if proxy == p.id {
		docs, _ := p.Search(query, k)
		return docs, nil
	}
	docs, err := p.tp.ProxySearch(proxy, Terms(query), k)
	return docs, p.contacted(proxy, err)
}

// userRandLocked returns the peer's user-facing random stream, separate
// from the gossip loop's (rand.Rand is not thread-safe and gossip owns
// the transport's). Callers must hold p.mu.
func (p *Peer) userRandLocked() *rand.Rand {
	if p.userRng == nil {
		p.userRng = rand.New(rand.NewSource(p.cfg.Seed ^ 0x5eed))
	}
	return p.userRng
}

// PickProxy chooses a random on-line fast-class peer to delegate searches
// to (None if the directory knows no such peer).
func (p *Peer) PickProxy() (directory.PeerID, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.dir.PickOnline(p.userRandLocked(), func(id directory.PeerID, e directory.Entry) bool {
		return id != p.id && e.Class == directory.Fast
	})
}

// SearchAll runs the exhaustive conjunctive search (Section 5.1),
// consulting both the Bloom-filter candidates and the brokerage.
func (p *Peer) SearchAll(query string) []search.DocResult {
	terms := Terms(query)
	docs, _ := search.Exhaustive(p.view, fetcher{p}, terms, search.Options{Metrics: p.reg})
	// Also the appropriate brokers (Section 5.1).
	for _, sn := range p.brokerSearch(terms) {
		found := false
		for _, d := range docs {
			if d.Key == sn.ID {
				found = true
				break
			}
		}
		if !found {
			docs = append(docs, snippetResult(sn, terms))
		}
	}
	sort.Slice(docs, func(i, j int) bool { return docs[i].Key < docs[j].Key })
	return docs
}

// snippetResult converts a brokered snippet to a DocResult (term
// frequencies of 1 per advertised key — brokers store keys, not counts).
func snippetResult(sn broker.Snippet, terms []string) search.DocResult {
	freqs := make(map[string]int, len(terms))
	for _, t := range terms {
		if sn.HasKey(t) {
			freqs[t] = 1
		}
	}
	return search.DocResult{
		Peer: directory.PeerID(sn.Owner), Key: sn.ID,
		TermFreqs: freqs, DocLen: len(sn.Keys),
	}
}

// PostPersistentQuery registers a standing query (Section 5.1): fn fires
// for every new matching document, whether discovered via a gossiped
// Bloom filter or a brokered snippet. It returns a cancel function.
func (p *Peer) PostPersistentQuery(query string, fn func(search.DocResult)) func() {
	terms := Terms(query)
	_, cancel := p.registry.Post(terms, fn)
	// Register watches at the brokers for immediate notification of
	// fresh snippets.
	p.brokerWatch(terms)
	return cancel
}

// FetchDocument retrieves a document body from a specific peer (a
// search result names its holder). The local path also answers from the
// replica set — a replica-held hit carries Peer == this peer's id. For
// holder-agnostic fetches with failover, use ResolveDocument.
func (p *Peer) FetchDocument(owner directory.PeerID, key string) (string, error) {
	if owner != p.id {
		xml, err := p.tp.GetDoc(owner, key)
		return xml, p.contacted(owner, err)
	}
	e, _, ok := p.holding(key)
	if !ok {
		return "", fmt.Errorf("%w: %s", doc.ErrNotFound, key)
	}
	p.rep.Hit(key)
	return e.XML, nil
}

// holding looks key up in what this peer holds: its own document — returned
// as an Entry with this peer as origin and no epoch — else a hoarded
// replica.
func (p *Peer) holding(key string) (e replica.Entry, own, ok bool) {
	if raw, err := p.store.Get(key); err == nil {
		return replica.Entry{Key: key, Origin: int32(p.id), XML: raw}, true, true
	}
	e, ok = p.rep.Get(key)
	return e, false, ok
}

// localQuery evaluates a query against the local index (both semantics):
// every match, with its key, frequencies and length read off the one walk.
// Like localTopK it takes the index's read lock and never p.mu: a query
// does not wait for a publish's fsync.
func (p *Peer) localQuery(terms []string, all bool) []search.DocResult {
	var out []search.DocResult
	p.index.Merge(terms, all, func(r *index.Row) {
		tf := make(map[string]int, len(terms))
		for i, t := range terms {
			if f := r.Freqs[i]; f > 0 {
				tf[t] = int(f)
			}
		}
		out = append(out, search.DocResult{Peer: p.id, Key: r.Key(), TermFreqs: tf, DocLen: r.DocLen})
	})
	return out
}
