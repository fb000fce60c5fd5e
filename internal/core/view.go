package core

import (
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"planetp/internal/bloom"
	"planetp/internal/broker"
	"planetp/internal/chash"
	"planetp/internal/directory"
	"planetp/internal/filtercache"
	"planetp/internal/gossip"
	"planetp/internal/replica"
	"planetp/internal/search"
	"planetp/internal/transport"
)

// dirView adapts the peer's directory replica to search.FilterView:
// candidate peers are the on-line members, and Contains probes the
// gossiped (compressed) Bloom filters through a byte-budgeted cache of
// their decoded forms (per peer, whichever of position list and bitset
// is smaller). The directory's eviction hook
// (supersede / DropDead) invalidates entries so churned-out peers
// release their resident bytes instead of leaking until process exit.
type dirView struct {
	p     *Peer
	cache *filtercache.Cache
	snap  atomic.Pointer[sweepCols]
}

// Peers implements search.FilterView.
func (v *dirView) Peers() []directory.PeerID {
	return v.p.dir.OnlineIDs()
}

// Contains implements search.FilterView: the own filter lives in the
// summary, every other peer's in the filter cache.
func (v *dirView) Contains(id directory.PeerID, term string) bool {
	d := bloom.MakeDigest(term)
	if id == v.p.id {
		v.p.mu.Lock()
		defer v.p.mu.Unlock()
		return v.p.summary.Filter().ContainsDigest(d)
	}
	return v.cache.ContainsDigest(id, d)
}

// sweepCols is one directory generation's on-line columns, shared
// read-only by every sweep until the generation moves: a directory that
// does not change is read once, not once a query.
type sweepCols struct {
	gen      uint64
	ids      []directory.PeerID
	vers     []directory.Version
	payloads [][]byte // the self row nil: its filter lives in the summary
	self     int      // the self row's index, or -1
}

// cols returns the columns of the directory's current generation,
// reading them again only when the generation has moved.
func (v *dirView) cols() *sweepCols {
	c := v.snap.Load()
	if c != nil && c.gen == v.p.dir.Generation() {
		return c
	}
	gen, ids, vers, payloads := v.p.dir.OnlinePayloads()
	c = &sweepCols{gen: gen, ids: ids, vers: vers, payloads: payloads, self: slices.Index(ids, v.p.id)}
	if c.self >= 0 {
		payloads[c.self] = nil // not shared yet
	}
	v.snap.Store(c)
	return c
}

// Sweep implements search.SweepView: the on-line peers, versions and
// payloads come from one directory read per generation, every remote row
// from one cache sweep, and the self row — its filter lives in the
// summary, not the directory — from one p.mu hold (DESIGN §4f).
func (v *dirView) Sweep(ds []bloom.Digest) ([]directory.PeerID, []bool) {
	c := v.cols()
	hits := make([]bool, len(c.ids)*len(ds))
	v.cache.Sweep(c.ids, c.vers, c.payloads, ds, hits)
	if c.self >= 0 {
		v.p.mu.Lock()
		defer v.p.mu.Unlock()
		f := v.p.summary.Filter()
		for i, d := range ds {
			hits[c.self*len(ds)+i] = f.ContainsDigest(d)
		}
	}
	return c.ids, hits
}

// fetcher adapts the transport to search.Fetcher.
type fetcher struct{ p *Peer }

// QueryPeer implements search.Fetcher.
func (f fetcher) QueryPeer(id directory.PeerID, terms []string) ([]search.DocResult, error) {
	return f.query(id, terms, false)
}

// QueryPeerAll implements search.Fetcher.
func (f fetcher) QueryPeerAll(id directory.PeerID, terms []string) ([]search.DocResult, error) {
	return f.query(id, terms, true)
}

// QueryPeerTopK implements search.TopKFetcher: the peer that holds the
// documents — this one included — scores them and answers with its best.
func (f fetcher) QueryPeerTopK(id directory.PeerID, terms []string, rq search.RankQuery) ([]search.Hit, error) {
	if id == f.p.id {
		return f.p.localTopK(terms, rq), nil
	}
	docs, err := f.p.tp.QueryRanked(id, terms, rq)
	return docs, f.p.contacted(id, err)
}

func (f fetcher) query(id directory.PeerID, terms []string, all bool) ([]search.DocResult, error) {
	if id == f.p.id {
		return f.p.localQuery(terms, all), nil
	}
	docs, err := f.p.tp.Query(id, terms, all)
	return docs, f.p.contacted(id, err)
}

// contacted reports the outcome of one RPC addressed to peer id to the
// gossip node, which alone decides whether the peer is off-line (DESIGN
// §4d), and returns err. A reply — an application-level refusal or a
// definitive miss included — is a contact and clears the peer's failure
// streak; a request that failed to encode never left and is neither;
// anything else is one strike. Every peer-addressed RPC this package
// makes goes through it.
func (p *Peer) contacted(id directory.PeerID, err error) error {
	switch {
	case err == nil || answered(err):
		p.node.NoteContact(id)
	case errors.Is(err, transport.ErrEncode):
		// Nothing was sent: the peer was neither reached nor missed.
	default:
		p.node.NoteFailure(id)
	}
	return err
}

// answered reports whether err is the peer's own refusal: it answered. The
// target errors.As needs escapes, so it is declared only on an error path.
func answered(err error) bool {
	var remote *transport.RemoteError
	return errors.As(err, &remote) || errors.Is(err, transport.ErrDocNotFound)
}

// --- brokerage routing ---
//
// Every on-line member hosts a broker; the ring is computed locally from
// the directory (ids derived from peer ids), so converged peers agree on
// key ownership without coordination. Ring churn does not migrate data —
// the brokerage is best-effort by design (Section 4).

// brokerRing builds the current ring view.
func (p *Peer) brokerRing() *chash.Ring[directory.PeerID] {
	return chash.PeerRing(p.dir.OnlineIDs())
}

// brokerFanout bounds the concurrent per-broker sends of one brokerPublish.
const brokerFanout = 8

// brokerPublish routes the keys of a batch's snippets to their owning
// brokers: the keys this peer owns are put locally, and every other broker
// gets one frame carrying each snippet it owns a key of, once, with those
// keys. The frames go out concurrently.
func (p *Peer) brokerPublish(sns []broker.Snippet, discard time.Duration) {
	ring := p.brokerRing()
	remote := make(map[directory.PeerID][]transport.KeyedSnippet)
	for _, sn := range sns {
		for _, key := range sn.Keys {
			_, owner, ok := ring.Successor(chash.Hash(key))
			if !ok {
				continue
			}
			if owner == p.id {
				p.putLocalSnippet(sn, key, discard)
				continue
			}
			puts := remote[owner]
			if n := len(puts); n == 0 || puts[n-1].Snippet.ID != sn.ID {
				puts = append(puts, transport.KeyedSnippet{Snippet: sn})
			}
			puts[len(puts)-1].Keys = append(puts[len(puts)-1].Keys, key)
			remote[owner] = puts
		}
	}
	var wg sync.WaitGroup
	sem := make(chan struct{}, brokerFanout)
	for owner, puts := range remote {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			_ = p.contacted(owner, p.tp.BrokerPutBatch(owner, puts, discard)) // best effort (Section 4)
			<-sem
		}()
	}
	wg.Wait()
}

// putLocalSnippet stores one key of a snippet in the local broker and
// fires remote watches, unless the broker already held it there (a repeat
// only refreshes the entry). A registration whose watcher the directory no
// longer lists as on-line is dropped rather than notified: a departed
// watcher would otherwise be sent, and struck for, every matching put.
func (p *Peer) putLocalSnippet(sn broker.Snippet, key string, discard time.Duration) {
	if !p.broker.Put(key, sn, discard) {
		return
	}
	p.mu.Lock()
	var fire []remoteWatch
	kept := p.watchers[:0]
	for _, w := range p.watchers {
		if e, known := p.dir.Entry(w.watcher); known && !e.Online {
			continue
		}
		kept = append(kept, w)
		if sn.HasAllKeys(w.keys) {
			fire = append(fire, w)
		}
	}
	dropped := len(p.watchers) - len(kept)
	clear(p.watchers[len(kept):])
	p.watchers = kept
	p.mu.Unlock()
	if dropped > 0 {
		p.reg.Counter("broker_watchers_dropped_total").Add(int64(dropped))
	}
	for _, w := range fire {
		if w.watcher == p.id {
			p.registry.NotifyDoc(snippetResult(sn, w.keys))
		} else {
			_ = p.contacted(w.watcher, p.tp.Notify(w.watcher, sn)) // best effort
		}
	}
}

// brokerSearch queries the owning broker of each term.
func (p *Peer) brokerSearch(terms []string) []broker.Snippet {
	ring := p.brokerRing()
	seen := make(map[string]broker.Snippet)
	for _, key := range terms {
		_, ownerPeer, ok := ring.Successor(chash.Hash(key))
		if !ok {
			continue
		}
		var snips []broker.Snippet
		if ownerPeer == p.id {
			snips = p.broker.Get(key)
		} else {
			var err error
			snips, err = p.tp.BrokerGet(ownerPeer, key)
			if p.contacted(ownerPeer, err) != nil {
				continue
			}
		}
		for _, sn := range snips {
			if sn.HasAllKeys(terms) {
				seen[sn.ID] = sn
			}
		}
	}
	out := make([]broker.Snippet, 0, len(seen))
	for _, sn := range seen {
		out = append(out, sn)
	}
	return out
}

// brokerWatch registers this peer as watcher for terms at the broker
// owning the first term.
func (p *Peer) brokerWatch(terms []string) {
	if len(terms) == 0 {
		return
	}
	ring := p.brokerRing()
	_, ownerPeer, ok := ring.Successor(chash.Hash(terms[0]))
	if !ok {
		return
	}
	if ownerPeer == p.id {
		p.addWatcher(terms, p.id)
		return
	}
	_ = p.contacted(ownerPeer, p.tp.BrokerWatch(ownerPeer, terms)) // best effort
}

// addWatcher records a watch registration. An empty key list would match
// every snippet, and an exact repeat would double every notify for the
// broker's lifetime, so neither is kept.
func (p *Peer) addWatcher(keys []string, watcher directory.PeerID) {
	if len(keys) == 0 {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, w := range p.watchers {
		if w.watcher == watcher && slices.Equal(w.keys, keys) {
			return
		}
	}
	p.watchers = append(p.watchers, remoteWatch{keys: keys, watcher: watcher})
}

// --- transport.Handler ---

// handler implements transport.Handler on top of Peer without widening
// Peer's public surface.
type handler Peer

var (
	_ transport.Handler        = (*handler)(nil)
	_ transport.RankingHandler = (*handler)(nil)
)

// HandleGossip implements transport.Handler.
func (h *handler) HandleGossip(from directory.PeerID, m *gossip.Message) {
	p := (*Peer)(h)
	p.held.learn(from, m)
	p.resolveIncoming(from, m)
	p.node.Receive(from, m)
}

// HandleQuery implements transport.Handler.
func (h *handler) HandleQuery(terms []string, all bool) []search.DocResult {
	return (*Peer)(h).localQuery(terms, all)
}

// HandleRankedQuery implements transport.RankingHandler.
func (h *handler) HandleRankedQuery(terms []string, rq search.RankQuery) []search.Hit {
	return (*Peer)(h).localTopK(terms, rq)
}

// HandleBrokerPut implements transport.Handler.
func (h *handler) HandleBrokerPut(key string, sn broker.Snippet, discard time.Duration) {
	(*Peer)(h).putLocalSnippet(sn, key, discard)
}

// HandleBrokerGet implements transport.Handler.
func (h *handler) HandleBrokerGet(key string) []broker.Snippet {
	return (*Peer)(h).broker.Get(key)
}

// HandleBrokerWatch implements transport.Handler.
func (h *handler) HandleBrokerWatch(keys []string, watcher directory.PeerID) {
	(*Peer)(h).addWatcher(keys, watcher)
}

// HandleNotify implements transport.Handler: a watched snippet arrived.
func (h *handler) HandleNotify(sn broker.Snippet) {
	// Offer the snippet to all persistent queries; frequencies of 1 per
	// advertised key (brokers store keys, not counts).
	(*Peer)(h).registry.NotifyDoc(snippetResult(sn, sn.Keys))
}

// HandleProxySearch implements transport.Handler: run the full ranked
// search locally on behalf of a bandwidth-limited requester (the paper's
// proxy-search accommodation for modem peers).
func (h *handler) HandleProxySearch(terms []string, k int) []search.ScoredDoc {
	p := (*Peer)(h)
	docs, _ := search.Ranked(p.view, fetcher{p}, terms,
		search.Options{K: k, Metrics: p.reg})
	return docs
}

// HandleGetDoc implements transport.Handler: answer from the own store
// or the replica set, feeding the popularity signal either way (a
// replica serving fetches is exactly as hot as the original).
func (h *handler) HandleGetDoc(key string) (string, bool) {
	p := (*Peer)(h)
	xml, err := p.FetchDocument(p.id, key)
	return xml, err == nil
}

// HandleReplicaPut implements transport.Handler: a holder of a hot
// document (its origin or a replica holder) pushed it here for
// safekeeping. The seed score is the adoption threshold — hot enough to
// survive until it serves its first fetch.
func (h *handler) HandleReplicaPut(key, xml string, origin directory.PeerID, epoch uint32) {
	p := (*Peer)(h)
	p.adoptReplica(replica.Entry{Key: key, Origin: int32(origin), Epoch: epoch, XML: xml}, replica.HotScore)
}

// HandleReplicaPurge implements transport.Handler: the origin removed
// the document at epoch; drop the replica and record the death
// certificate so no later exchange resurrects it.
func (h *handler) HandleReplicaPurge(key string, origin directory.PeerID, epoch uint32) {
	(*Peer)(h).purgeReplica(key, epoch, true)
}

// HandlePeerExchange implements transport.Handler: serve a bounded random
// sample of known-on-line records to a bootstrapping peer. The transport
// has already clamped max; the sample is payload-free (Bloom filters come
// later through normal anti-entropy pulls).
func (h *handler) HandlePeerExchange(max int) []directory.Record {
	p := (*Peer)(h)
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.dir.SampleOnline(p.userRandLocked(), max)
}

// SelfRecord implements transport.Handler: the bootstrap reply, which
// carries the payload.
func (h *handler) SelfRecord() directory.Record {
	return (*Peer)(h).node.OutgoingSelf()
}
