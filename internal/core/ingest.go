package core

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"planetp/internal/broker"
	"planetp/internal/directory"
	"planetp/internal/doc"
	"planetp/internal/replica"
	"planetp/internal/store"
	"planetp/internal/text"
)

// Batched ingest. PublishBatch amortizes every per-document cost of
// Publish across a whole batch: text analysis runs on a bounded worker
// pool outside the peer mutex, the WAL commits all records with one
// append and one fsync, the index is locked once, a single filter diff
// and version are announced for the batch, and each remote broker gets
// one frame. The compressed filter is not built here:
// the gossip node asks for it (Peer.selfPayload) when the record leaves.

// ErrNoTerms is the single-document Publish failure — the input yields
// no indexable terms after parsing and stemming; batches wrap it with
// the offending position. It marks a caller-input problem (the serving
// tier maps it to 400, not 500).
var ErrNoTerms = errors.New("core: document has no indexable terms")

// ingestLatencyBounds buckets batch latency in microseconds.
var ingestLatencyBounds = []int64{100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000}

// freqPool recycles term-frequency maps across batches. The index copies
// postings out and the brokerage snapshot copies its keys, so a map's
// lifetime ends with the batch that analyzed it.
var freqPool = sync.Pool{
	New: func() any { return make(map[string]int, 64) },
}

func releaseFreqs(m map[string]int) {
	if m == nil {
		return
	}
	clear(m)
	freqPool.Put(m)
}

// analyzed pairs a parsed document with its term-frequency map (pooled;
// released once indexed and brokered) and the key it is indexed under:
// the document id, or for a replica the key its origin gave it.
type analyzed struct {
	key   string
	doc   *doc.Document
	freqs map[string]int
}

// analyzeOne runs parse + tokenize + stem for one document with the
// worker's reusable analyzer and a pooled map.
func (p *Peer) analyzeOne(xml string, a *text.Analyzer) analyzed {
	d := doc.Parse(xml)
	freqs := freqPool.Get().(map[string]int)
	if p.cfg.StructuredIndex {
		freqs = d.StructuredTermFreqsWith(p.cfg.Resolver, a, freqs)
	} else {
		freqs = d.TermFreqsWith(p.cfg.Resolver, a, freqs)
	}
	return analyzed{key: d.ID, doc: d, freqs: freqs}
}

// analyzeBatch fans the CPU-bound analysis over up to GOMAXPROCS
// workers, each with its own Analyzer (token buffer + intern table).
// Results are index-aligned with xmls. It runs without p.mu — analysis
// never touches peer state.
func (p *Peer) analyzeBatch(xmls []string) ([]analyzed, error) {
	out := make([]analyzed, len(xmls))
	workers := runtime.GOMAXPROCS(0)
	if workers > len(xmls) {
		workers = len(xmls)
	}
	if workers <= 1 {
		var a text.Analyzer
		for i, xml := range xmls {
			out[i] = p.analyzeOne(xml, &a)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var a text.Analyzer
				for {
					i := int(next.Add(1)) - 1
					if i >= len(xmls) {
						return
					}
					out[i] = p.analyzeOne(xmls[i], &a)
				}
			}()
		}
		wg.Wait()
	}
	for i := range out {
		if len(out[i].freqs) == 0 {
			for j := range out {
				releaseFreqs(out[j].freqs)
			}
			if len(xmls) == 1 {
				return nil, ErrNoTerms
			}
			return nil, fmt.Errorf("core: batch document %d: %w", i, ErrNoTerms)
		}
	}
	return out, nil
}

// The write path. What a peer holds changes by four kinds of record —
// store.OpPublish, OpRemove, OpReplicaPut, OpReplicaDrop — and each change
// is made in the same four steps:
//
//	plan     — under p.mu, decide which records the call amounts to
//	log      — append them to the WAL (logBatch; write-ahead)
//	apply    — make them in memory: the apply*Locked functions below
//	announce — flush the summary's diff (under p.mu) and hand the node the
//	           new version (after releasing it: p.mu is never held while
//	           taking the node's mutex), then the side effects of a live
//	           write (broker puts, purge broadcast, metrics, WAL fold)
//
// Recovery runs apply alone, on the records the log already holds, and
// announces once at its end. The apply functions are therefore the only
// writers of the document store, index, key map, Bloom summary and
// replica manager, and they have no other effect: they log nothing, send
// nothing and count nothing. Callers hold p.mu.
//
// Queries do not: they walk the index under its own lock (localQuery,
// localTopK), so they can run between any two steps of an apply. The
// visibility rule keeps every key a query returns fetchable at the moment
// the walk sees it: a body is stored (document store, replica manager)
// before its key is indexed, and unindexed before it is deleted.

// planPublishLocked drops the documents of an analyzed batch that are
// already stored or repeat within it (their maps go back to the pool);
// the rest are what the batch publishes.
func (p *Peer) planPublishLocked(ana []analyzed) []analyzed {
	fresh := make([]analyzed, 0, len(ana))
	inBatch := make(map[string]bool, len(ana))
	for _, ad := range ana {
		if _, err := p.store.Get(ad.key); err == nil || inBatch[ad.key] {
			releaseFreqs(ad.freqs) // idempotent republish
			continue
		}
		inBatch[ad.key] = true
		fresh = append(fresh, ad)
	}
	return fresh
}

// applyPublishLocked applies a run of publish records: the documents are
// stored and indexed in one pass. Publishing a document this peer holds
// as a replica converts it to an owned copy — the replica is released
// (no tombstone: the content lives on) so the two never double-index —
// and the publish record is the whole conversion, so no crash point has
// the document under neither name. It returns how many it converted.
func (p *Peer) applyPublishLocked(fresh []analyzed) (converted int) {
	for _, ad := range fresh {
		if p.rep.Has(ad.key) {
			_ = p.applyLocked(replica.DropOp(ad.key, 0, false)) // a record just built always decodes
			converted++
		}
		p.store.Put(ad.doc)
	}
	p.indexLocked(fresh)
	return converted
}

// applyLocked applies one record of the other three kinds: a remove (a
// no-op for a document not held — a torn log tail may have lost its
// publish), or a replica put or drop, made in the manager and in the index
// in the order the visibility rule above gives.
func (p *Peer) applyLocked(op store.Op) error {
	switch op.Kind {
	case store.OpRemove:
		p.unindexLocked(op.Data)
		p.store.Delete(op.Data)
		return nil
	case store.OpReplicaDrop:
		// Only a held replica is indexed under the key: a certificate for
		// content this peer owns, or never had, unindexes nothing.
		if key, err := replica.DropKey(op); err == nil && p.rep.Has(key) {
			p.unindexLocked(key)
		}
		_, _, err := p.rep.Apply(op)
		return err
	}
	e, changed, err := p.rep.Apply(op)
	if err == nil && changed {
		p.indexReplicaLocked(e)
	}
	return err
}

// commitLocked is the live path's log-then-apply for records applyLocked
// takes: on a failed append nothing changes. Caller holds p.mu — like
// every append — so a plan made under it is still valid here.
func (p *Peer) commitLocked(ops []store.Op, ver directory.Version) error {
	err := p.logBatch(ops, ver)
	for i := 0; err == nil && i < len(ops); i++ {
		err = p.applyLocked(ops[i])
	}
	return err
}

// indexReplicaLocked indexes a held replica under the key its origin gave
// it (a no-op when the key is already indexed: an epoch refresh).
func (p *Peer) indexReplicaLocked(e replica.Entry) {
	if _, ok := p.docOf[e.Key]; ok {
		return
	}
	var a text.Analyzer
	ad := p.analyzeOne(e.XML, &a)
	ad.key = e.Key
	p.indexLocked([]analyzed{ad})
	releaseFreqs(ad.freqs)
}

// indexLocked adds analyzed documents — own or replica — to the inverted
// index under their keys and inserts their terms, plus a per-document
// marker, into the Bloom summary. The marker lets any peer resolve a bare
// document id to its live holders by probing gossiped filters (replica
// failover).
func (p *Peer) indexLocked(batch []analyzed) {
	keys, freqs := make([]string, len(batch)), make([]map[string]int, len(batch))
	for i, ad := range batch {
		keys[i], freqs[i] = ad.key, ad.freqs
	}
	ids := p.index.AddKeyedBatch(keys, freqs)
	for i, ad := range batch {
		p.docOf[ad.key] = ids[i]
		for t := range ad.freqs {
			p.summary.Insert(t)
		}
		p.summary.Insert(docMarker(ad.key))
	}
}

// unindexLocked is indexLocked's inverse for one key (a no-op for a key
// not indexed). The gossiped filter cannot delete: it keeps the key's bits,
// stale, until the next Compact.
func (p *Peer) unindexLocked(key string) {
	id, ok := p.docOf[key]
	if !ok {
		return
	}
	p.index.RemoveDocument(id)
	delete(p.docOf, key)
}

// gossipPending folds the filter inserts made since the last flush into
// one gossiped version; with none pending (an epoch refresh, a recovery
// that restored nothing) it announces nothing.
func (p *Peer) gossipPending() error {
	p.mu.Lock()
	if p.summary.Pending() == 0 {
		p.mu.Unlock()
		return nil
	}
	diff, _, err := p.summary.Flush()
	p.mu.Unlock()
	if err != nil {
		return err
	}
	p.node.Publish(len(diff), 0)
	return nil
}

// PublishBatch publishes many XML documents as one atomic ingest step:
// all are analyzed in parallel, committed to the WAL as a single batch
// (write-ahead — a failed commit leaves the peer completely unchanged),
// indexed under one lock acquisition, and announced as ONE filter diff
// and version. Documents already published (or
// repeated within the batch) are skipped idempotently, exactly like
// Publish. The returned documents are index-aligned with xmls.
//
// Any document with no indexable terms fails the whole batch before any
// state changes.
func (p *Peer) PublishBatch(xmls []string) ([]*doc.Document, error) {
	if len(xmls) == 0 {
		return nil, nil
	}
	start := time.Now()
	ana, err := p.analyzeBatch(xmls)
	if err != nil {
		return nil, err
	}
	docs := make([]*doc.Document, len(ana))
	for i := range ana {
		docs[i] = ana[i].doc
	}
	ver := p.selfVer()

	p.mu.Lock()
	fresh := p.planPublishLocked(ana)
	if len(fresh) == 0 {
		p.mu.Unlock()
		return docs, nil
	}
	defer func() {
		for _, ad := range fresh {
			releaseFreqs(ad.freqs)
		}
	}()
	// One WAL append covers the batch, in apply order, acknowledged durable
	// as a unit.
	ops := make([]store.Op, len(fresh))
	for i, ad := range fresh {
		ops[i] = store.Op{Kind: store.OpPublish, Data: ad.doc.Raw}
	}
	if err := p.logBatch(ops, ver); err != nil {
		p.mu.Unlock()
		return nil, fmt.Errorf("core: batch publish not committed to WAL: %w", err)
	}
	converted := p.applyPublishLocked(fresh)
	diff, _, err := p.summary.Flush()
	p.mu.Unlock()
	if err != nil {
		return nil, err
	}

	p.node.Publish(len(diff), 0)
	p.maybeCompact()
	if converted > 0 {
		p.reg.Counter("replica_purges_total").Add(int64(converted))
	}

	if p.cfg.BrokerTopFrac > 0 {
		discard := p.cfg.BrokerDiscard
		if discard <= 0 {
			discard = 10 * time.Minute
		}
		sns := make([]broker.Snippet, len(fresh))
		for i, ad := range fresh {
			keys := topTerms(ad.freqs, p.cfg.BrokerTopFrac)
			sns[i] = broker.Snippet{ID: ad.doc.ID, Owner: int32(p.id), XML: ad.doc.Raw, Keys: keys}
		}
		p.brokerPublish(sns, discard)
	}

	p.reg.Counter("ingest_docs_total").Add(int64(len(fresh)))
	p.reg.Counter("ingest_batches_total").Inc()
	p.reg.Gauge("ingest_batch_size").Set(int64(len(xmls)))
	p.reg.Histogram("ingest_batch_latency_us", ingestLatencyBounds).
		Observe(time.Since(start).Microseconds())
	return docs, nil
}
