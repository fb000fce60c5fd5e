package core

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"planetp/internal/broker"
	"planetp/internal/doc"
	"planetp/internal/replica"
	"planetp/internal/store"
	"planetp/internal/text"
)

// Batched ingest. PublishBatch amortizes every per-document cost of
// Publish across a whole batch: text analysis runs on a bounded worker
// pool outside the peer mutex, the WAL commits all records with one
// append (and, with fsync batching, one flush), the index is locked once,
// and a single filter diff + compressed payload is gossiped for the
// batch instead of one per document.

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

// indexLocked adds analyzed documents — own or replica — to the inverted
// index under their keys and announces their terms, plus a per-document
// marker, through the Bloom summary and its counting twin. The marker lets
// any peer resolve a bare document id to its live holders by probing
// gossiped filters (replica failover). The summary is not flushed. Caller
// holds p.mu.
func (p *Peer) indexLocked(batch []analyzed) {
	freqs := make([]map[string]int, len(batch))
	for i, ad := range batch {
		freqs[i] = ad.freqs
	}
	ids := p.index.AddTermFreqsBatch(freqs)
	for i, ad := range batch {
		p.docOf[ad.key] = ids[i]
		p.keyOf[ids[i]] = ad.key
		for t := range ad.freqs {
			p.summary.Insert(t)
			p.counting.Add(t)
		}
		p.summary.Insert(docMarker(ad.key))
		p.counting.Add(docMarker(ad.key))
	}
}

// unindexLocked is indexLocked's inverse for one key (a no-op for a key
// not indexed). The gossiped plain filter cannot delete: it keeps stale
// bits, counted by the counting twin, until the next Compact. Caller holds
// p.mu.
func (p *Peer) unindexLocked(key string) {
	id, ok := p.docOf[key]
	if !ok {
		return
	}
	for _, t := range p.index.DocTerms(id) {
		p.counting.Remove(t)
	}
	p.index.RemoveDocument(id)
	delete(p.docOf, key)
	delete(p.keyOf, id)
	p.counting.Remove(docMarker(key))
}

// gossipPending folds the filter inserts made since the last flush into
// one gossiped version; with none pending (an epoch refresh, a recovery
// that replayed no replica) it announces nothing.
func (p *Peer) gossipPending() error {
	p.mu.Lock()
	if p.summary.Pending() == 0 {
		p.mu.Unlock()
		return nil
	}
	diff, payload, err := p.summary.Flush()
	p.mu.Unlock()
	if err != nil {
		return err
	}
	p.node.Publish(len(diff), len(payload), payload)
	return nil
}

// PublishBatch publishes many XML documents as one atomic ingest step:
// all are analyzed in parallel, committed to the WAL as a single batch
// (write-ahead — a failed commit leaves the peer completely unchanged),
// indexed under one lock acquisition, and summarized into ONE gossiped
// filter diff and compressed payload. Documents already published (or
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
	// Drop documents already stored and intra-batch repeats; only fresh
	// ones are logged, indexed, and summarized.
	fresh := make([]analyzed, 0, len(ana))
	inBatch := make(map[string]bool, len(ana))
	for _, ad := range ana {
		if inBatch[ad.doc.ID] {
			releaseFreqs(ad.freqs)
			continue
		}
		inBatch[ad.doc.ID] = true
		if _, err := p.store.Get(ad.doc.ID); err == nil {
			releaseFreqs(ad.freqs) // idempotent republish
			continue
		}
		fresh = append(fresh, ad)
	}
	if len(fresh) == 0 {
		p.mu.Unlock()
		return docs, nil
	}
	// Write-ahead, as in Publish, but one WAL append covers the batch:
	// record order matches apply order, and the batch is acknowledged
	// durable as a unit. On failure nothing was stored, indexed, released
	// or gossiped.
	ops := make([]store.Op, len(fresh))
	for i, ad := range fresh {
		ops[i] = store.Op{Kind: store.OpPublish, Data: ad.doc.Raw}
	}
	if err := p.logBatch(ops, ver); err != nil {
		p.mu.Unlock()
		for _, ad := range fresh {
			releaseFreqs(ad.freqs)
		}
		return nil, fmt.Errorf("core: batch publish not committed to WAL: %w", err)
	}
	for _, ad := range fresh {
		// Publishing a document this peer holds as a replica converts it
		// to an owned copy: the replica is released (no tombstone — the
		// content lives on) so the two never double-index. The publish
		// record is the whole conversion — replaying it comes through here
		// and releases the replica again — so no crash point has the
		// document under neither name, as a release record kept by a torn
		// batch that lost the publish would.
		if p.rep.Has(ad.key) {
			_ = p.applyReplicaLocked(replica.DropOp(ad.key, 0, false)) // a record just built always decodes
			p.reg.Counter("replica_purges_total").Inc()
		}
		p.store.Put(ad.doc)
	}
	p.indexLocked(fresh)
	diff, payload, err := p.summary.Flush()
	p.mu.Unlock()
	if err != nil {
		return nil, err
	}

	p.node.Publish(len(diff), len(payload), payload)
	p.maybeCompact()

	if p.cfg.BrokerTopFrac > 0 {
		discard := p.cfg.BrokerDiscard
		if discard <= 0 {
			discard = 10 * time.Minute
		}
		for _, ad := range fresh {
			keys := topTerms(ad.freqs, p.cfg.BrokerTopFrac)
			p.brokerPublish(broker.Snippet{ID: ad.doc.ID, Owner: int32(p.id), XML: ad.doc.Raw, Keys: keys}, discard)
		}
	}
	for _, ad := range fresh {
		releaseFreqs(ad.freqs)
	}

	p.reg.Counter("ingest_docs_total").Add(int64(len(fresh)))
	p.reg.Counter("ingest_batches_total").Inc()
	p.reg.Gauge("ingest_batch_size").Set(int64(len(xmls)))
	p.reg.Histogram("ingest_batch_latency_us", ingestLatencyBounds).
		Observe(time.Since(start).Microseconds())
	return docs, nil
}
