package gossipsim

import "time"

// The ingest experiment: how a sustained stream of local publishes loads
// the gossip layer. Documents arrive at one source at a fixed rate;
// publishing each on arrival produces a version bump — and a fresh rumor
// storm through the whole community — per document, while batching B
// arrivals per publish produces one bump per batch carrying the same
// aggregate filter diff. The interesting outputs are the announcement
// count, the aggregate bytes gossiped, and the time until every peer
// holds the source's final version.

// TermsPerDoc is the assumed count of new filter keys per ingested
// document (Table 3's collections average 100-500 distinct terms per
// document; 100 keeps diffs in Table 2's ~3 B/key regime).
const TermsPerDoc = 100

// diffBytesPerKey follows Table 2: a Golomb-coded Bloom diff costs about
// 3 bytes per key.
const diffBytesPerKey = 3

// IngestResult records one ingest-burst run.
type IngestResult struct {
	Scenario string
	N        int
	// Docs is the burst size; Batch the documents per publish.
	Docs, Batch int
	// Publishes is the number of version bumps the burst produced.
	Publishes int
	// Time is until every peer holds the source's final version.
	Time time.Duration
	// Bytes is the aggregate gossip volume during convergence.
	Bytes int64
	// Converged reports whether the horizon was met.
	Converged bool
}

// Ingest runs one ingest stream: a converged community of n peers, docs
// documents arriving at one source every interarrival (<= 0 takes the
// scenario's gossip interval — one arrival per round, the regime where
// per-document publishing keeps the community perpetually re-converging).
// The source publishes every batch arrivals; batch <= 1 models the
// per-document Publish loop. Time and bytes cover the whole stream, from
// the first arrival until every peer holds the final version.
func Ingest(sc Scenario, n, docs, batch int, interarrival time.Duration, seed int64) IngestResult {
	if batch < 1 {
		batch = 1
	}
	if interarrival <= 0 {
		interarrival = sc.Interval
	}
	r := newRun(sc, n, n, seed)
	src := r.s.Peers()[0]
	publishes, pending := 0, 0
	for i := 0; i < docs; i++ {
		r.at(time.Duration(i)*interarrival, func() {
			pending++
			if pending < batch && i != docs-1 {
				return
			}
			// Only the final version needs tracking: earlier bumps are
			// superseded the moment a peer learns a later one.
			label := ""
			if i == docs-1 {
				label = "ingest"
			}
			r.publish(src, diffBytesPerKey*TermsPerDoc*pending, label)
			publishes++
			pending = 0
		})
	}
	conv := r.converge(patience, nil)
	return IngestResult{
		Scenario: sc.Name, N: n, Docs: docs, Batch: batch,
		Publishes: publishes, Time: r.s.Now() - r.start,
		Bytes: r.bytes(), Converged: conv,
	}
}
