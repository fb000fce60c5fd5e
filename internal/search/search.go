// Package search implements PlanetP's content search and retrieval engine
// (Section 5): exhaustive (conjunctive) search over the gossiped Bloom
// filters, the TFxIPF vector-space ranking that approximates TFxIDF using
// only Bloom-filter summaries, the adaptive stopping heuristic (equation
// 4), and persistent queries.
//
// The query fast path hashes each query term exactly once (bloom.Digest)
// and sweeps the peers' filters once per query, probing each with all of
// the precomputed digests; peers are then contacted one at a time in rank
// order.
package search

import (
	"math"
	"slices"
	"sort"
	"strings"
	"time"

	"planetp/internal/bloom"
	"planetp/internal/directory"
	"planetp/internal/metrics"
)

// FilterView is the searcher's read-only view of the community's Bloom
// filters (its local directory replica, or the IR simulator's synthetic
// community).
type FilterView interface {
	// Peers returns the searchable peers (typically those believed
	// on-line, or all peers in an optimistic off-line-aware search).
	Peers() []directory.PeerID
	// Contains reports whether peer id's Bloom filter may contain term.
	Contains(id directory.PeerID, term string) bool
}

// SweepView is an optional FilterView extension: the view probes every
// one of its peers with all of a query's digests in one pass over one
// snapshot of its state. A view without it is probed with Contains, one
// (peer, term) at a time.
type SweepView interface {
	FilterView
	// Sweep returns the searchable peers and a len(peers) x len(ds) hit
	// matrix: hits[p*len(ds)+i] reports whether peers[p]'s filter may
	// contain the key ds[i] summarizes.
	Sweep(ds []bloom.Digest) (peers []directory.PeerID, hits []bool)
}

// probeEach fills the hit matrix of peers one cell at a time through
// Contains, a column per term.
func probeEach(view FilterView, peers []directory.PeerID, terms []string) []bool {
	nt := len(terms)
	hits := make([]bool, len(peers)*nt)
	for p, id := range peers {
		for i, t := range terms {
			hits[p*nt+i] = view.Contains(id, t)
		}
	}
	return hits
}

// query binds one query's terms to a view.
type query struct {
	view  FilterView
	terms []string
}

// newQuery prepares the prober for terms against view.
func newQuery(view FilterView, terms []string) query {
	return query{view: view, terms: terms}
}

// sweep is the query's one pass over the view: the searchable peers and
// the len(peers) x len(terms) hit matrix of their filters, row p for
// peers[p]. Equations 1 and 3 and the conjunctive candidate test are all
// read off it. A SweepView gets each term hashed exactly once; any other
// view hashes inside Contains.
func (q *query) sweep() ([]directory.PeerID, []bool) {
	if sv, ok := q.view.(SweepView); ok {
		return sv.Sweep(bloom.MakeDigests(q.terms))
	}
	peers := q.view.Peers()
	return peers, probeEach(q.view, peers, q.terms)
}

// counts returns equation 1's N_t per query term from the hit matrix:
// the count of column t.
func (q *query) counts(hits []bool) []int {
	nt := make([]int, len(q.terms))
	for row := 0; row < len(hits); row += len(nt) {
		for i, hit := range hits[row : row+len(nt)] {
			if hit {
				nt[i]++
			}
		}
	}
	return nt
}

// ipf computes equation 1 (see IPF) for n peers from the terms' N_t.
func (q *query) ipf(nt []int, n int) map[string]float64 {
	out := make(map[string]float64, len(nt))
	for i, t := range q.terms {
		out[t] = ipfWeight(n, nt[i])
	}
	return out
}

// ipfWeight is equation 1, IPF_t = log(1 + N/N_t), and 0 for a term no
// peer has. The searcher and the peer answering its ranked query both
// compute their weights here, from the same two integers.
func ipfWeight(n, nt int) float64 {
	if n <= 0 || nt <= 0 {
		return 0
	}
	return math.Log(1 + float64(n)/float64(nt))
}

// rank computes equation 3 (see RankPeers) from the hit matrix of peers.
// Summation follows query-term order so scores are bit-identical to the
// pre-digest implementation.
func (q *query) rank(peers []directory.PeerID, hits []bool, ipf map[string]float64) []PeerRank {
	w := make([]float64, len(q.terms))
	for i, t := range q.terms {
		w[i] = ipf[t]
	}
	out := make([]PeerRank, 0, len(peers))
	for p, id := range peers {
		score := 0.0
		for i, hit := range hits[p*len(w) : (p+1)*len(w)] {
			if hit && w[i] > 0 { // zero-IPF terms cannot contribute
				score += w[i]
			}
		}
		if score > 0 {
			out = append(out, PeerRank{Peer: id, Score: score})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Peer < out[j].Peer
	})
	return out
}

// candidates keeps the peers whose row of the hit matrix holds every term
// (Section 5.1's conjunctive candidate test).
func (q *query) candidates(peers []directory.PeerID, hits []bool) []directory.PeerID {
	nt := len(q.terms)
	out := make([]directory.PeerID, 0, len(peers))
	for p, id := range peers {
		if !slices.Contains(hits[p*nt:(p+1)*nt], false) {
			out = append(out, id)
		}
	}
	return out
}

// DocResult is one document returned by a peer's local index in response
// to a query: the per-term frequencies and length needed for equation 2.
type DocResult struct {
	// Peer holds the document.
	Peer directory.PeerID
	// Key identifies the document globally (content hash).
	Key string
	// TermFreqs maps each query term to f_{D,t} (absent = 0).
	TermFreqs map[string]int
	// DocLen is |D|, the number of terms in the document.
	DocLen int
}

// Fetcher executes a query against one peer's local index. Live mode goes
// over the network; simulations call in-process. An error means the peer
// was unreachable; the searcher skips it.
type Fetcher interface {
	// QueryPeer returns the peer's documents containing at least one of
	// terms (for ranked search) along with ranking statistics.
	QueryPeer(id directory.PeerID, terms []string) ([]DocResult, error)
	// QueryPeerAll returns only documents containing every term
	// (exhaustive search).
	QueryPeerAll(id directory.PeerID, terms []string) ([]DocResult, error)
}

// RankQuery is what a ranked query carries to the peer answering it
// (Section 5.2): how many documents the search wants and equation 1's
// inputs as the searcher counted them, so both ends weigh a term alike.
type RankQuery struct {
	K  int   // documents wanted
	N  int   // peers in the searcher's view
	Nt []int // Nt[i]: peers whose filter has terms[i]
}

// TopKFetcher is an optional Fetcher extension: the peer scores its own
// documents by equation 2 and returns only its rq.K best under the total
// order (score descending, key ascending). The global top k is a subset of
// the union of the peers' top k's and the stop rule reads only scores, so
// Ranked returns what it would from full lists.
type TopKFetcher interface {
	QueryPeerTopK(id directory.PeerID, terms []string, rq RankQuery) ([]DocResult, error)
}

// Scorer is a ranked query's scoring kernel: equation 2 with the query's
// weights resolved once, so scoring a document is a table read, a multiply
// and an add per term — bit for bit what ScoreDoc computes.
type Scorer struct {
	// Terms are the query's distinct terms in sorted order: equation 2's
	// summation order, and the columns of the rows Score takes.
	Terms   []string
	weights []float64 // weights[i] = IPF of Terms[i]
}

// Scorer builds the kernel for terms from the header's (N, N_t). A term
// the query repeats counts once, with the weight of its first occurrence.
func (rq RankQuery) Scorer(terms []string) *Scorer {
	type weighted struct {
		term string
		w    float64
	}
	ws := make([]weighted, min(len(terms), len(rq.Nt)))
	for i := range ws {
		ws[i] = weighted{terms[i], ipfWeight(rq.N, rq.Nt[i])}
	}
	slices.SortStableFunc(ws, func(a, b weighted) int { return strings.Compare(a.term, b.term) })
	ws = slices.CompactFunc(ws, func(a, b weighted) bool { return a.term == b.term })
	sc := &Scorer{Terms: make([]string, len(ws)), weights: make([]float64, len(ws))}
	for i, tw := range ws {
		sc.Terms[i], sc.weights[i] = tw.term, tw.w
	}
	return sc
}

// Score scores a document from its frequencies of Terms, column for
// column (an index walk's row).
func (sc *Scorer) Score(freqs []uint32, docLen int) float64 {
	sum := 0.0
	freqs = freqs[:len(sc.weights)]
	for i, w := range sc.weights {
		sum = addTerm(sum, int(freqs[i]), w)
	}
	return normalize(sum, docLen)
}

// ScoreDoc scores a document a peer returned. Terms outside the query
// weigh nothing, so this is ScoreDoc under the query's IPF without the
// per-document sort.
func (sc *Scorer) ScoreDoc(d DocResult) float64 {
	sum := 0.0
	for i, t := range sc.Terms {
		sum = addTerm(sum, d.TermFreqs[t], sc.weights[i])
	}
	return normalize(sum, d.DocLen)
}

// TopK keeps the k best documents of an index walk under InsertTopK's
// order. The walk scores every match and asks Admits before it reads the
// document's key; nothing is built for a document until it enters the
// list, and only Results builds DocResults.
type TopK struct {
	sc    *Scorer
	k     int
	top   []walkDoc
	freqs []uint32 // rows of len(sc.Terms); walkDoc.row indexes them
}

// walkDoc is a TopK entry: what Results needs to build the DocResult.
type walkDoc struct {
	score  float64
	key    string
	docLen int
	row    int // its frequencies are freqs[row*len(Terms):][:len(Terms)]
}

func (d walkDoc) rank() (float64, string) { return d.score, d.key }

// TopK returns an empty accumulator for sc's query. k arrives from
// outside, so it sizes nothing beyond a first few entries.
func (sc *Scorer) TopK(k int) *TopK {
	room := min(max(k, 0), 16)
	return &TopK{sc: sc, k: k, top: make([]walkDoc, 0, room), freqs: make([]uint32, 0, room*len(sc.Terms))}
}

// Admits reports whether a document scoring score may enter the list:
// there is room, or the k-th entry does not score above it. Whatever it
// refuses, Insert would.
func (a *TopK) Admits(score float64) bool {
	n := len(a.top)
	return n < a.k || n > 0 && score >= a.top[n-1].score
}

// Insert offers one walked document: its score, its key, and the row of
// frequencies the score came from (copied if the document is kept).
func (a *TopK) Insert(score float64, key string, freqs []uint32, docLen int) {
	n := len(a.top)
	row := n // a list with room takes a fresh row
	if n >= a.k {
		if n == 0 || !before(score, key, a.top[n-1].score, a.top[n-1].key) {
			return
		}
		row = a.top[n-1].row // the entry it displaces gives up its row
		copy(a.freqs[row*len(freqs):], freqs)
	} else {
		a.freqs = append(a.freqs, freqs...)
	}
	insertTopK(&a.top, walkDoc{score: score, key: key, docLen: docLen, row: row}, a.k)
}

// Results returns the kept documents, best first, as peer's answer.
func (a *TopK) Results(peer directory.PeerID) []DocResult {
	nt := len(a.sc.Terms)
	out := make([]DocResult, len(a.top))
	for i, d := range a.top {
		tf := make(map[string]int, nt)
		for j, f := range a.freqs[d.row*nt:][:nt] {
			if f > 0 {
				tf[a.sc.Terms[j]] = int(f)
			}
		}
		out[i] = DocResult{Peer: peer, Key: d.key, TermFreqs: tf, DocLen: d.docLen}
	}
	return out
}

// TopDocs cuts a peer's full answer to the rq.K best: what a peer that
// ranks computes inside its index walk, for one that does not.
func TopDocs(docs []DocResult, terms []string, rq RankQuery) []DocResult {
	sc := rq.Scorer(terms)
	var top []ScoredDoc
	for _, d := range docs {
		InsertTopK(&top, ScoredDoc{DocResult: d, Score: sc.ScoreDoc(d)}, rq.K)
	}
	out := make([]DocResult, len(top))
	for i, sd := range top {
		out[i] = sd.DocResult
	}
	return out
}

// IPF computes the inverse peer frequency for each term (Section 5.2):
// IPF_t = log(1 + N/N_t), where N is the community size and N_t the number
// of peers whose Bloom filter contains t. Terms hit by no peer are given
// IPF 0 (they cannot contribute to any peer's rank anyway).
func IPF(view FilterView, terms []string) map[string]float64 {
	q := newQuery(view, terms)
	peers, hits := q.sweep()
	return q.ipf(q.counts(hits), len(peers))
}

// PeerRank is one peer's relevance to a query (equation 3).
type PeerRank struct {
	Peer  directory.PeerID
	Score float64
}

// RankPeers orders peers by R_i(Q) = sum of IPF_t over query terms t in
// BF_i (equation 3), descending; ties break by peer id for determinism.
// Peers with score 0 (no query term hits) are omitted.
func RankPeers(view FilterView, terms []string, ipf map[string]float64) []PeerRank {
	q := newQuery(view, terms)
	peers, hits := q.sweep()
	return q.rank(peers, hits, ipf)
}

// ScoreDoc computes equation 2 with IPF substituted for IDF:
//
//	Sim(Q,D) = Σ_{t∈Q} w_{D,t} × IPF_t / sqrt(|D|),  w_{D,t} = 1+log(f_{D,t})
//
// Summation runs in sorted term order: float addition is not associative,
// and ranging the map directly would make the last ulp of a score — and
// thus occasionally the top-k cut — vary run to run.
func ScoreDoc(d DocResult, ipf map[string]float64) float64 {
	terms := make([]string, 0, len(d.TermFreqs))
	for t := range d.TermFreqs {
		terms = append(terms, t)
	}
	sort.Strings(terms)
	sum := 0.0
	for _, t := range terms {
		sum = addTerm(sum, d.TermFreqs[t], ipf[t])
	}
	return normalize(sum, d.DocLen)
}

// addTerm adds one term's w_{D,t} × IPF_t to equation 2's sum. The
// conversions keep a compiler from fusing the product into the addition,
// so every caller gets the same bits. For the small frequencies nearly
// every posting has, w_{D,t} comes from a table; an absent term's entry is
// 0, and adding +0 changes no bit of a sum that is never negative.
func addTerm(sum float64, f int, ipf float64) float64 {
	if uint(f) < uint(len(tfWeights)) {
		return sum + float64(tfWeights[f]*ipf)
	}
	return addRareTerm(sum, f, ipf)
}

// addRareTerm is addTerm off the table: a negative count adds nothing, a
// large one costs a logarithm.
func addRareTerm(sum float64, f int, ipf float64) float64 {
	if f <= 0 {
		return sum
	}
	return sum + float64(tfWeight(f)*ipf)
}

// tfWeight is w_{D,t} = 1 + log f_{D,t}.
func tfWeight(f int) float64 { return 1 + math.Log(float64(f)) }

// tfWeights[f] is tfWeight(f) for 1 <= f < 64, and 0 for f = 0.
var tfWeights = func() (t [64]float64) {
	for f := 1; f < len(t); f++ {
		t[f] = tfWeight(f)
	}
	return t
}()

// normalize divides equation 2's sum by sqrt(|D|).
func normalize(sum float64, docLen int) float64 {
	if docLen <= 0 {
		return 0
	}
	return sum / math.Sqrt(float64(docLen))
}

// ScoredDoc is a ranked search hit.
type ScoredDoc struct {
	DocResult
	Score float64
}

// StopP computes equation 4's stopping window: the number of consecutive
// non-contributing peers tolerated before the search stops,
// p = floor(2 + N/300) + 2*floor(k/50).
func StopP(n, k int) int {
	return 2 + n/300 + 2*(k/50)
}

// Stats reports what a ranked search cost.
type Stats struct {
	// PeersRanked is the number of candidate peers (non-zero rank).
	PeersRanked int
	// PeersContacted is how many peers were actually queried.
	PeersContacted int
	// DocsRetrieved counts documents received from the contacted peers:
	// at most K from each peer that cuts its answer (TopKFetcher), every
	// match from one that does not.
	DocsRetrieved int
	// StoppedEarly reports whether the adaptive rule fired (vs running
	// out of candidates).
	StoppedEarly bool
}

// peersPerQueryBounds are the histogram buckets for peers contacted by
// one query.
var peersPerQueryBounds = []int64{1, 2, 5, 10, 20, 50, 100, 200, 500}

// record publishes a finished search's cost to reg (no-op when nil).
// queryKind distinguishes ranked from exhaustive searches.
func (st Stats) record(reg *metrics.Registry, queryKind string) {
	if reg == nil {
		return
	}
	reg.Counter("search_" + queryKind + "_queries_total").Inc()
	reg.Counter("search_peers_contacted_total").Add(int64(st.PeersContacted))
	reg.Counter("search_docs_retrieved_total").Add(int64(st.DocsRetrieved))
	if st.StoppedEarly {
		reg.Counter("search_stopped_early_total").Inc()
	}
	reg.Histogram("search_peers_per_query", peersPerQueryBounds).
		Observe(int64(st.PeersContacted))
}

// Options tunes a ranked search.
type Options struct {
	// K is the number of documents the user wants.
	K int
	// NoAdaptiveStop disables the heuristic entirely: contact peers
	// until k documents are retrieved (the naive rule the paper says
	// performs terribly).
	NoAdaptiveStop bool
	// Metrics, if non-nil, receives per-query counters (search_*
	// names). Nil disables instrumentation.
	Metrics *metrics.Registry
}

// fetchLatencyBounds are the microsecond buckets for the per-peer
// search_fetch_latency_us histogram.
var fetchLatencyBounds = []int64{
	50, 100, 250, 500, 1000, 2500, 5000, 10000, 25000, 50000, 100000, 500000,
}

// contactor runs one search's per-peer fetches: which fetch a search makes
// and its latency instrumentation, resolved once per search.
type contactor struct {
	fetch Fetcher
	terms []string
	all   bool
	topk  TopKFetcher // non-nil: a ranked search whose peers cut to rq.K
	rq    RankQuery
	hist  *metrics.Histogram
}

// newContactor resolves opt's fetch policy once.
func newContactor(fetch Fetcher, terms []string, all bool, opt Options) contactor {
	c := contactor{fetch: fetch, terms: terms, all: all}
	if opt.Metrics != nil {
		c.hist = opt.Metrics.Histogram("search_fetch_latency_us", fetchLatencyBounds)
	}
	return c
}

// one contacts a single peer.
func (c *contactor) one(id directory.PeerID) ([]DocResult, error) {
	var start time.Time
	if c.hist != nil {
		start = time.Now()
	}
	var docs []DocResult
	var err error
	switch {
	case c.all:
		docs, err = c.fetch.QueryPeerAll(id, c.terms)
	case c.topk != nil:
		docs, err = c.topk.QueryPeerTopK(id, c.terms, c.rq)
	default:
		docs, err = c.fetch.QueryPeer(id, c.terms)
	}
	if c.hist != nil {
		c.hist.Observe(time.Since(start).Microseconds())
	}
	return docs, err
}

// rankEntry is what one sweep yields for a query: the per-term N_t, the
// peer ranking under the IPF they give, and the candidate-peer count both
// were computed over (equation 1's and equation 4's N).
type rankEntry struct {
	nt    []int
	ranks []PeerRank
	peers int
}

// ipfRanked sweeps the view once and reads equation 1 over the candidate
// peers, then equation 3's ranking of them, off the hit matrix.
func (q *query) ipfRanked() rankEntry {
	peers, hits := q.sweep()
	nt := q.counts(hits)
	return rankEntry{nt: nt, ranks: q.rank(peers, hits, q.ipf(nt, len(peers))), peers: len(peers)}
}

// Ranked runs the full TFxIPF selective search (Section 5.2): rank peers
// by equation 3, contact them one at a time in rank order, rank their
// documents by equation 2, and stop when p consecutive peers fail to
// contribute to the current top k.
func Ranked(view FilterView, fetch Fetcher, terms []string, opt Options) ([]ScoredDoc, Stats) {
	var st Stats
	if opt.K <= 0 || len(terms) == 0 {
		return nil, st
	}
	q := newQuery(view, terms)
	r := q.ipfRanked()
	ranked := r.ranks
	st.PeersRanked = len(ranked)

	p := StopP(r.peers, opt.K)

	contact := newContactor(fetch, terms, false, opt)
	contact.topk, _ = fetch.(TopKFetcher)
	contact.rq = RankQuery{K: opt.K, N: r.peers, Nt: r.nt}
	// Replies are scored with the weights every contacted peer scores with.
	sc := contact.rq.Scorer(terms)
	var top []ScoredDoc // the K best so far, under InsertTopK's order
	// Sized by what comes back, never by K: K arrives from outside.
	seen := make(map[string]bool)
	noContrib := 0

	for _, pr := range ranked {
		st.PeersContacted++
		contributed := false
		if docs, err := contact.one(pr.Peer); err == nil {
			st.DocsRetrieved += len(docs)
			for _, d := range docs {
				if seen[d.Key] {
					continue
				}
				seen[d.Key] = true
				sd := ScoredDoc{DocResult: d, Score: sc.ScoreDoc(d)}
				if InsertTopK(&top, sd, opt.K) {
					contributed = true
				}
			}
		}
		if opt.NoAdaptiveStop {
			if len(top) >= opt.K {
				break
			}
			continue
		}
		// The adaptive rule only arms once an initial k documents are
		// in hand (Section 5.2).
		if len(top) >= opt.K {
			if contributed {
				noContrib = 0
			} else {
				noContrib++
				if noContrib >= p {
					st.StoppedEarly = true
					break
				}
			}
		}
	}
	st.record(opt.Metrics, "ranked")
	return top, st
}

// InsertTopK inserts sd into top, which is kept sorted under the total
// order (score descending, then key ascending) and cut to k entries: the
// list is the k best of everything offered, whatever the arrival order.
// It reports whether sd contributed in the stop rule's sense — the list
// was not full, or sd scores strictly above the k-th entry it displaced.
func InsertTopK(top *[]ScoredDoc, sd ScoredDoc, k int) bool {
	return insertTopK(top, sd, k)
}

// entry is what the order reads off a top-k list's element.
type entry interface {
	rank() (score float64, key string)
}

func (sd ScoredDoc) rank() (float64, string) { return sd.Score, sd.Key }

// before is the total order of every top-k list: whether (score a, key ak)
// ranks ahead of (score b, key bk).
func before(a float64, ak string, b float64, bk string) bool {
	if a != b {
		return a > b
	}
	return ak < bk
}

// insertTopK is InsertTopK for either kind of entry: a searcher's
// ScoredDoc or an index walk's walkDoc.
func insertTopK[T entry](top *[]T, x T, k int) bool {
	t := *top
	score, key := x.rank()
	i := sort.Search(len(t), func(i int) bool {
		s, k := t[i].rank()
		return before(score, key, s, k)
	})
	if i >= k {
		return false
	}
	contributed := len(t) < k
	if contributed {
		t = append(t, x)
	} else {
		kth, _ := t[len(t)-1].rank()
		contributed = score > kth
	}
	copy(t[i+1:], t[i:])
	t[i] = x
	*top = t
	return contributed
}

// Exhaustive runs the conjunctive search of Section 5.1: Bloom filters
// select the candidate peers (those whose filter contains every term,
// probed with hash-once digests); each candidate is asked for its
// matching documents. Unreachable peers are skipped. Results are sorted by
// document key.
func Exhaustive(view FilterView, fetch Fetcher, terms []string, opt Options) ([]DocResult, Stats) {
	var st Stats
	if len(terms) == 0 {
		return nil, st
	}
	q := newQuery(view, terms)
	candidates := q.candidates(q.sweep())
	st.PeersRanked = len(candidates)

	contact := newContactor(fetch, terms, true, opt)
	var out []DocResult
	seen := make(map[string]bool, 2*len(candidates))
	for _, id := range candidates {
		st.PeersContacted++
		docs, err := contact.one(id)
		if err != nil {
			continue
		}
		st.DocsRetrieved += len(docs)
		for _, d := range docs {
			if !seen[d.Key] {
				seen[d.Key] = true
				out = append(out, d)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	st.record(opt.Metrics, "exhaustive")
	return out, st
}
