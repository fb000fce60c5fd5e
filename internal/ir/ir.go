// Package ir is the information-retrieval evaluation harness for the
// paper's search experiments (Section 7.3, Figure 6 and Table 3): it
// distributes a benchmark collection across virtual peers (Weibull or
// uniform, as in the paper), builds each peer's Bloom filter, runs
// PlanetP's TFxIPF ranked search against the optimistic centralized
// TFxIDF baseline, and scores both with recall and precision (equations
// 5-6).
package ir

import (
	"math"
	"math/rand"
	"sort"
	"strconv"

	"planetp/internal/bloom"
	"planetp/internal/collection"
	"planetp/internal/directory"
	"planetp/internal/metrics"
	"planetp/internal/search"
)

// Distribution selects how documents are spread across peers.
type Distribution int

// Document-to-peer distributions (Section 7.3: the paper's main results
// use Weibull, motivated by observed P2P sharing skew; uniform appears in
// the companion report).
const (
	Weibull Distribution = iota
	Uniform
)

// String implements fmt.Stringer.
func (d Distribution) String() string {
	if d == Weibull {
		return "weibull"
	}
	return "uniform"
}

// Community is a collection distributed over virtual peers. It implements
// search.FilterView and search.Fetcher, so PlanetP's real search code runs
// unmodified against it.
type Community struct {
	Col      *collection.Collection
	NumPeers int
	// PeerOf maps doc index -> owning peer.
	PeerOf []directory.PeerID
	// DocsOf maps peer -> its doc indices.
	DocsOf [][]int
	// Filters are the peers' real Bloom filters (false positives
	// included, exactly as deployed PlanetP would gossip them).
	Filters []*bloom.Filter
	// Metrics, if non-nil, receives per-query search counters from
	// experiment runs over this community.
	Metrics *metrics.Registry
}

// weibullWeight draws a Weibull(shape, 1) variate.
func weibullWeight(rng *rand.Rand, shape float64) float64 {
	u := rng.Float64()
	for u == 0 {
		u = rng.Float64()
	}
	return math.Pow(-math.Log(u), 1/shape)
}

// Distribute spreads col over numPeers peers and builds their Bloom
// filters. The Weibull shape 0.7 gives the heavy skew observed in P2P
// file-sharing communities.
func Distribute(col *collection.Collection, numPeers int, dist Distribution, seed int64) *Community {
	rng := rand.New(rand.NewSource(seed))
	weights := make([]float64, numPeers)
	switch dist {
	case Weibull:
		for i := range weights {
			weights[i] = weibullWeight(rng, 0.7)
		}
	case Uniform:
		for i := range weights {
			weights[i] = 1
		}
	}
	// Cumulative for proportional sampling.
	cum := make([]float64, numPeers)
	acc := 0.0
	for i, w := range weights {
		acc += w
		cum[i] = acc
	}
	c := &Community{
		Col: col, NumPeers: numPeers,
		PeerOf: make([]directory.PeerID, len(col.Docs)),
		DocsOf: make([][]int, numPeers),
	}
	for d := range col.Docs {
		u := rng.Float64() * acc
		p := sort.SearchFloat64s(cum, u)
		if p >= numPeers {
			p = numPeers - 1
		}
		c.PeerOf[d] = directory.PeerID(p)
		c.DocsOf[p] = append(c.DocsOf[p], d)
	}
	c.Filters = make([]*bloom.Filter, numPeers)
	for p := 0; p < numPeers; p++ {
		f := bloom.Default()
		for _, d := range c.DocsOf[p] {
			for t := range col.Docs[d].Freqs {
				f.Insert(t)
			}
		}
		c.Filters[p] = f
	}
	return c
}

// DocKey renders a stable document key.
func DocKey(idx int) string { return "d" + strconv.Itoa(idx) }

// ParseDocKey reverses DocKey.
func ParseDocKey(key string) (int, bool) {
	if len(key) < 2 || key[0] != 'd' {
		return 0, false
	}
	n, err := strconv.Atoi(key[1:])
	if err != nil {
		return 0, false
	}
	return n, true
}

// Peers implements search.FilterView.
func (c *Community) Peers() []directory.PeerID {
	out := make([]directory.PeerID, c.NumPeers)
	for i := range out {
		out[i] = directory.PeerID(i)
	}
	return out
}

// Contains implements search.FilterView using the peer's real Bloom
// filter.
func (c *Community) Contains(id directory.PeerID, term string) bool {
	return c.Filters[id].Contains(term)
}

// Sweep implements search.SweepView: every peer's filter probed with all
// of a query's digests in one pass.
func (c *Community) Sweep(ds []bloom.Digest) ([]directory.PeerID, []bool) {
	hits := make([]bool, c.NumPeers*len(ds))
	for p, f := range c.Filters {
		for i, d := range ds {
			hits[p*len(ds)+i] = f.ContainsDigest(d)
		}
	}
	return c.Peers(), hits
}

// QueryPeer implements search.Fetcher: the peer's documents containing at
// least one query term, with the stats equation 2 needs.
func (c *Community) QueryPeer(id directory.PeerID, terms []string) ([]search.DocResult, error) {
	var out []search.DocResult
	for _, d := range c.DocsOf[id] {
		doc := &c.Col.Docs[d]
		var freqs map[string]int
		for _, t := range terms {
			if f := doc.Freqs[t]; f > 0 {
				if freqs == nil {
					freqs = make(map[string]int, len(terms))
				}
				freqs[t] = f
			}
		}
		if freqs != nil {
			out = append(out, search.DocResult{
				Peer: id, Key: DocKey(d), TermFreqs: freqs, DocLen: doc.Len,
			})
		}
	}
	return out, nil
}

// QueryPeerAll implements search.Fetcher (conjunctive semantics).
func (c *Community) QueryPeerAll(id directory.PeerID, terms []string) ([]search.DocResult, error) {
	var out []search.DocResult
	for _, d := range c.DocsOf[id] {
		doc := &c.Col.Docs[d]
		freqs := make(map[string]int, len(terms))
		all := true
		for _, t := range terms {
			f := doc.Freqs[t]
			if f <= 0 {
				all = false
				break
			}
			freqs[t] = f
		}
		if all {
			out = append(out, search.DocResult{
				Peer: id, Key: DocKey(d), TermFreqs: freqs, DocLen: doc.Len,
			})
		}
	}
	return out, nil
}

// GlobalIndex is the optimistic TFxIDF baseline of Section 7.3: a full
// collection-wide inverted index with global term statistics, as if every
// peer had the entire community's index locally.
type GlobalIndex struct {
	col *collection.Collection
	// postings maps term -> doc indices containing it.
	postings map[string][]int
	// collFreq is f_t, total occurrences of t in the collection (the
	// statistic the paper's IDF formula uses).
	collFreq map[string]int
}

// BuildGlobal indexes the whole collection.
func BuildGlobal(col *collection.Collection) *GlobalIndex {
	g := &GlobalIndex{
		col:      col,
		postings: make(map[string][]int),
		collFreq: make(map[string]int),
	}
	for d := range col.Docs {
		for t, f := range col.Docs[d].Freqs {
			g.postings[t] = append(g.postings[t], d)
			g.collFreq[t] += f
		}
	}
	return g
}

// IDF returns IDF_t = log(1 + N/f_t) (the paper's Witten et al. variant,
// with N the document count and f_t the collection frequency).
func (g *GlobalIndex) IDF(term string) float64 {
	ft := g.collFreq[term]
	if ft == 0 {
		return 0
	}
	return math.Log(1 + float64(len(g.col.Docs))/float64(ft))
}

// scoredInt pairs a doc index with a score.
type scoredInt struct {
	doc   int
	score float64
}

// TopK ranks the collection for the query by equation 2 and returns the
// top k doc indices.
func (g *GlobalIndex) TopK(terms []string, k int) []int {
	scores := make(map[int]float64)
	for _, t := range terms {
		idf := g.IDF(t)
		if idf == 0 {
			continue
		}
		for _, d := range g.postings[t] {
			f := g.col.Docs[d].Freqs[t]
			scores[d] += (1 + math.Log(float64(f))) * idf
		}
	}
	ranked := make([]scoredInt, 0, len(scores))
	for d, s := range scores {
		ranked = append(ranked, scoredInt{doc: d, score: s / math.Sqrt(float64(g.col.Docs[d].Len))})
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].score != ranked[j].score {
			return ranked[i].score > ranked[j].score
		}
		return ranked[i].doc < ranked[j].doc
	})
	if k > len(ranked) {
		k = len(ranked)
	}
	out := make([]int, k)
	for i := 0; i < k; i++ {
		out[i] = ranked[i].doc
	}
	return out
}

// RecallPrecision computes equations 5 and 6 for a retrieved set.
func RecallPrecision(retrieved []int, relevant map[int]bool) (recall, precision float64) {
	if len(relevant) == 0 || len(retrieved) == 0 {
		return 0, 0
	}
	hits := 0
	for _, d := range retrieved {
		if relevant[d] {
			hits++
		}
	}
	return float64(hits) / float64(len(relevant)), float64(hits) / float64(len(retrieved))
}

// BestPeers is Figure 6c's oracle: the (greedy) minimum number of peers
// that must be contacted to retrieve k relevant documents, computed from
// the relevance judgments.
func BestPeers(c *Community, relevant map[int]bool, k int) int {
	// Count relevant docs per peer.
	perPeer := make(map[directory.PeerID]int)
	totalRel := 0
	for d := range relevant {
		perPeer[c.PeerOf[d]]++
		totalRel++
	}
	if k > totalRel {
		k = totalRel
	}
	type pc struct {
		peer directory.PeerID
		n    int
	}
	list := make([]pc, 0, len(perPeer))
	for p, n := range perPeer {
		list = append(list, pc{p, n})
	}
	sort.Slice(list, func(i, j int) bool {
		if list[i].n != list[j].n {
			return list[i].n > list[j].n
		}
		return list[i].peer < list[j].peer
	})
	got, peers := 0, 0
	for _, e := range list {
		if got >= k {
			break
		}
		got += e.n
		peers++
	}
	return peers
}
