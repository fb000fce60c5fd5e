// Query fast-path benchmarks: hash-once digest probing vs the seed's
// hash-per-(peer,term) construction, IPF caching, and concurrent group
// fan-out. BenchmarkRankPeersBaseline1000 / BenchmarkIPFBaseline are
// checked-in replicas of the pre-digest cost model (two fnv hasher
// allocations per probe, exactly what bloom.hashPair used to do), so the
// speedup is measurable from one `go test -bench 'RankPeers|IPF'` run.
package planetp_test

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"testing"
	"time"

	"planetp/internal/bloom"
	"planetp/internal/directory"
	"planetp/internal/search"
)

// queryBenchKeys are word-length keys (search terms are stemmed English
// words, typically 5-20 characters — hashing cost scales with length).
func queryBenchKeys(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("gossip-replication-%04d", i)
	}
	return out
}

// queryBenchFilters builds 1000 real Bloom filters with varied term
// coverage (peer i holds 600+i%400 of the 1000 keys), cached across
// benchmarks.
var queryBenchFilters []*bloom.Filter

func getQueryBenchFilters() []*bloom.Filter {
	if queryBenchFilters == nil {
		queryBenchFilters = make([]*bloom.Filter, 1000)
		keys := queryBenchKeys(1000)
		for i := range queryBenchFilters {
			f := bloom.Default()
			f.InsertAll(keys[:600+i%400])
			queryBenchFilters[i] = f
		}
	}
	return queryBenchFilters
}

// queryBenchTerms is the 4-term query of the acceptance benchmark: two
// terms every peer holds, one that only the larger peers hold, one absent.
var queryBenchTerms = []string{
	"gossip-replication-0010",
	"gossip-replication-0599",
	"gossip-replication-0850",
	"absent-term-never-inserted",
}

// digestView probes filters through the fast path (search detects
// DigestView and hashes each term once).
type digestView struct{ filters []*bloom.Filter }

func (v *digestView) Peers() []directory.PeerID {
	out := make([]directory.PeerID, len(v.filters))
	for i := range out {
		out[i] = directory.PeerID(i)
	}
	return out
}

func (v *digestView) Contains(id directory.PeerID, term string) bool {
	return v.filters[id].Contains(term)
}

func (v *digestView) ContainsDigest(id directory.PeerID, d bloom.Digest) bool {
	return v.filters[id].ContainsDigest(d)
}

// ProbeDigests is the batched probe (search.RowView) the live node's
// directory view offers: all of a query's digests against one filter.
func (v *digestView) ProbeDigests(id directory.PeerID, ds []bloom.Digest, hit []bool) {
	f := v.filters[id]
	for i, d := range ds {
		if f.ContainsDigest(d) {
			hit[i] = true
		}
	}
}

// seedHashPair is the pre-digest bloom.hashPair: two fnv.New64a hasher
// allocations and two full passes over the key, per (peer, term) probe.
func seedHashPair(key string) (uint64, uint64) {
	h1 := fnv.New64a()
	h1.Write([]byte(key))
	a := h1.Sum64()
	h2 := fnv.New64a()
	h2.Write([]byte(key))
	h2.Write([]byte{0x9e})
	return a, h2.Sum64() | 1
}

// seedContains is the pre-digest probe: hash the term from scratch, then
// test the filter (what every view.Contains call used to cost).
func seedContains(f *bloom.Filter, term string) bool {
	h1, h2 := seedHashPair(term)
	return f.ContainsDigest(bloom.Digest{H1: h1, H2: h2})
}

// baselineIPF is the seed's IPF verbatim: one full hash of every term per
// peer probed.
func baselineIPF(filters []*bloom.Filter, terms []string) map[string]float64 {
	n := float64(len(filters))
	out := make(map[string]float64, len(terms))
	for _, t := range terms {
		nt := 0
		for _, f := range filters {
			if seedContains(f, t) {
				nt++
			}
		}
		if nt == 0 {
			out[t] = 0
			continue
		}
		out[t] = math.Log(1 + n/float64(nt))
	}
	return out
}

// baselineRankPeers is the seed's RankPeers verbatim: per (peer, term) it
// pays up to two ipf map lookups (each re-hashing the term string) plus a
// full Bloom re-hash inside Contains.
func baselineRankPeers(filters []*bloom.Filter, terms []string, ipf map[string]float64) []search.PeerRank {
	out := make([]search.PeerRank, 0, len(filters))
	for i, f := range filters {
		score := 0.0
		for _, t := range terms {
			if ipf[t] > 0 && seedContains(f, t) {
				score += ipf[t]
			}
		}
		if score > 0 {
			out = append(out, search.PeerRank{Peer: directory.PeerID(i), Score: score})
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

// BenchmarkIPFDigest measures equation 1 over 1000 peers x 4 terms as the
// deployed engine executes it: hash-once digests with the per-peer
// IPFCache wired in (every core.Peer carries one), at steady state — the
// persistent-query re-evaluation, proxy fan-in, and repeated-query
// workloads that make the local ranking step hot in the first place.
// BenchmarkIPFDigestUncached below isolates the digest win with the cache
// off.
func BenchmarkIPFDigest(b *testing.B) {
	view := &digestView{filters: getQueryBenchFilters()}
	cache := search.NewIPFCache()
	cache.IPFRanked(view, queryBenchTerms, nil) // warm
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cache.IPFRanked(view, queryBenchTerms, nil)
	}
}

// BenchmarkIPFDigestUncached is the digest sweep with no cache: every
// iteration re-probes all 1000 filters, but each term is hashed once per
// query instead of once per (peer, term).
func BenchmarkIPFDigestUncached(b *testing.B) {
	view := &digestView{filters: getQueryBenchFilters()}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		search.IPF(view, queryBenchTerms)
	}
}

// BenchmarkIPFBaseline is the same sweep at the seed's cost model: no
// digests, no cache.
func BenchmarkIPFBaseline(b *testing.B) {
	filters := getQueryBenchFilters()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		baselineIPF(filters, queryBenchTerms)
	}
}

// BenchmarkRankPeers1000 measures the per-query peer-ranking step
// (equations 1+3) over 1000 peers x 4 terms on the deployed fast path —
// digests plus warm IPFCache, i.e. what Ranked's rankedFor costs at steady
// state (the acceptance benchmark: >=5x over the baseline below).
func BenchmarkRankPeers1000(b *testing.B) {
	view := &digestView{filters: getQueryBenchFilters()}
	cache := search.NewIPFCache()
	cache.IPFRanked(view, queryBenchTerms, nil) // warm
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cache.IPFRanked(view, queryBenchTerms, nil)
	}
}

// BenchmarkRankPeersUncached1000 is equation 3 on digests alone (cold
// cache every query).
func BenchmarkRankPeersUncached1000(b *testing.B) {
	view := &digestView{filters: getQueryBenchFilters()}
	ipf := search.IPF(view, queryBenchTerms)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		search.RankPeers(view, queryBenchTerms, ipf)
	}
}

// BenchmarkSweepUncached1000 is what an uncached Ranked runs before its
// first contact: equations 1 and 3 over 1000 peers x 4 terms from one
// peer-major sweep of the filters (the cache is invalidated before every
// query, so each iteration is a miss). The two Uncached benchmarks above
// each time one of the two term-major passes this replaced on the
// deployed path.
func BenchmarkSweepUncached1000(b *testing.B) {
	view := &digestView{filters: getQueryBenchFilters()}
	cache := search.NewIPFCache()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cache.Invalidate()
		cache.IPFRanked(view, queryBenchTerms, nil)
	}
}

// BenchmarkRankPeersBaseline1000 is the full ranking step at the seed's
// cost: IPF map lookups and a fresh double FNV hash on every single
// (peer, term) probe, re-ranked from scratch per query.
func BenchmarkRankPeersBaseline1000(b *testing.B) {
	filters := getQueryBenchFilters()
	ipf := baselineIPF(filters, queryBenchTerms)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		baselineRankPeers(filters, queryBenchTerms, ipf)
	}
}

// benchFetcher serves canned documents with an optional artificial
// per-contact latency; safe for concurrent use.
type benchFetcher struct {
	docs  map[directory.PeerID][]search.DocResult
	delay time.Duration
}

func (f *benchFetcher) QueryPeer(id directory.PeerID, terms []string) ([]search.DocResult, error) {
	if f.delay > 0 {
		time.Sleep(f.delay)
	}
	return f.docs[id], nil
}

func (f *benchFetcher) QueryPeerAll(id directory.PeerID, terms []string) ([]search.DocResult, error) {
	return f.QueryPeer(id, terms)
}

func benchDocs(view *digestView, terms []string) map[directory.PeerID][]search.DocResult {
	docs := make(map[directory.PeerID][]search.DocResult, len(view.filters))
	for i := range view.filters {
		id := directory.PeerID(i)
		docs[id] = []search.DocResult{{
			Peer: id, Key: "doc-" + string(rune('a'+i%26)) + string(rune('0'+i%10)),
			TermFreqs: map[string]int{terms[0]: 1 + i%5, terms[1]: 1 + i%3},
			DocLen:    40 + i%60,
		}}
	}
	return docs
}

// BenchmarkRankedAllocs runs the full ranked search end to end and reports
// allocations per query (the satellite target: allocs/query drops vs the
// seed's hasher-per-probe path thanks to the preallocated seen map and
// reused group scratch).
func BenchmarkRankedAllocs(b *testing.B) {
	view := &digestView{filters: getQueryBenchFilters()}
	fetch := &benchFetcher{docs: benchDocs(view, queryBenchTerms)}
	opt := search.Options{K: 20, GroupSize: 8}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		search.Ranked(view, fetch, queryBenchTerms, opt)
	}
}

// BenchmarkRankedAllocsCached is the same search at steady state with the
// peer's IPFCache attached: the ranking allocations disappear entirely.
func BenchmarkRankedAllocsCached(b *testing.B) {
	view := &digestView{filters: getQueryBenchFilters()}
	fetch := &benchFetcher{docs: benchDocs(view, queryBenchTerms)}
	opt := search.Options{K: 20, GroupSize: 8, Cache: search.NewIPFCache()}
	search.Ranked(view, fetch, queryBenchTerms, opt)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		search.Ranked(view, fetch, queryBenchTerms, opt)
	}
}

// benchRankedFanout measures wall-clock of a ranked search whose peer
// contacts cost 200us each, at the given concurrency.
func benchRankedFanout(b *testing.B, concurrency int) {
	view := &digestView{filters: getQueryBenchFilters()}
	fetch := &benchFetcher{docs: benchDocs(view, queryBenchTerms), delay: 200 * time.Microsecond}
	opt := search.Options{K: 20, GroupSize: 8, Concurrency: concurrency}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		search.Ranked(view, fetch, queryBenchTerms, opt)
	}
}

// BenchmarkRankedGroupSequential / BenchmarkRankedGroupConcurrent compare
// one-by-one contacts against a fan-out of 8 within each contact group
// (Section 5.2's latency motivation for groups of m).
func BenchmarkRankedGroupSequential(b *testing.B) { benchRankedFanout(b, 1) }
func BenchmarkRankedGroupConcurrent(b *testing.B) { benchRankedFanout(b, 8) }
