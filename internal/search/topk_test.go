package search

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"planetp/internal/directory"
)

func scored(key string, s float64) ScoredDoc {
	return ScoredDoc{DocResult: DocResult{Key: key}, Score: s}
}

// A tie at the k-th score is decided by key, not by who arrived first: the
// issue's k = 2 example keeps {c, b} in every arrival order.
func TestInsertTopKTieIgnoresArrivalOrder(t *testing.T) {
	a, b, c := scored("z", 3), scored("y", 3), scored("c", 4)
	want := []ScoredDoc{c, b}
	for _, order := range [][]ScoredDoc{{a, b, c}, {c, a, b}, {b, a, c}, {c, b, a}, {a, c, b}, {b, c, a}} {
		var top []ScoredDoc
		for _, sd := range order {
			InsertTopK(&top, sd, 2)
		}
		if !reflect.DeepEqual(top, want) {
			t.Fatalf("arrival %v: top = %v, want %v", order, top, want)
		}
	}
	// A tie that takes the k-th place displaces nothing of lower score, so
	// the stop rule does not count it.
	top := []ScoredDoc{c, a}
	if InsertTopK(&top, b, 2) {
		t.Fatal("a tie at the k-th score counted as a contribution")
	}
	if !reflect.DeepEqual(top, want) {
		t.Fatalf("top = %v, want %v", top, want)
	}
}

// Any arrival order of a tie-heavy document set gives the same list.
func TestInsertTopKPermutationInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		docs := make([]ScoredDoc, 1+rng.Intn(40))
		for i := range docs {
			docs[i] = scored(fmt.Sprintf("d%02d", i), float64(rng.Intn(4)))
		}
		k := 1 + rng.Intn(12)
		var want []ScoredDoc
		for _, sd := range docs {
			InsertTopK(&want, sd, k)
		}
		for perm := 0; perm < 5; perm++ {
			rng.Shuffle(len(docs), func(i, j int) { docs[i], docs[j] = docs[j], docs[i] })
			var got []ScoredDoc
			for _, sd := range docs {
				InsertTopK(&got, sd, k)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d k %d: a permutation changed the top-k\n got %v\nwant %v", trial, k, got, want)
			}
		}
	}
}

// topKFake answers ranked queries with each peer's rq.K best, cut by an
// index walk's TopK from the full list the embedded fetcher returns.
type topKFake struct {
	*fakeCommunity
	t *testing.T
}

func (f topKFake) QueryPeerTopK(id directory.PeerID, terms []string, rq RankQuery) ([]Hit, error) {
	docs, err := f.QueryPeer(id, terms)
	if want := IPF(f, terms); err == nil {
		for i, term := range terms {
			if got := ipfWeight(rq.N, rq.Nt[i]); got != want[term] {
				f.t.Errorf("rank header gives IPF(%s) = %v, the searcher uses %v", term, got, want[term])
			}
		}
	}
	sc := rq.Scorer(terms)
	top := sc.TopK(rq.K)
	for _, h := range Rows(docs, sc.Terms) {
		if score := sc.Score(h.Freqs, h.DocLen); top.Admits(score) {
			top.Insert(score, h.Key, h.Freqs, h.DocLen)
		}
	}
	return top.Hits(), err
}

// randomReplicated builds a community whose documents are drawn from a
// shared pool, so one document (same key, same content) sits on several
// peers; with flat set every document scores the same.
func randomReplicated(rng *rand.Rand, flat bool) *fakeCommunity {
	terms := []string{"alpha", "beta", "gamma"}
	pool := make([]map[string]int, 60)
	for i := range pool {
		pool[i] = map[string]int{"alpha": 1}
		if !flat {
			pool[i] = map[string]int{terms[rng.Intn(3)]: 1 + rng.Intn(3)}
			if rng.Intn(2) == 0 {
				pool[i][terms[rng.Intn(3)]] = 1 + rng.Intn(2)
			}
		}
	}
	f := newFake()
	for p := directory.PeerID(0); p < 25; p++ {
		for _, i := range rng.Perm(len(pool))[:1+rng.Intn(20)] {
			f.addDoc(p, fmt.Sprintf("doc-%02d", i), pool[i])
		}
		f.fail[p] = rng.Intn(10) == 0
	}
	return f
}

// Ranked over peers that cut their answers to k returns what it returns
// over full lists — documents, scores, contacts, stop decisions — and
// differs only in how many documents it received.
func TestRankedTopKFetcherEquivalence(t *testing.T) {
	terms := []string{"beta", "alpha", "gamma", "alpha"}
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 30; trial++ {
		full := randomReplicated(rng, trial%3 == 0)
		cut := topKFake{full, t}
		for _, k := range []int{1, 5, 10, 50} {
			opt := Options{K: k}
			wantDocs, wantSt := Ranked(full, full, terms, opt)
			gotDocs, gotSt := Ranked(cut, cut, terms, opt)
			if !reflect.DeepEqual(gotDocs, wantDocs) {
				t.Fatalf("trial %d %+v: top-k fetcher diverges\n got %v\nwant %v", trial, opt, gotDocs, wantDocs)
			}
			if gotSt.DocsRetrieved > wantSt.DocsRetrieved || gotSt.DocsRetrieved > k*gotSt.PeersContacted {
				t.Fatalf("trial %d %+v: received %d documents from %d peers (full lists: %d)",
					trial, opt, gotSt.DocsRetrieved, gotSt.PeersContacted, wantSt.DocsRetrieved)
			}
			gotSt.DocsRetrieved = wantSt.DocsRetrieved
			if gotSt != wantSt {
				t.Fatalf("trial %d %+v: stats %+v, want %+v", trial, opt, gotSt, wantSt)
			}
		}
	}
}

// A walk's row scores as ScoreDoc scores the document's map, and so does
// the row Rows reads off a plain fetcher's map, bit for bit, on duplicated
// and unsorted query terms and on frequencies either side of the logarithm
// table's end; TopK keeps the best under that score, and its Hits are the
// kept rows in rank order, an answer no later use of the list changes.
func TestScorerMatchesScoreDoc(t *testing.T) {
	terms := []string{"gamma", "alpha", "gamma", "beta"}
	rq := RankQuery{K: 7, N: 37, Nt: []int{3, 11, 3, 29}}
	ipf := map[string]float64{}
	for i, term := range terms {
		ipf[term] = ipfWeight(rq.N, rq.Nt[i])
	}
	sc := rq.Scorer(terms)
	if want := []string{"alpha", "beta", "gamma"}; !reflect.DeepEqual(sc.Terms, want) {
		t.Fatalf("walk order %v, want %v", sc.Terms, want)
	}
	rng := rand.New(rand.NewSource(5))
	top := sc.TopK(rq.K)
	rows := map[string]Hit{}
	var want []ScoredDoc
	for i := 0; i < 200; i++ {
		d := DocResult{Key: fmt.Sprint(i), TermFreqs: map[string]int{}, DocLen: rng.Intn(90)}
		freqs := make([]uint32, len(sc.Terms))
		for j, term := range sc.Terms {
			f := rng.Intn(9)
			if i%10 == 0 {
				f = len(tfWeights) - 2 + rng.Intn(4)
			}
			if f > 0 {
				freqs[j], d.TermFreqs[term] = uint32(f), f
			}
		}
		if i%7 == 0 {
			d.TermFreqs["delta"] = 3 // a plain fetcher's map may name terms the query does not
		}
		ref := ScoreDoc(d, ipf)
		if got := sc.Score(freqs, d.DocLen); got != ref {
			t.Fatalf("doc %v: walk score %v, ScoreDoc %v", d, got, ref)
		}
		if got := sc.Score(Rows([]DocResult{d}, sc.Terms)[0].Freqs, d.DocLen); got != ref {
			t.Fatalf("doc %v: map score %v, ScoreDoc %v", d, got, ref)
		}
		if top.Admits(ref) {
			top.Insert(ref, d.Key, freqs, d.DocLen)
		}
		rows[d.Key] = Hit{Key: d.Key, DocLen: d.DocLen, Freqs: freqs}
		InsertTopK(&want, ScoredDoc{DocResult: d, Score: ref}, rq.K)
	}
	for f := 1; f < 2*len(tfWeights); f++ {
		if got, want := addTerm(0, f, 1), 1+math.Log(float64(f)); got != want {
			t.Fatalf("w(f=%d) = %v, want %v", f, got, want)
		}
	}
	wantHits := make([]Hit, len(want))
	for i, sd := range want {
		wantHits[i] = rows[sd.Key]
	}
	got := top.Hits()
	if len(got) != rq.K || !reflect.DeepEqual(got, wantHits) {
		t.Fatalf("TopK keeps\n%v\nwant\n%v", got, wantHits)
	}
	// The answer is the list's copy: changing it, or the list taking more
	// documents, changes neither the other nor a later answer.
	clear(got[0].Freqs)
	top.Insert(math.MaxFloat64, "best", []uint32{1, 1, 1}, 1)
	if again := top.Hits(); !reflect.DeepEqual(again[1:], wantHits[:rq.K-1]) || got[1].Key != wantHits[1].Key {
		t.Fatalf("a later answer\n%v\nis not the list's rows\n%v", again, wantHits)
	}
}

// TestRankedHugeKAllocatesByResults: k arrives from outside (an HTTP body,
// a proxy-search frame), so nothing in Ranked may be sized by it: a search
// asking for far more documents than exist returns what K = 100 returns
// and allocates about as much.
func TestRankedHugeKAllocatesByResults(t *testing.T) {
	f := newFake()
	for p := directory.PeerID(0); p < 3; p++ {
		for d := 0; d < 8; d++ {
			f.addDoc(p, fmt.Sprintf("p%d-d%d", p, d), map[string]int{"gossip": 1 + d, "filler": int(p)})
		}
	}
	terms := []string{"gossip"}
	run := func(k int) (docs []ScoredDoc, st Stats, bytes uint64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		docs, st = Ranked(f, f, terms, Options{K: k})
		runtime.ReadMemStats(&after)
		return docs, st, after.TotalAlloc - before.TotalAlloc
	}
	wantDocs, wantSt, wantBytes := run(100)
	if len(wantDocs) != 24 {
		t.Fatalf("K = 100 returned %d documents, want all 24", len(wantDocs))
	}
	for _, k := range []int{1 << 16, 1 << 40} {
		docs, st, bytes := run(k)
		if !reflect.DeepEqual(docs, wantDocs) || st != wantSt {
			t.Errorf("K = %d: result differs from K = 100's", k)
		}
		if bytes > 2*wantBytes {
			t.Errorf("K = %d allocated %d bytes, K = 100 allocated %d", k, bytes, wantBytes)
		}
	}
}
