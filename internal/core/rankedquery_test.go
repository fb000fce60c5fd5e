package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"planetp/internal/directory"
	"planetp/internal/search"
)

// vocabDocs builds n distinct documents of words drawn from a vocab-word
// vocabulary, so every word sits in many documents and scores tie often.
func vocabDocs(rng *rand.Rand, n, vocab int, tag string) []string {
	out := make([]string, n)
	for i := range out {
		words := make([]string, 1+rng.Intn(8))
		for j := range words {
			words[j] = fmt.Sprintf("word%c", 'a'+rune(rng.Intn(vocab)))
		}
		out[i] = fmt.Sprintf("<doc>%s id%s%d</doc>", strings.Join(words, " "), tag, i)
	}
	return out
}

// The index walk's answer is the full list's cut, document for document.
func TestLocalTopKEqualsCutOfFullList(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := soloPeer(t, Config{ID: 0})
	if _, err := p.PublishBatch(vocabDocs(rng, 400, 12, "x")); err != nil {
		t.Fatal(err)
	}
	cuts := 0
	for trial := 0; trial < 100; trial++ {
		terms := make([]string, 1+rng.Intn(4))
		nt := make([]int, len(terms))
		for i := range terms {
			terms[i] = fmt.Sprintf("word%c", 'a'+rune(rng.Intn(14))) // two absent words
			nt[i] = rng.Intn(9)
		}
		rq := search.RankQuery{K: []int{1, 5, 10, 50, 1000}[rng.Intn(5)], N: 8, Nt: nt}
		got := p.localTopK(terms, rq)
		full := p.localQuery(terms, false)
		if want := search.TopDocs(full, terms, rq); !reflect.DeepEqual(got, want) {
			t.Fatalf("terms %v %+v: walk answers\n%v\nfull list cut to k is\n%v", terms, rq, got, want)
		}
		if len(got) < len(full) {
			cuts++
		}
	}
	if cuts < 50 {
		t.Fatalf("only %d of 100 queries had more matches than k: the test cuts nothing", cuts)
	}
}

// fullListFetcher answers as every peer did before the cut moved to the
// peer holding the documents: every match, over Transport.Query.
type fullListFetcher struct{ p *Peer }

func (f fullListFetcher) QueryPeer(id directory.PeerID, terms []string) ([]search.DocResult, error) {
	if id == f.p.id {
		return f.p.localQuery(terms, false), nil
	}
	return f.p.tp.Query(id, terms, false)
}

func (f fullListFetcher) QueryPeerAll(id directory.PeerID, terms []string) ([]search.DocResult, error) {
	return fetcher(f).QueryPeerAll(id, terms)
}

// A live search over peers that cut their answers returns what a search
// merging their full lists returns.
func TestClusterSearchEqualsFullListReference(t *testing.T) {
	peers := community(t, 3, 0)
	rng := rand.New(rand.NewSource(8))
	for i, p := range peers {
		if _, err := p.PublishBatch(vocabDocs(rng, 60, 12, fmt.Sprint(i))); err != nil {
			t.Fatal(err)
		}
	}
	p := peers[0]
	waitFor(t, 15*time.Second, "every peer's filter at peer 0", func() bool {
		_, st := p.SearchWith("worda", search.Options{K: 1})
		return st.PeersRanked == 3
	})
	for _, query := range []string{"worda", "wordb wordc", "wordd worde wordf wordd", "wordz worda"} {
		for _, opt := range []search.Options{{K: 1}, {K: 5}, {K: 10}, {K: 50}} {
			wantDocs, wantSt := search.Ranked(p.view, fullListFetcher{p}, Terms(query), opt)
			gotDocs, gotSt := p.SearchWith(query, opt)
			if !reflect.DeepEqual(gotDocs, wantDocs) || len(gotDocs) != opt.K {
				t.Fatalf("%q %+v: search returns\n%v\nfull-list reference\n%v", query, opt, gotDocs, wantDocs)
			}
			if gotSt.DocsRetrieved > opt.K*gotSt.PeersContacted {
				t.Fatalf("%q %+v: received %d documents from %d peers", query, opt, gotSt.DocsRetrieved, gotSt.PeersContacted)
			}
			gotSt.DocsRetrieved = wantSt.DocsRetrieved
			if gotSt != wantSt {
				t.Fatalf("%q %+v: stats %+v, reference %+v", query, opt, gotSt, wantSt)
			}
		}
	}
}

// Reply-size guard: a word in all 500 documents of a peer, k = 10 — the
// peer sends back exactly 10 documents, in under 4 KB. A revert to full
// lists fails here.
func TestRankedQueryReplyBounded(t *testing.T) {
	peers := community(t, 2, 0)
	docs := make([]string, 500)
	for i := range docs {
		docs[i] = fmt.Sprintf("<doc>ubiquitous filler%d</doc>", i)
	}
	if _, err := peers[1].PublishBatch(docs); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 15*time.Second, "peer 1's filter at peer 0", func() bool {
		_, st := peers[0].Search("ubiquitous", 10)
		return st.PeersContacted == 1
	})
	tx := peers[1].Metrics().Counter("transport_tx_bytes_query")
	before := tx.Value()
	got, st := peers[0].Search("ubiquitous", 10)
	if len(got) != 10 || st.PeersContacted != 1 || st.DocsRetrieved != 10 {
		t.Fatalf("%d hits, stats %+v; want 10 hits, 10 documents from 1 peer", len(got), st)
	}
	if sent := tx.Value() - before; sent <= 0 || sent >= 4096 {
		t.Fatalf("peer 1 sent %d bytes for a k=10 query, want under 4096", sent)
	}
	// Headers no searcher of this code sends reach the index walk and cost
	// the peer no panic and never more than its matches.
	for _, rq := range []search.RankQuery{
		{K: -1, N: 2, Nt: []int{1, 1}}, {K: 1 << 31, N: 2, Nt: []int{1, 1}}, {K: 5, N: 1, Nt: []int{9, 1 << 40}},
		{K: 5, N: 0, Nt: []int{0, -1}}, {K: 5, N: -7, Nt: []int{1, 1}}, {K: 5, N: 2}, {K: 5, N: 2, Nt: []int{1, 2, 3}},
	} {
		docs, err := peers[0].tp.QueryRanked(1, []string{"ubiquitous", "filler7"}, rq)
		if err != nil || len(docs) > 500 {
			t.Fatalf("header %+v: %d docs, err %v", rq, len(docs), err)
		}
	}
}

// benchPeer is the benchmarks' peer, holding docs.
func benchPeer(b *testing.B, docs []string) *Peer {
	p, err := NewPeer(Config{ID: 0, Capacity: 4, Gossip: fastGossip()})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(p.Stop)
	if _, err := p.PublishBatch(docs); err != nil {
		b.Fatal(err)
	}
	return p
}

// localQueryPeer holds 500 documents, every one with the head word, one
// in fifty with the rare one.
func localQueryPeer(b *testing.B) *Peer {
	docs := make([]string, 500)
	for i := range docs {
		docs[i] = fmt.Sprintf("<doc>head filler%d %s</doc>", i, strings.Repeat("rare ", (i%50)/49))
	}
	return benchPeer(b, docs)
}

var benchDocs []search.DocResult

func BenchmarkLocalQueryRanked(b *testing.B) {
	p := localQueryPeer(b)
	rq := search.RankQuery{K: 10, N: 4, Nt: []int{4, 1}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchDocs = p.localTopK([]string{"head", "rare"}, rq)
	}
}

// A mixed_rw peer at the end of the window: 4000 documents of equal length,
// both query words in every one once, so every score ties and keys decide.
func BenchmarkLocalQueryRankedTies(b *testing.B) {
	docs := make([]string, 4000)
	for i := range docs {
		docs[i] = fmt.Sprintf("<doc>head common filler%d</doc>", i)
	}
	p := benchPeer(b, docs)
	rq := search.RankQuery{K: 10, N: 4, Nt: []int{4, 4}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchDocs = p.localTopK([]string{"head", "common"}, rq)
	}
}

func BenchmarkLocalQueryAll(b *testing.B) {
	p := localQueryPeer(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchDocs = p.localQuery([]string{"head", "rare"}, true)
	}
}
