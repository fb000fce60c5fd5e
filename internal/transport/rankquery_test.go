package transport

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"planetp/internal/directory"
	"planetp/internal/search"
)

// matchesHandler answers every query with the same 40 matches and does
// not rank: the transport's fall-back cuts its answers.
type matchesHandler struct{ *recordingHandler }

func (matchesHandler) HandleQuery(terms []string, all bool) []search.DocResult {
	out := make([]search.DocResult, 40)
	for i := range out {
		out[i] = search.DocResult{Key: fmt.Sprintf("doc-%02d", i),
			TermFreqs: map[string]int{terms[0]: 1 + i%7}, DocLen: 10 + i%3}
	}
	return out
}

// rankingHandler also implements RankingHandler and records the headers
// it was handed.
type rankingHandler struct {
	matchesHandler
	mu     sync.Mutex
	ranked []search.RankQuery
}

func (h *rankingHandler) HandleRankedQuery(terms []string, rq search.RankQuery) []search.Hit {
	h.mu.Lock()
	h.ranked = append(h.ranked, rq)
	h.mu.Unlock()
	return bestRows(h.HandleQuery(terms, false), terms, rq)
}

// bestRows is a ranking peer's answer over docs: each document a row in
// the scorer's columns, cut to the rq.K best by the walk's kernel.
func bestRows(docs []search.DocResult, terms []string, rq search.RankQuery) []search.Hit {
	sc := rq.Scorer(terms)
	top := sc.TopK(rq.K)
	for _, h := range search.Rows(docs, sc.Terms) {
		if score := sc.Score(h.Freqs, h.DocLen); top.Admits(score) {
			top.Insert(score, h.Key, h.Freqs, h.DocLen)
		}
	}
	return top.Hits()
}

// serving starts a transport for h and a client that resolves peer 1 to it.
func serving(t *testing.T, h Handler) *Transport {
	t.Helper()
	srv, err := New(1, "", h, nil, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	cl, err := New(0, "", newHandler(0), func(directory.PeerID) (string, bool) { return srv.Addr(), true }, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	return cl
}

// A KindQuery without a rank header — an older searcher, the bench's
// replay — gets every match, from a handler that ranks and from one that
// does not; a ranked query gets the k best from both, the ranking handler
// seeing the header as sent.
func TestRankHeaderOnTheWire(t *testing.T) {
	terms := []string{"alpha", "beta"}
	rq := search.RankQuery{K: 5, N: 12, Nt: []int{3, 7}}
	plain := matchesHandler{newHandler(1)}
	ranking := &rankingHandler{matchesHandler: plain}
	want := bestRows(plain.HandleQuery(terms, false), terms, rq)
	for name, h := range map[string]Handler{"plain": plain, "ranking": ranking} {
		cl := serving(t, h)
		full, err := cl.Query(1, terms, false)
		if err != nil || len(full) != 40 {
			t.Fatalf("%s handler, no rank header: %d docs, err %v; want all 40", name, len(full), err)
		}
		got, err := cl.QueryRanked(1, terms, rq)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s handler, ranked: err %v\n got %v\nwant %v", name, err, got, want)
		}
	}
	if len(ranking.ranked) != 1 || !reflect.DeepEqual(ranking.ranked[0], rq) {
		t.Fatalf("ranking handler saw headers %+v, want one %+v", ranking.ranked, rq)
	}
}

// hostileRankQueries are rank headers no searcher of this code sends.
var hostileRankQueries = []search.RankQuery{
	{K: 0, N: 4, Nt: []int{1, 1}},
	{K: -3, N: 4, Nt: []int{1, 1}},
	{K: 1 << 31, N: 4, Nt: []int{1, 1}},
	{K: 5, N: 2, Nt: []int{9, 1 << 40}},
	{K: 5, N: 0, Nt: []int{0, -1}},
	{K: 5, N: -7, Nt: []int{1, 1}},
	{K: 5, N: 4, Nt: nil},
	{K: 5, N: 4, Nt: []int{1}},
	{K: 5, N: 4, Nt: []int{1, 2, 3, 4}},
}

// A hostile rank header costs the answering peer nothing it would not
// send anyway: no panic, never more than the matches.
func TestHostileRankHeader(t *testing.T) {
	cl := serving(t, matchesHandler{newHandler(1)})
	for _, rq := range hostileRankQueries {
		docs, err := cl.QueryRanked(1, []string{"alpha", "beta"}, rq)
		if err != nil || len(docs) > 40 {
			t.Fatalf("header %+v: %d docs, err %v", rq, len(docs), err)
		}
	}
}

// A query without a rank header gets the handler's maps back as they were
// answered, each document stamped with the peer that holds it: rows on the
// wire drop nothing a map of the query's terms held.
func TestQueryReturnsHandlerMaps(t *testing.T) {
	h := mapsHandler{newHandler(1)}
	cl := serving(t, h)
	for _, all := range []bool{false, true} {
		for _, terms := range [][]string{{"gamma", "alpha"}, {"beta", "beta"}, {"alpha", "beta", "gamma", "delta"}} {
			want := h.HandleQuery(terms, all)
			for i := range want {
				want[i].Peer = 1
			}
			got, err := cl.Query(1, terms, all)
			if err != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("terms %v all %v: err %v\n got %v\nwant %v", terms, all, err, got, want)
			}
		}
	}
}

// mapsHandler answers a query with documents holding varied subsets of
// its terms, none, and counts past a byte.
type mapsHandler struct{ *recordingHandler }

func (mapsHandler) HandleQuery(terms []string, all bool) []search.DocResult {
	var out []search.DocResult
	for i := range 6 {
		var tf map[string]int
		for j, t := range terms {
			if (i+j)%3 != 0 {
				if tf == nil {
					tf = map[string]int{}
				}
				tf[t] = 1 + i*j*70
			}
		}
		if all && len(tf) < len(terms) {
			continue
		}
		out = append(out, search.DocResult{Key: fmt.Sprintf("doc-%d", i), TermFreqs: tf, DocLen: 5 + i})
	}
	return out
}

// everyTermView is a FilterView whose peers' filters hold every term.
type everyTermView []directory.PeerID

func (v everyTermView) Peers() []directory.PeerID              { return v }
func (v everyTermView) Contains(directory.PeerID, string) bool { return true }

// transportFetcher is search's TopKFetcher over a transport.
type transportFetcher struct{ *Transport }

func (f transportFetcher) QueryPeer(id directory.PeerID, terms []string) ([]search.DocResult, error) {
	return f.Query(id, terms, false)
}

func (f transportFetcher) QueryPeerAll(id directory.PeerID, terms []string) ([]search.DocResult, error) {
	return f.Query(id, terms, true)
}

func (f transportFetcher) QueryPeerTopK(id directory.PeerID, terms []string, rq search.RankQuery) ([]search.Hit, error) {
	return f.QueryRanked(id, terms, rq)
}

// A peer answering a ranked query with rows narrower or wider than the
// query's columns is a failed contact: the search does not panic, keeps
// nothing of the reply and counts none of its documents, and still ranks
// what an honest peer sends.
func TestWrongWidthRowsFailContact(t *testing.T) {
	terms := []string{"gamma", "alpha", "beta"}
	row := func(key string, width int) search.Hit {
		h := search.Hit{Key: key, DocLen: 4, Freqs: make([]uint32, width)}
		for i := range h.Freqs {
			h.Freqs[i] = 2
		}
		return h
	}
	addrs := map[directory.PeerID]string{}
	for id, hits := range map[directory.PeerID][]search.Hit{
		1: {row("narrow-a", 1), row("narrow-b", 1)},
		2: {row("wide-a", 4)},
		3: {row("good-a", 3), row("good-b", 3)},
	} {
		srv, err := New(id, "", rowsHandler{recordingHandler: newHandler(id), hits: hits}, nil, int64(id), nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Close)
		addrs[id] = srv.Addr()
	}
	cl, err := New(0, "", newHandler(0), func(id directory.PeerID) (string, bool) {
		addr, ok := addrs[id]
		return addr, ok
	}, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	docs, st := search.Ranked(everyTermView{1, 2, 3}, transportFetcher{cl}, terms, search.Options{K: 5})
	if st.PeersRanked != 3 || st.PeersContacted != 3 || st.DocsRetrieved != 2 {
		t.Fatalf("stats %+v: want 3 peers ranked and contacted, 2 documents from the one honest peer", st)
	}
	if len(docs) != 2 || docs[0].Key != "good-a" || docs[1].Key != "good-b" || docs[0].Peer != 3 || docs[1].Peer != 3 {
		t.Fatalf("kept %+v, want peer 3's good-a and good-b", docs)
	}
}
