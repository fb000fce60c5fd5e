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

func (h *rankingHandler) HandleRankedQuery(terms []string, rq search.RankQuery) []search.DocResult {
	h.mu.Lock()
	h.ranked = append(h.ranked, rq)
	h.mu.Unlock()
	return search.TopDocs(h.HandleQuery(terms, false), terms, rq)
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
	want := search.TopDocs(plain.HandleQuery(terms, false), terms, rq)
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
