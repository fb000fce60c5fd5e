package core

import (
	"slices"

	"planetp/internal/directory"
	"planetp/internal/search"
)

// answersMaxRows bounds what one Answers keeps, counted as the ranked-answer
// memo counts a kept walk: a row per document and one per peer. It is the
// memo's per-entry bound, topkMemoMaxCost, for the same reason: an Answers
// lives in the serving tier's result cache, and one search with a huge k or
// a long fan-out must not pin every reply it merged. A search that merged
// more is returned no Answers.
const answersMaxRows = topkMemoMaxCost

// Answers are the remote peers' answers one ranked search merged, each with
// the record version this directory held for its peer when the request
// left. Paper §3 makes every change to a peer's content a new record
// version, so while the directory holds that version, the peer's answer to
// the same query under the same weights is the one kept here (DESIGN §4c).
// Answers are never changed once returned; their rows are shared read-only.
type Answers struct {
	rq    search.RankQuery
	peers []answer
	cost  int
}

// answer is one remote peer's answer.
type answer struct {
	id   directory.PeerID
	ver  directory.Version
	hits []search.Hit
}

// add keeps a, counting its cost whether or not it fits.
func (a *Answers) add(rq search.RankQuery, ans answer) {
	a.rq = rq
	if a.cost += len(ans.hits) + 1; a.cost <= answersMaxRows {
		a.peers = append(a.peers, ans)
	}
}

// SearchAgain is Search for a query this peer has searched before. prior is
// what an earlier SearchAgain of the same query and k returned, or nil; it
// is not checked against them. A remote peer's answer is taken from prior,
// without asking the peer, while the directory holds the record version it
// was given at and the search sends the same N and N_t; every other peer
// is asked, and the self peer is always walked. The result is the one
// Search returns while each peer's answer is fixed by its record version.
// It also returns the answers it merged, for the next repeat, or nil if
// they exceed answersMaxRows.
func (p *Peer) SearchAgain(query string, k int, prior *Answers) ([]search.ScoredDoc, search.Stats, *Answers) {
	f := &priorFetcher{fetcher: fetcher{p}, prior: prior, next: &Answers{}}
	docs, st := search.Ranked(p.view, f, Terms(query), search.Options{K: k, Metrics: p.reg})
	if f.next.cost > answersMaxRows {
		return docs, st, nil
	}
	return docs, st, f.next
}

// priorFetcher is SearchAgain's fetcher: a remote peer's answer comes from
// prior while it stands, and every remote answer merged, reused or asked
// for, goes into next.
type priorFetcher struct {
	fetcher
	prior, next *Answers
}

// Prior implements search.PriorFetcher. A reused answer is no contact: the
// gossip node hears of it neither as a reply nor as a failure.
func (f *priorFetcher) Prior(id directory.PeerID, rq search.RankQuery) ([]search.Hit, bool) {
	a := f.prior
	if a == nil || id == f.p.id || a.rq.N != rq.N || !slices.Equal(a.rq.Nt, rq.Nt) {
		return nil, false
	}
	i := slices.IndexFunc(a.peers, func(ans answer) bool { return ans.id == id })
	if i < 0 || a.peers[i].ver != f.p.dir.VersionOf(id) {
		return nil, false
	}
	f.next.add(rq, a.peers[i])
	return a.peers[i].hits, true
}

// QueryPeerTopK implements search.TopKFetcher as fetcher does, and keeps a
// remote peer's answer with the version read before the request left: a
// record that moves while the request is out leaves the answer under the
// older version, so the next repeat asks again. A failed request keeps
// nothing.
func (f *priorFetcher) QueryPeerTopK(id directory.PeerID, terms []string, rq search.RankQuery) ([]search.Hit, error) {
	if id == f.p.id {
		return f.fetcher.QueryPeerTopK(id, terms, rq)
	}
	ver := f.p.dir.VersionOf(id)
	hits, err := f.fetcher.QueryPeerTopK(id, terms, rq)
	if err == nil {
		f.next.add(rq, answer{id: id, ver: ver, hits: hits})
	}
	return hits, err
}
