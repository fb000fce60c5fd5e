package search

import (
	"sync"

	"planetp/internal/directory"
)

// PersistentQuery is a standing exhaustive query (Section 5.1): the
// callback fires for every new matching document discovered, either when
// a new Bloom filter arrives (some peer may now have matches) or when a
// matching snippet is published to the brokers. Each document key fires at
// most once per query.
type PersistentQuery struct {
	// Terms is the conjunctive query.
	Terms []string
	// Fn receives each newly discovered match.
	Fn func(DocResult)

	// q binds Terms to the registry's view, built at registration.
	q query

	mu   sync.Mutex
	seen map[string]bool
}

// Registry manages a peer's persistent queries and re-evaluates them as
// news arrives.
type Registry struct {
	mu      sync.Mutex
	queries []*PersistentQuery
	view    FilterView
	fetch   Fetcher
}

// NewRegistry returns a registry that evaluates queries against view and
// fetch.
func NewRegistry(view FilterView, fetch Fetcher) *Registry {
	return &Registry{view: view, fetch: fetch}
}

// Post registers a persistent query and immediately evaluates it against
// the current community (so existing matches fire right away). It returns
// the query handle and a cancel function.
func (r *Registry) Post(terms []string, fn func(DocResult)) (*PersistentQuery, func()) {
	q := &PersistentQuery{Terms: terms, Fn: fn, seen: make(map[string]bool)}
	q.q = newQuery(r.view, terms)
	r.mu.Lock()
	r.queries = append(r.queries, q)
	r.mu.Unlock()
	r.evaluate(q, nil)
	cancel := func() {
		r.mu.Lock()
		defer r.mu.Unlock()
		for i, x := range r.queries {
			if x == q {
				r.queries = append(r.queries[:i], r.queries[i+1:]...)
				return
			}
		}
	}
	return q, cancel
}

// Queries returns the number of registered queries.
func (r *Registry) Queries() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.queries)
}

// NotifyFilter re-evaluates all queries against a single peer whose Bloom
// filter just changed (the gossip layer calls this on fresh records).
func (r *Registry) NotifyFilter(peer directory.PeerID) {
	r.mu.Lock()
	qs := append([]*PersistentQuery(nil), r.queries...)
	r.mu.Unlock()
	only := &peer
	for _, q := range qs {
		r.evaluate(q, only)
	}
}

// NotifyDoc offers a single document (e.g. a brokered snippet converted to
// a DocResult) to all queries; matching ones fire.
func (r *Registry) NotifyDoc(d DocResult) {
	r.mu.Lock()
	qs := append([]*PersistentQuery(nil), r.queries...)
	r.mu.Unlock()
	for _, q := range qs {
		if !docMatches(d, q.Terms) {
			continue
		}
		q.fire(d)
	}
}

// docMatches reports whether d contains every query term.
func docMatches(d DocResult, terms []string) bool {
	for _, t := range terms {
		if d.TermFreqs[t] <= 0 {
			return false
		}
	}
	return true
}

// fire invokes the callback once per document key.
func (q *PersistentQuery) fire(d DocResult) {
	q.mu.Lock()
	if q.seen[d.Key] {
		q.mu.Unlock()
		return
	}
	q.seen[d.Key] = true
	q.mu.Unlock()
	q.Fn(d)
}

// evaluate runs q's exhaustive search; if only is non-nil, just that peer
// is considered (a targeted re-check after its filter changed).
func (r *Registry) evaluate(q *PersistentQuery, only *directory.PeerID) {
	var peers []directory.PeerID
	var hits []bool
	if only != nil {
		peers = []directory.PeerID{*only}
		hits = probeEach(r.view, peers, q.Terms)
	} else {
		peers, hits = q.q.sweep()
	}
	for _, id := range q.q.candidates(peers, hits) {
		docs, err := r.fetch.QueryPeerAll(id, q.Terms)
		if err != nil {
			continue
		}
		for _, d := range docs {
			q.fire(d)
		}
	}
}
