package core

import (
	"planetp/internal/index"
	"planetp/internal/lru"
	"planetp/internal/metrics"
	"planetp/internal/search"
)

// The ranked-answer memo's bounds (DESIGN §4c).
const (
	// topkMemoAdmit is the posting count below which a ranked query skips
	// the memo, building no key and taking no lock. A miss's key, lookup
	// and put cost about a twentieth of a 256-posting walk; shorter lists
	// are tail words, whose distinct queries rarely repeat and would pay
	// that for nothing.
	topkMemoAdmit = 256
	// topkMemoBudget bounds the memo in kept documents, one more per entry
	// for the entry itself. At k = 10 it holds 186 queries: the head of a
	// Zipf(1.1) mix of 250 distinct queries that carries 96 % of its
	// repeats. A k = 10 entry takes about 1 KiB all told, so a full memo
	// takes about 190 KiB, and one of queries that never repeat holds no
	// more than that for nothing.
	topkMemoBudget = 2048
	// topkMemoMaxCost is the largest entry kept: lru.Put keeps an entry
	// over the budget, so without it one remote query with a huge k could
	// pin a kept copy of the index's best documents.
	topkMemoMaxCost = topkMemoBudget / 16
)

// topkMemo remembers ranked answers so a repeated query resumes its walk
// instead of starting over: an entry is the list a walk kept and the id it
// stopped below, stamped by the index's removal count. Entries are never
// changed once put; a walk that resumes one extends a clone.
type topkMemo struct {
	lru                *lru.Cache[string, uint64, walked]
	hits, misses, rows *metrics.Counter
}

// walked is a memo entry: the list a walk over the ids below end kept.
type walked struct {
	top search.TopK
	end index.DocID
}

func newTopkMemo(reg *metrics.Registry) *topkMemo {
	return &topkMemo{
		lru:    lru.New[string, uint64, walked](topkMemoBudget),
		hits:   reg.Counter("core_topk_memo_hits_total"),
		misses: reg.Counter("core_topk_memo_misses_total"),
		rows:   reg.Counter("core_topk_rows_walked_total"),
	}
}

// localTopK answers a ranked query (DESIGN §4c): equation 2 is scored
// inside the index walk, search.TopK keeps the rq.K best under
// search.InsertTopK's order, and the survivors' rows are the answer. A
// document's key is read only once its score may enter the list.
//
// A query long enough to admit resumes the walk the memo kept for it, if
// no document was removed since: the index only appends, so the kept list
// extended over the ids at or above its end is the list a walk from the
// first id would keep.
func (p *Peer) localTopK(terms []string, rq search.RankQuery) []search.Hit {
	sc := rq.Scorer(terms)
	var (
		top  search.TopK // by value: off the memo, the list header stays on the stack
		key  string
		from index.DocID
		rows int64
	)
	end, removals := p.index.MergeFrom(sc.Terms, func(postings int, removals uint64) index.DocID {
		if postings >= topkMemoAdmit {
			key = sc.Key(rq.K)
			if w, ok, _ := p.topk.lru.Get(key, removals); ok {
				p.topk.hits.Inc()
				top, from = *w.top.Clone(), w.end
				return from
			}
			p.topk.misses.Inc()
		}
		top = *sc.TopK(rq.K)
		return 0
	}, func(r *index.Row) {
		rows++
		if score := sc.Score(r.Freqs, r.DocLen); top.Admits(score) {
			top.Insert(score, r.Key(), r.Freqs, r.DocLen)
		}
	})
	p.topk.rows.Add(rows)
	if cost := int64(top.Len() + 1); key != "" && end != from && cost <= topkMemoMaxCost {
		p.topk.lru.Put(key, removals, walked{top, end}, cost)
	}
	return top.Hits()
}
