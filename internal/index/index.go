// Package index implements the per-peer inverted index PlanetP maintains
// over its local data store (Section 2). The index maps terms to postings
// (document id, term frequency) and tracks the per-document statistics the
// vector-space ranker needs: |D| (the number of terms in each document) and
// f_{D,t} (occurrences of t in D).
//
// The same structure, instantiated once over the whole collection, is the
// "optimistic" global index the paper's TFxIDF baseline assumes every peer
// has (Section 7.3).
package index

import (
	"fmt"
	"sort"
	"sync"

	"planetp/internal/text"
)

// DocID identifies a document within one index.
type DocID uint32

// Posting records one document containing a term.
type Posting struct {
	Doc  DocID
	Freq int // f_{D,t}: occurrences of the term in the document
}

// Index is a thread-safe inverted index. The zero value is not usable;
// construct with New.
type Index struct {
	mu       sync.RWMutex
	postings map[string][]Posting // term -> postings, sorted by Doc
	docLen   map[DocID]int        // |D|: total term occurrences per doc
	docs     map[DocID]bool
	nextID   DocID
	totFreq  map[string]int // f_t: collection frequency per term
}

// New returns an empty index.
func New() *Index {
	return &Index{
		postings: make(map[string][]Posting),
		docLen:   make(map[DocID]int),
		docs:     make(map[DocID]bool),
		totFreq:  make(map[string]int),
	}
}

// AddDocument runs the text pipeline over content, assigns a fresh DocID,
// and indexes the resulting terms.
func (ix *Index) AddDocument(content string) DocID {
	return ix.AddTermFreqs(text.TermFreqs(content))
}

// AddTermFreqs indexes a pre-computed term-frequency map under a fresh
// DocID. It is the entry point for callers that tokenize themselves (the
// synthetic collection generator, for instance).
func (ix *Index) AddTermFreqs(freqs map[string]int) DocID {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	id := ix.nextID
	ix.nextID++
	ix.docs[id] = true
	ix.insertLocked(id, freqs)
	return id
}

// AddTermFreqsBatch indexes several pre-computed term-frequency maps
// under consecutive fresh DocIDs, taking the index lock once for the
// whole batch. The returned ids are index-aligned with batch.
func (ix *Index) AddTermFreqsBatch(batch []map[string]int) []DocID {
	ids := make([]DocID, len(batch))
	ix.mu.Lock()
	defer ix.mu.Unlock()
	for i, freqs := range batch {
		id := ix.nextID
		ix.nextID++
		ix.docs[id] = true
		ix.insertLocked(id, freqs)
		ids[i] = id
	}
	return ids
}

// insertLocked adds freqs for doc id. Caller holds ix.mu.
func (ix *Index) insertLocked(id DocID, freqs map[string]int) {
	total := 0
	for term, f := range freqs {
		if f <= 0 {
			continue
		}
		ix.postings[term] = insertPosting(ix.postings[term], Posting{Doc: id, Freq: f})
		ix.totFreq[term] += f
		total += f
	}
	ix.docLen[id] += total
}

// insertPosting inserts p into the Doc-sorted list, merging on equal Doc.
func insertPosting(list []Posting, p Posting) []Posting {
	i := sort.Search(len(list), func(i int) bool { return list[i].Doc >= p.Doc })
	if i < len(list) && list[i].Doc == p.Doc {
		list[i].Freq += p.Freq
		return list
	}
	list = append(list, Posting{})
	copy(list[i+1:], list[i:])
	list[i] = p
	return list
}

// RemoveDocument deletes doc id and all its postings. It reports whether
// the document existed.
func (ix *Index) RemoveDocument(id DocID) bool {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if !ix.docs[id] {
		return false
	}
	delete(ix.docs, id)
	delete(ix.docLen, id)
	for term, list := range ix.postings {
		i := sort.Search(len(list), func(i int) bool { return list[i].Doc >= id })
		if i < len(list) && list[i].Doc == id {
			ix.totFreq[term] -= list[i].Freq
			list = append(list[:i], list[i+1:]...)
			if len(list) == 0 {
				delete(ix.postings, term)
				delete(ix.totFreq, term)
			} else {
				ix.postings[term] = list
			}
		}
	}
	return true
}

// Lookup returns the postings for term (nil if absent). The returned slice
// must not be modified.
func (ix *Index) Lookup(term string) []Posting {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.postings[term]
}

// Freq returns f_{D,t} for one document, 0 if absent.
func (ix *Index) Freq(id DocID, term string) int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	list := ix.postings[term]
	i := sort.Search(len(list), func(i int) bool { return list[i].Doc >= id })
	if i < len(list) && list[i].Doc == id {
		return list[i].Freq
	}
	return 0
}

// DocLen returns |D|, the total number of term occurrences in doc id.
func (ix *Index) DocLen(id DocID) int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.docLen[id]
}

// NumDocs returns N, the number of documents indexed.
func (ix *Index) NumDocs() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.docs)
}

// NumTerms returns the vocabulary size.
func (ix *Index) NumTerms() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.postings)
}

// DocFreq returns the number of documents containing term.
func (ix *Index) DocFreq(term string) int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.postings[term])
}

// CollectionFreq returns f_t, the total occurrences of term across the
// collection (the statistic the paper's IDF formula uses).
func (ix *Index) CollectionFreq(term string) int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.totFreq[term]
}

// Terms returns the sorted vocabulary. The slice is freshly allocated.
func (ix *Index) Terms() []string {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	out := make([]string, 0, len(ix.postings))
	for t := range ix.postings {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// Docs returns the sorted document ids.
func (ix *Index) Docs() []DocID {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	out := make([]DocID, 0, len(ix.docs))
	for d := range ix.docs {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Merge walks the posting lists of terms once, document at a time in
// ascending id order, under one read lock: visit sees each document that
// contains at least one term — every term when all is set — with
// freqs[i] = f_{D,terms[i]} (0 where absent) and |D|. freqs is reused
// between calls, and visit must not call back into the index.
func (ix *Index) Merge(terms []string, all bool, visit func(id DocID, freqs []int, docLen int)) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	lists := make([][]Posting, len(terms))
	for i, t := range terms {
		lists[i] = ix.postings[t]
	}
	freqs := make([]int, len(terms))
	for {
		// The next candidate is the smallest head; when every term must
		// match, the largest — no smaller document is in that list.
		var next DocID
		found := false
		for _, l := range lists {
			if len(l) == 0 {
				if all {
					return
				}
				continue
			}
			if d := l[0].Doc; !found || (all && d > next) || (!all && d < next) {
				next, found = d, true
			}
		}
		if !found {
			return
		}
		matched := 0
		for i, l := range lists {
			if all && l[0].Doc < next {
				l = l[sort.Search(len(l), func(j int) bool { return l[j].Doc >= next }):]
			}
			freqs[i] = 0
			if len(l) > 0 && l[0].Doc == next {
				freqs[i], l = l[0].Freq, l[1:]
				matched++
			}
			lists[i] = l
		}
		if matched == len(lists) || !all {
			visit(next, freqs, ix.docLen[next])
		}
	}
}

// SearchAll returns the ids of documents containing every query term
// (conjunctive/exhaustive semantics, Section 5.1), in ascending order.
func (ix *Index) SearchAll(terms []string) []DocID {
	return ix.search(terms, true)
}

// SearchAny returns ids of documents containing at least one query term,
// in ascending order.
func (ix *Index) SearchAny(terms []string) []DocID {
	return ix.search(terms, false)
}

func (ix *Index) search(terms []string, all bool) []DocID {
	var out []DocID
	ix.Merge(terms, all, func(id DocID, _ []int, _ int) { out = append(out, id) })
	return out
}

// DocTerms returns the sorted distinct terms of document id (empty if the
// document is unknown). It scans the vocabulary, so it is meant for
// infrequent operations such as unpublishing.
func (ix *Index) DocTerms(id DocID) []string {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if !ix.docs[id] {
		return nil
	}
	var out []string
	for term, list := range ix.postings {
		i := sort.Search(len(list), func(i int) bool { return list[i].Doc >= id })
		if i < len(list) && list[i].Doc == id {
			out = append(out, term)
		}
	}
	sort.Strings(out)
	return out
}

// Stats summarizes an index for logging and the Table 3 report.
type Stats struct {
	Docs     int
	Terms    int
	Postings int
}

// Stats returns collection statistics.
func (ix *Index) Stats() Stats {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	n := 0
	for _, list := range ix.postings {
		n += len(list)
	}
	return Stats{Docs: len(ix.docs), Terms: len(ix.postings), Postings: n}
}

// String implements fmt.Stringer.
func (s Stats) String() string {
	return fmt.Sprintf("docs=%d terms=%d postings=%d", s.Docs, s.Terms, s.Postings)
}
