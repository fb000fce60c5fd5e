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

// DocID identifies a document within one index. Ids are handed out in
// ascending order and never reused: a removed document leaves a hole.
type DocID uint32

// Posting records one document containing a term. It is eight bytes and
// holds no pointer, so a posting list is one allocation the garbage
// collector does not scan.
type Posting struct {
	Doc  DocID
	Freq uint32 // f_{D,t}: occurrences of the term in the document
}

// termEntry is all the index keeps for one term, behind one map entry.
type termEntry struct {
	list []Posting // sorted by Doc
	freq int       // f_t: collection frequency
}

// Index is a thread-safe inverted index. The zero value is not usable;
// construct with New.
type Index struct {
	mu    sync.RWMutex
	terms map[string]*termEntry
	// Per-document state, indexed by DocID; len is the next id.
	docLen []uint32 // |D|: total term occurrences
	keys   []string // the caller's name for the document ("" if it gave none)
	live   []bool
	nDocs  int // live documents
}

// New returns an empty index.
func New() *Index {
	return &Index{terms: make(map[string]*termEntry)}
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
	return ix.AddKeyedBatch(nil, []map[string]int{freqs})[0]
}

// AddTermFreqsBatch indexes several pre-computed term-frequency maps
// under consecutive fresh DocIDs, taking the index lock once for the
// whole batch. The returned ids are index-aligned with batch.
func (ix *Index) AddTermFreqsBatch(batch []map[string]int) []DocID {
	return ix.AddKeyedBatch(nil, batch)
}

// AddKeyedBatch is AddTermFreqsBatch for a caller that names its
// documents: keys[i] is what a walk's Row.Key reports for batch[i] (nil
// keys: every document is nameless).
func (ix *Index) AddKeyedBatch(keys []string, batch []map[string]int) []DocID {
	ids := make([]DocID, len(batch))
	ix.mu.Lock()
	defer ix.mu.Unlock()
	for i, freqs := range batch {
		key := ""
		if keys != nil {
			key = keys[i]
		}
		ids[i] = ix.insertLocked(key, freqs)
	}
	return ids
}

// insertLocked indexes freqs under the next id. That id is the largest in
// the index, so every posting is appended. Caller holds ix.mu.
func (ix *Index) insertLocked(key string, freqs map[string]int) DocID {
	id := DocID(len(ix.docLen))
	total := 0
	for term, f := range freqs {
		if f <= 0 {
			continue
		}
		e := ix.terms[term]
		if e == nil {
			e = new(termEntry)
			ix.terms[term] = e
		}
		e.list = append(e.list, Posting{Doc: id, Freq: uint32(f)})
		e.freq += f
		total += f
	}
	ix.docLen = append(ix.docLen, uint32(total))
	ix.keys = append(ix.keys, key)
	ix.live = append(ix.live, true)
	ix.nDocs++
	return id
}

// find returns the position of doc id in list and whether it is there.
func find(list []Posting, id DocID) (int, bool) {
	i := sort.Search(len(list), func(i int) bool { return list[i].Doc >= id })
	return i, i < len(list) && list[i].Doc == id
}

// isLive reports whether id names an indexed document. Caller holds ix.mu.
func (ix *Index) isLive(id DocID) bool {
	return int(id) < len(ix.live) && ix.live[id]
}

// RemoveDocument deletes doc id and all its postings. It reports whether
// the document existed.
func (ix *Index) RemoveDocument(id DocID) bool {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if !ix.isLive(id) {
		return false
	}
	ix.live[id], ix.docLen[id], ix.keys[id] = false, 0, ""
	ix.nDocs--
	for term, e := range ix.terms {
		if i, ok := find(e.list, id); ok {
			e.freq -= int(e.list[i].Freq)
			e.list = append(e.list[:i], e.list[i+1:]...)
			if len(e.list) == 0 {
				delete(ix.terms, term)
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
	return ix.listLocked(term)
}

// listLocked returns term's posting list, nil if absent. Caller holds ix.mu.
func (ix *Index) listLocked(term string) []Posting {
	if e := ix.terms[term]; e != nil {
		return e.list
	}
	return nil
}

// Freq returns f_{D,t} for one document, 0 if absent.
func (ix *Index) Freq(id DocID, term string) int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	list := ix.listLocked(term)
	if i, ok := find(list, id); ok {
		return int(list[i].Freq)
	}
	return 0
}

// DocLen returns |D|, the total number of term occurrences in doc id (0
// for an id removed or never handed out).
func (ix *Index) DocLen(id DocID) int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if !ix.isLive(id) {
		return 0
	}
	return int(ix.docLen[id])
}

// NumDocs returns N, the number of documents indexed.
func (ix *Index) NumDocs() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.nDocs
}

// NumTerms returns the vocabulary size.
func (ix *Index) NumTerms() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.terms)
}

// DocFreq returns the number of documents containing term.
func (ix *Index) DocFreq(term string) int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return len(ix.listLocked(term))
}

// CollectionFreq returns f_t, the total occurrences of term across the
// collection (the statistic the paper's IDF formula uses).
func (ix *Index) CollectionFreq(term string) int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if e := ix.terms[term]; e != nil {
		return e.freq
	}
	return 0
}

// Terms returns the sorted vocabulary. The slice is freshly allocated.
func (ix *Index) Terms() []string {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	out := make([]string, 0, len(ix.terms))
	for t := range ix.terms {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// Docs returns the sorted document ids.
func (ix *Index) Docs() []DocID {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	out := make([]DocID, 0, ix.nDocs)
	for id, live := range ix.live {
		if live {
			out = append(out, DocID(id))
		}
	}
	return out
}

// Row is the document a Merge walk is visiting. It is valid only during
// the visit: the walk reuses it, Freqs included, for the next document.
type Row struct {
	ID     DocID
	Freqs  []uint32 // Freqs[i] = f_{D,terms[i]}, 0 where absent
	DocLen int      // |D|
	ix     *Index
}

// Key returns the name the document was added under (AddKeyedBatch),
// read under the walk's lock.
func (r *Row) Key() string { return r.ix.keys[r.ID] }

// Merge walks the posting lists of terms once, document at a time in
// ascending id order, under one read lock: visit sees each document that
// contains at least one term — every term when all is set. visit must not
// call back into the index.
func (ix *Index) Merge(terms []string, all bool, visit func(*Row)) {
	if len(terms) == 0 {
		return
	}
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	lists, pos := make([][]Posting, len(terms)), make([]int, len(terms))
	for i, t := range terms {
		lists[i] = ix.listLocked(t)
	}
	row := Row{Freqs: make([]uint32, len(terms)), ix: ix}
	freqs, docLen := row.Freqs, ix.docLen
	const spent = 1 << 32 // a spent list's head: above every DocID
	for !all {
		// The next document is the smallest head; once every list is
		// spent there is none, and the walk ends.
		next := uint64(spent)
		for i, l := range lists {
			if p := pos[i]; p < len(l) {
				next = min(next, uint64(l[p].Doc))
			}
		}
		if next == spent {
			return
		}
		for i, l := range lists {
			f := uint32(0)
			if p := pos[i]; p < len(l) && uint64(l[p].Doc) == next {
				f = l[p].Freq
				pos[i] = p + 1
			}
			freqs[i] = f
		}
		row.ID, row.DocLen = DocID(next), int(docLen[next])
		visit(&row)
	}
	for {
		// The next candidate is the largest head — no smaller document is
		// in that list — and every list is brought up to it.
		next := DocID(0)
		for i, l := range lists {
			if pos[i] == len(l) {
				return
			}
			next = max(next, l[pos[i]].Doc)
		}
		matched := 0
		for i, l := range lists {
			p := pos[i]
			if l[p].Doc < next {
				j, _ := find(l[p:], next)
				p += j
			}
			if p < len(l) && l[p].Doc == next {
				freqs[i] = l[p].Freq
				p++
				matched++
			}
			pos[i] = p
		}
		if matched == len(lists) {
			row.ID, row.DocLen = next, int(docLen[next])
			visit(&row)
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
	ix.Merge(terms, all, func(r *Row) { out = append(out, r.ID) })
	return out
}

// DocTerms returns the sorted distinct terms of document id (empty if the
// document is unknown). It scans the vocabulary, so it is meant for
// infrequent operations such as unpublishing.
func (ix *Index) DocTerms(id DocID) []string {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if !ix.isLive(id) {
		return nil
	}
	var out []string
	for term, e := range ix.terms {
		if _, ok := find(e.list, id); ok {
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
	for _, e := range ix.terms {
		n += len(e.list)
	}
	return Stats{Docs: ix.nDocs, Terms: len(ix.terms), Postings: n}
}

// String implements fmt.Stringer.
func (s Stats) String() string {
	return fmt.Sprintf("docs=%d terms=%d postings=%d", s.Docs, s.Terms, s.Postings)
}
