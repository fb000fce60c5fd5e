package index

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
	"testing/quick"
)

// add indexes one document.
func add(ix *Index, freqs map[string]int) DocID {
	return ix.AddTermFreqsBatch([]map[string]int{freqs})[0]
}

// lookup is term's posting list, read off a one-term walk.
func lookup(ix *Index, term string) []Posting {
	var out []Posting
	ix.Merge([]string{term}, false, func(r *Row) { out = append(out, Posting{Doc: r.ID, Freq: r.Freqs[0]}) })
	return out
}

// searchAll is the conjunctive walk's documents.
func searchAll(ix *Index, terms []string) []DocID {
	var out []DocID
	ix.Merge(terms, true, func(r *Row) { out = append(out, r.ID) })
	return out
}

// shape counts what the index holds: the documents with a posting, the
// vocabulary and the postings.
type shape struct{ docs, terms, postings int }

func shapeOf(ix *Index) shape {
	vocab := ix.Terms()
	s := shape{terms: len(vocab)}
	ix.Merge(vocab, false, func(r *Row) {
		s.docs++
		for _, f := range r.Freqs {
			if f > 0 {
				s.postings++
			}
		}
	})
	return s
}

func TestAddAndLookup(t *testing.T) {
	ix := New()
	d1 := add(ix, map[string]int{"gossip": 1, "protocol": 1, "replic": 1, "directori": 1})
	d2 := add(ix, map[string]int{"gossip": 1, "spread": 1, "rumor": 1})
	if d1 == d2 {
		t.Fatal("doc ids must be distinct")
	}
	post := lookup(ix, "gossip")
	if len(post) != 2 {
		t.Fatalf("gossip postings = %v, want 2 entries", post)
	}
	if post[0].Doc != d1 || post[1].Doc != d2 {
		t.Fatalf("postings not sorted by doc: %v", post)
	}
}

func TestTermFrequencies(t *testing.T) {
	ix := New()
	d := add(ix, map[string]int{"alpha": 3, "beta": 1})
	if got := ix.Freq(d, "alpha"); got != 3 {
		t.Errorf("Freq(alpha) = %d, want 3", got)
	}
	if got := ix.Freq(d, "gamma"); got != 0 {
		t.Errorf("Freq(gamma) = %d, want 0", got)
	}
	if got := ix.DocLen(d); got != 4 {
		t.Errorf("DocLen = %d, want 4", got)
	}
}

func TestZeroAndNegativeFreqsIgnored(t *testing.T) {
	ix := New()
	d := add(ix, map[string]int{"ok": 1, "zero": 0, "neg": -5})
	if ix.Freq(d, "zero") != 0 || ix.Freq(d, "neg") != 0 {
		t.Fatal("zero/negative freqs should be ignored")
	}
	if got := ix.Terms(); !reflect.DeepEqual(got, []string{"ok"}) {
		t.Fatalf("Terms = %v, want [ok]", got)
	}
}

func TestRemoveDocument(t *testing.T) {
	ix := New()
	d1 := add(ix, map[string]int{"shared": 1, "only1": 2})
	d2 := add(ix, map[string]int{"shared": 4})
	if !ix.RemoveDocument(d1) {
		t.Fatal("remove existing doc failed")
	}
	if ix.RemoveDocument(d1) {
		t.Fatal("double remove should report false")
	}
	if got := lookup(ix, "only1"); got != nil {
		t.Errorf("only1 postings = %v, want none", got)
	}
	if got := lookup(ix, "shared"); !reflect.DeepEqual(got, []Posting{{Doc: d2, Freq: 4}}) {
		t.Errorf("shared postings = %v, want only doc %d's", got, d2)
	}
	if got := ix.Terms(); !reflect.DeepEqual(got, []string{"shared"}) {
		t.Errorf("Terms = %v, want [shared]", got)
	}
	if ix.DocLen(d2) != 4 {
		t.Error("surviving doc corrupted")
	}
}

func TestSearchAll(t *testing.T) {
	ix := New()
	d1 := add(ix, map[string]int{"bloom": 1, "filter": 1})
	add(ix, map[string]int{"bloom": 1})
	d3 := add(ix, map[string]int{"filter": 1, "bloom": 2, "gossip": 1})
	got := searchAll(ix, []string{"bloom", "filter"})
	want := []DocID{d1, d3}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("conjunctive walk = %v, want %v", got, want)
	}
	if got := searchAll(ix, []string{"bloom", "missing"}); got != nil {
		t.Fatalf("conjunction with absent term = %v, want nil", got)
	}
	if got := searchAll(ix, nil); got != nil {
		t.Fatalf("empty query = %v, want nil", got)
	}
}

func TestSearchAny(t *testing.T) {
	ix := New()
	d1 := add(ix, map[string]int{"bloom": 1})
	d2 := add(ix, map[string]int{"gossip": 1})
	add(ix, map[string]int{"other": 1})
	got := ix.SearchAny([]string{"bloom", "gossip"})
	want := []DocID{d1, d2}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("SearchAny = %v, want %v", got, want)
	}
}

func TestTermsSortedAndDocs(t *testing.T) {
	ix := New()
	d := add(ix, map[string]int{"zeta": 1, "alpha": 1, "mid": 1})
	terms := ix.Terms()
	want := []string{"alpha", "mid", "zeta"}
	if !reflect.DeepEqual(terms, want) {
		t.Fatalf("Terms = %v, want %v", terms, want)
	}
	if got := ix.SearchAny(terms); !reflect.DeepEqual(got, []DocID{d}) {
		t.Fatalf("documents = %v, want [%d]", got, d)
	}
}

// The collection's statistics, as the walk reports them: documents, terms
// and postings.
func TestStats(t *testing.T) {
	ix := New()
	add(ix, map[string]int{"a": 1, "b": 1})
	add(ix, map[string]int{"b": 2, "c": 3})
	if s := shapeOf(ix); s != (shape{docs: 2, terms: 3, postings: 4}) {
		t.Fatalf("shape = %+v", s)
	}
}

func TestConcurrentAccess(t *testing.T) {
	ix := New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				add(ix, map[string]int{fmt.Sprintf("t%d", i%10): 1})
				lookup(ix, fmt.Sprintf("t%d", i%10))
				ix.Terms()
			}
		}(g)
	}
	wg.Wait()
	if s := shapeOf(ix); s.docs != 800 {
		t.Fatalf("%d documents, want 800", s.docs)
	}
}

// Property: for any set of documents, every (doc, term, freq) inserted is
// recoverable and DocLen equals the sum of its term freqs.
func TestQuickInvariants(t *testing.T) {
	f := func(docsRaw [][]uint8) bool {
		ix := New()
		type docSpec struct {
			id    DocID
			freqs map[string]int
		}
		var specs []docSpec
		for _, raw := range docsRaw {
			freqs := map[string]int{}
			for _, b := range raw {
				freqs[fmt.Sprintf("term%d", b%30)]++
			}
			specs = append(specs, docSpec{add(ix, freqs), freqs})
		}
		for _, s := range specs {
			total := 0
			for term, f := range s.freqs {
				if ix.Freq(s.id, term) != f {
					return false
				}
				total += f
			}
			if ix.DocLen(s.id) != total {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: a conjunctive walk's documents always contain every query term.
func TestQuickSearchAllSound(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ix := New()
	for d := 0; d < 200; d++ {
		freqs := map[string]int{}
		for j := 0; j < 5+rng.Intn(10); j++ {
			freqs[fmt.Sprintf("w%d", rng.Intn(50))]++
		}
		add(ix, freqs)
	}
	for trial := 0; trial < 100; trial++ {
		q := []string{
			fmt.Sprintf("w%d", rng.Intn(50)),
			fmt.Sprintf("w%d", rng.Intn(50)),
		}
		for _, d := range searchAll(ix, q) {
			for _, term := range q {
				if ix.Freq(d, term) == 0 {
					t.Fatalf("doc %d missing term %q", d, term)
				}
			}
		}
	}
}

// Merge visits exactly the documents a scan of every document finds, in
// ascending id order, with the frequencies Freq reports, the length
// DocLen reports and the key each was added under — for either mode, with
// missing and repeated terms and documents removed.
func TestMergeMatchesDocumentScan(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	ix := New()
	for d := 0; d < 300; d++ {
		freqs := map[string]int{"head": 1 + rng.Intn(3)}
		for j := 0; j < rng.Intn(6); j++ {
			freqs[fmt.Sprintf("w%d", rng.Intn(12))]++
		}
		ix.AddKeyedBatch([]string{fmt.Sprint("doc-", d)}, []map[string]int{freqs})
	}
	for d := DocID(0); d < 300; d += 7 {
		ix.RemoveDocument(d)
	}
	type row struct {
		id     DocID
		freqs  []int
		docLen int
	}
	for trial := 0; trial < 200; trial++ {
		terms := make([]string, 1+rng.Intn(4))
		for i := range terms {
			terms[i] = []string{"head", "absent", fmt.Sprintf("w%d", rng.Intn(12))}[rng.Intn(3)]
		}
		for _, all := range []bool{false, true} {
			var want []row
			for _, id := range ix.SearchAny([]string{"head"}) { // every live document
				r, n := row{id, make([]int, len(terms)), ix.DocLen(id)}, 0
				for i, term := range terms {
					if r.freqs[i] = ix.Freq(id, term); r.freqs[i] > 0 {
						n++
					}
				}
				if n == len(terms) || !all && n > 0 {
					want = append(want, r)
				}
			}
			var got []row
			ix.Merge(terms, all, func(r *Row) {
				freqs := make([]int, len(r.Freqs))
				for i, f := range r.Freqs {
					freqs[i] = int(f)
				}
				got = append(got, row{r.ID, freqs, r.DocLen})
				if want := fmt.Sprint("doc-", r.ID); r.Key() != want {
					t.Fatalf("doc %d walks as %q, want %q", r.ID, r.Key(), want)
				}
			})
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("terms %v all=%v: Merge visited\n%v\nwant\n%v", terms, all, got, want)
			}
		}
	}
	ix.Merge(nil, true, func(*Row) { t.Fatal("a query without terms matched") })
}

func BenchmarkAddTermFreqs1000Keys(b *testing.B) {
	freqs := map[string]int{}
	for i := 0; i < 1000; i++ {
		freqs[fmt.Sprintf("key-%d", i)] = 1 + i%5
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ix := New()
		add(ix, freqs)
	}
}

// A publish_durable batch landing on a loaded peer: 16 documents of 25
// Zipf-drawn words into an index of 4000 (rebuilt, off the clock, before
// it doubles).
func BenchmarkIndexAddBatch(b *testing.B) {
	zipf := rand.NewZipf(rand.New(rand.NewSource(9)), 1.1, 1, 19999)
	docs := make([]map[string]int, 4000+64*16)
	for i := range docs {
		docs[i] = map[string]int{fmt.Sprint("id", i): 1}
		for j := 0; j < 24; j++ {
			docs[i][fmt.Sprint("w", zipf.Uint64())]++
		}
	}
	var ix *Index
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%250 == 0 {
			b.StopTimer()
			ix = New()
			ix.AddTermFreqsBatch(docs[:4000])
			b.StartTimer()
		}
		batch := 4000 + i%64*16
		ix.AddTermFreqsBatch(docs[batch : batch+16])
	}
}

// A one-term walk over 5000 documents: the node's lookup of one query term.
func BenchmarkLookup(b *testing.B) {
	ix := New()
	rng := rand.New(rand.NewSource(5))
	for d := 0; d < 5000; d++ {
		freqs := map[string]int{}
		for j := 0; j < 20; j++ {
			freqs[fmt.Sprintf("w%d", rng.Intn(2000))]++
		}
		add(ix, freqs)
	}
	terms := make([][]string, 2000)
	for i := range terms {
		terms[i] = []string{fmt.Sprintf("w%d", i)}
	}
	n := 0
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ix.Merge(terms[i%2000], false, func(r *Row) { n += r.DocLen })
	}
}

// AddTermFreqsBatch must behave exactly like a sequence of one-document
// batches: same ids, same statistics.
func TestAddTermFreqsBatch(t *testing.T) {
	batch := []map[string]int{
		{"gossip": 2, "peer": 1},
		{"bloom": 3},
		{"gossip": 1, "filter": 4},
	}
	seq := New()
	var wantIDs []DocID
	for _, f := range batch {
		wantIDs = append(wantIDs, add(seq, f))
	}
	got := New()
	ids := got.AddTermFreqsBatch(batch)
	if !reflect.DeepEqual(ids, wantIDs) {
		t.Fatalf("batch ids %v, want %v", ids, wantIDs)
	}
	if shapeOf(got) != shapeOf(seq) {
		t.Fatalf("batch shape %+v, want %+v", shapeOf(got), shapeOf(seq))
	}
	for _, term := range []string{"gossip", "peer", "bloom", "filter"} {
		if !reflect.DeepEqual(lookup(got, term), lookup(seq, term)) {
			t.Fatalf("postings for %q diverge: %v vs %v", term, lookup(got, term), lookup(seq, term))
		}
	}
	for _, id := range ids {
		if got.DocLen(id) != seq.DocLen(id) {
			t.Fatalf("doc %d length diverges", id)
		}
	}
	// Batch after batch keeps ids consecutive.
	more := got.AddTermFreqsBatch([]map[string]int{{"tail": 1}})
	if more[0] != ids[len(ids)-1]+1 {
		t.Fatalf("ids not consecutive across batches: %d after %d", more[0], ids[len(ids)-1])
	}
}

// Ids are handed out in ascending order and a removed document's id is
// never given to another: what the per-document slices and the append-only
// insert rest on. A removed or never-seen id reads as an absent document,
// and the counts follow the live set.
func TestIDsNeverReusedAndRemovedReadEmpty(t *testing.T) {
	ix := New()
	ids := ix.AddKeyedBatch([]string{"a", "b", "c"}, []map[string]int{
		{"shared": 2, "a": 1}, {"shared": 1}, {"shared": 3, "c": 4},
	})
	if !ix.RemoveDocument(ids[1]) || !ix.RemoveDocument(ids[2]) {
		t.Fatal("remove failed")
	}
	if ix.RemoveDocument(ids[2]) || ix.RemoveDocument(99) {
		t.Fatal("removed a document twice, or one never added")
	}
	next := add(ix, map[string]int{"shared": 5})
	if next != ids[2]+1 {
		t.Fatalf("id after removes = %d, want %d: ids are never reused", next, ids[2]+1)
	}
	for _, id := range []DocID{ids[1], ids[2], 99} {
		if ix.DocLen(id) != 0 || ix.Freq(id, "shared") != 0 || ix.Freq(id, "c") != 0 {
			t.Errorf("id %d: DocLen %d Freq %d, want an absent document", id, ix.DocLen(id), ix.Freq(id, "shared"))
		}
	}
	if got, want := ix.SearchAny(ix.Terms()), []DocID{ids[0], next}; !reflect.DeepEqual(got, want) {
		t.Fatalf("documents = %v, want %v", got, want)
	}
	if got, want := shapeOf(ix), (shape{docs: 2, terms: 2, postings: 3}); got != want {
		t.Fatalf("shape = %+v, want %+v", got, want)
	}
	var keys []string
	ix.Merge([]string{"shared"}, false, func(r *Row) { keys = append(keys, r.Key()) })
	if want := []string{"a", ""}; !reflect.DeepEqual(keys, want) {
		t.Fatalf("walk names %q, want %q", keys, want)
	}
}

// TestMergeFromResumes: MergeFrom hands start the lists' total length and
// the removal count, visits exactly the ids at or above what start returns
// in Merge's order, and reports the next id and the count it read; only a
// removal moves the count.
func TestMergeFromResumes(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	ix := New()
	for d := 0; d < 200; d++ {
		add(ix, map[string]int{fmt.Sprintf("w%d", rng.Intn(4)): 1 + rng.Intn(3), "head": 1})
	}
	ix.RemoveDocument(5)
	ix.RemoveDocument(5) // not live: not counted
	ix.RemoveDocument(77)
	terms := []string{"absent", "head", "w1"}
	var all []DocID
	ix.Merge(terms, false, func(r *Row) { all = append(all, r.ID) })
	for _, from := range []DocID{0, 1, 5, 6, 100, 199, 200, 1000} {
		var got []DocID
		next, removals := ix.MergeFrom(terms, func(postings int, removals uint64) DocID {
			if want := len(lookup(ix, "head")) + len(lookup(ix, "w1")); postings != want || removals != 2 {
				t.Fatalf("start sees %d postings and %d removals, want %d and 2", postings, removals, want)
			}
			return from
		}, func(r *Row) { got = append(got, r.ID) })
		i, _ := slices.BinarySearch(all, from)
		if want := all[i:]; !slices.Equal(got, want) {
			t.Fatalf("from %d: visited %v, want %v", from, got, want)
		}
		if next != 200 || removals != 2 {
			t.Fatalf("from %d: next %d removals %d, want 200 and 2", from, next, removals)
		}
	}
	add(ix, map[string]int{"head": 1})
	if next, removals := ix.MergeFrom(nil, func(int, uint64) DocID { return 0 }, func(*Row) {
		t.Fatal("a query without terms matched")
	}); next != 201 || removals != 2 {
		t.Fatalf("after an add: next %d removals %d, want 201 and 2", next, removals)
	}
}
