package index

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
)

func TestAddAndLookup(t *testing.T) {
	ix := New()
	d1 := ix.AddDocument("gossip protocols replicate directories")
	d2 := ix.AddDocument("gossip spreads rumors")
	if d1 == d2 {
		t.Fatal("doc ids must be distinct")
	}
	post := ix.Lookup("gossip")
	if len(post) != 2 {
		t.Fatalf("gossip postings = %v, want 2 entries", post)
	}
	if post[0].Doc != d1 || post[1].Doc != d2 {
		t.Fatalf("postings not sorted by doc: %v", post)
	}
}

func TestTermFrequencies(t *testing.T) {
	ix := New()
	d := ix.AddTermFreqs(map[string]int{"alpha": 3, "beta": 1})
	if got := ix.Freq(d, "alpha"); got != 3 {
		t.Errorf("Freq(alpha) = %d, want 3", got)
	}
	if got := ix.Freq(d, "gamma"); got != 0 {
		t.Errorf("Freq(gamma) = %d, want 0", got)
	}
	if got := ix.DocLen(d); got != 4 {
		t.Errorf("DocLen = %d, want 4", got)
	}
	if got := ix.CollectionFreq("alpha"); got != 3 {
		t.Errorf("CollectionFreq(alpha) = %d, want 3", got)
	}
}

func TestZeroAndNegativeFreqsIgnored(t *testing.T) {
	ix := New()
	d := ix.AddTermFreqs(map[string]int{"ok": 1, "zero": 0, "neg": -5})
	if ix.Freq(d, "zero") != 0 || ix.Freq(d, "neg") != 0 {
		t.Fatal("zero/negative freqs should be ignored")
	}
	if ix.NumTerms() != 1 {
		t.Fatalf("NumTerms = %d, want 1", ix.NumTerms())
	}
}

func TestRemoveDocument(t *testing.T) {
	ix := New()
	d1 := ix.AddTermFreqs(map[string]int{"shared": 1, "only1": 2})
	d2 := ix.AddTermFreqs(map[string]int{"shared": 4})
	if !ix.RemoveDocument(d1) {
		t.Fatal("remove existing doc failed")
	}
	if ix.RemoveDocument(d1) {
		t.Fatal("double remove should report false")
	}
	if ix.DocFreq("only1") != 0 {
		t.Error("only1 should be gone")
	}
	if ix.DocFreq("shared") != 1 {
		t.Errorf("shared DocFreq = %d, want 1", ix.DocFreq("shared"))
	}
	if ix.CollectionFreq("shared") != 4 {
		t.Errorf("shared CollectionFreq = %d, want 4", ix.CollectionFreq("shared"))
	}
	if ix.NumDocs() != 1 || ix.DocLen(d2) != 4 {
		t.Error("surviving doc corrupted")
	}
}

func TestSearchAll(t *testing.T) {
	ix := New()
	d1 := ix.AddTermFreqs(map[string]int{"bloom": 1, "filter": 1})
	d2 := ix.AddTermFreqs(map[string]int{"bloom": 1})
	d3 := ix.AddTermFreqs(map[string]int{"filter": 1, "bloom": 2, "gossip": 1})
	got := ix.SearchAll([]string{"bloom", "filter"})
	want := []DocID{d1, d3}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("SearchAll = %v, want %v", got, want)
	}
	if got := ix.SearchAll([]string{"bloom", "missing"}); got != nil {
		t.Fatalf("conjunction with absent term = %v, want nil", got)
	}
	if got := ix.SearchAll(nil); got != nil {
		t.Fatalf("empty query = %v, want nil", got)
	}
	_ = d2
}

func TestSearchAny(t *testing.T) {
	ix := New()
	d1 := ix.AddTermFreqs(map[string]int{"bloom": 1})
	d2 := ix.AddTermFreqs(map[string]int{"gossip": 1})
	ix.AddTermFreqs(map[string]int{"other": 1})
	got := ix.SearchAny([]string{"bloom", "gossip"})
	want := []DocID{d1, d2}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("SearchAny = %v, want %v", got, want)
	}
}

func TestTermsSortedAndDocs(t *testing.T) {
	ix := New()
	ix.AddTermFreqs(map[string]int{"zeta": 1, "alpha": 1, "mid": 1})
	terms := ix.Terms()
	want := []string{"alpha", "mid", "zeta"}
	if !reflect.DeepEqual(terms, want) {
		t.Fatalf("Terms = %v, want %v", terms, want)
	}
	if len(ix.Docs()) != 1 {
		t.Fatalf("Docs = %v", ix.Docs())
	}
}

func TestStats(t *testing.T) {
	ix := New()
	ix.AddTermFreqs(map[string]int{"a": 1, "b": 1})
	ix.AddTermFreqs(map[string]int{"b": 2, "c": 3})
	s := ix.Stats()
	if s.Docs != 2 || s.Terms != 3 || s.Postings != 4 {
		t.Fatalf("Stats = %+v", s)
	}
	if s.String() == "" {
		t.Fatal("empty String()")
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
				ix.AddTermFreqs(map[string]int{fmt.Sprintf("t%d", i%10): 1})
				ix.Lookup(fmt.Sprintf("t%d", i%10))
				ix.Stats()
			}
		}(g)
	}
	wg.Wait()
	if ix.NumDocs() != 800 {
		t.Fatalf("NumDocs = %d, want 800", ix.NumDocs())
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
			specs = append(specs, docSpec{ix.AddTermFreqs(freqs), freqs})
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

// Property: SearchAll results always contain every query term.
func TestQuickSearchAllSound(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ix := New()
	for d := 0; d < 200; d++ {
		freqs := map[string]int{}
		for j := 0; j < 5+rng.Intn(10); j++ {
			freqs[fmt.Sprintf("w%d", rng.Intn(50))]++
		}
		ix.AddTermFreqs(freqs)
	}
	for trial := 0; trial < 100; trial++ {
		q := []string{
			fmt.Sprintf("w%d", rng.Intn(50)),
			fmt.Sprintf("w%d", rng.Intn(50)),
		}
		for _, d := range ix.SearchAll(q) {
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
			for _, id := range ix.Docs() {
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
		ix.AddTermFreqs(freqs)
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

func BenchmarkLookup(b *testing.B) {
	ix := New()
	rng := rand.New(rand.NewSource(5))
	for d := 0; d < 5000; d++ {
		freqs := map[string]int{}
		for j := 0; j < 20; j++ {
			freqs[fmt.Sprintf("w%d", rng.Intn(2000))]++
		}
		ix.AddTermFreqs(freqs)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ix.Lookup(fmt.Sprintf("w%d", i%2000))
	}
}

// AddTermFreqsBatch must behave exactly like a sequence of AddTermFreqs
// calls: same ids, same statistics.
func TestAddTermFreqsBatch(t *testing.T) {
	batch := []map[string]int{
		{"gossip": 2, "peer": 1},
		{"bloom": 3},
		{"gossip": 1, "filter": 4},
	}
	seq := New()
	var wantIDs []DocID
	for _, f := range batch {
		wantIDs = append(wantIDs, seq.AddTermFreqs(f))
	}
	got := New()
	ids := got.AddTermFreqsBatch(batch)
	if !reflect.DeepEqual(ids, wantIDs) {
		t.Fatalf("batch ids %v, want %v", ids, wantIDs)
	}
	if got.Stats() != seq.Stats() {
		t.Fatalf("batch stats %v, want %v", got.Stats(), seq.Stats())
	}
	for _, term := range []string{"gossip", "peer", "bloom", "filter"} {
		if !reflect.DeepEqual(got.Lookup(term), seq.Lookup(term)) {
			t.Fatalf("postings for %q diverge: %v vs %v", term, got.Lookup(term), seq.Lookup(term))
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
	next := ix.AddTermFreqs(map[string]int{"shared": 5})
	if next != ids[2]+1 {
		t.Fatalf("id after removes = %d, want %d: ids are never reused", next, ids[2]+1)
	}
	for _, id := range []DocID{ids[1], ids[2], 99} {
		if ix.DocLen(id) != 0 || ix.Freq(id, "shared") != 0 || ix.DocTerms(id) != nil {
			t.Errorf("id %d: DocLen %d Freq %d DocTerms %v, want an absent document",
				id, ix.DocLen(id), ix.Freq(id, "shared"), ix.DocTerms(id))
		}
	}
	if got, want := ix.Docs(), []DocID{ids[0], next}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Docs() = %v, want %v", got, want)
	}
	if got, want := ix.Stats(), (Stats{Docs: 2, Terms: 2, Postings: 3}); got != want || ix.NumDocs() != 2 {
		t.Fatalf("Stats() = %v, NumDocs() = %d, want %v", got, ix.NumDocs(), want)
	}
	if got := ix.CollectionFreq("shared"); got != 7 {
		t.Fatalf("CollectionFreq(shared) = %d after removes, want 7", got)
	}
	var keys []string
	ix.Merge([]string{"shared"}, false, func(r *Row) { keys = append(keys, r.Key()) })
	if want := []string{"a", ""}; !reflect.DeepEqual(keys, want) {
		t.Fatalf("walk names %q, want %q", keys, want)
	}
}
