package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"planetp/internal/index"
	"planetp/internal/replica"
	"planetp/internal/search"
	"planetp/internal/store"
)

// refColumns are a ranked answer's columns: the distinct terms the header
// weighs, sorted.
func refColumns(terms []string, rq search.RankQuery) []string {
	cols := slices.Clone(terms[:min(len(terms), len(rq.Nt))])
	slices.Sort(cols)
	return slices.Compact(cols)
}

// refIPF is equation 1 for each term the header weighs; a repeated term
// weighs what its first occurrence does.
func refIPF(terms []string, rq search.RankQuery) map[string]float64 {
	ipf := map[string]float64{}
	for i := min(len(terms), len(rq.Nt)) - 1; i >= 0; i-- {
		ipf[terms[i]] = 0
		if rq.N > 0 && rq.Nt[i] > 0 {
			ipf[terms[i]] = math.Log(1 + float64(rq.N)/float64(rq.Nt[i]))
		}
	}
	return ipf
}

// refScore is equation 2 over a row, straight from the formula and summed
// in column order: the bits the kernel's table and column walk must give.
func refScore(cols []string, freqs []uint32, docLen int, ipf map[string]float64) float64 {
	sum := 0.0
	for i, t := range cols {
		if f := freqs[i]; f > 0 {
			sum += float64((1 + math.Log(float64(f))) * ipf[t])
		}
	}
	if docLen <= 0 {
		return 0
	}
	return sum / math.Sqrt(float64(docLen))
}

// refTopK is the reference ranked answer: every document of the full list
// as a row, scored by refScore, sorted by (score descending, key
// ascending), cut to k.
func refTopK(full []search.DocResult, terms []string, rq search.RankQuery) []search.Hit {
	cols, ipf := refColumns(terms, rq), refIPF(terms, rq)
	hits := make([]search.Hit, len(full))
	scores := map[string]float64{}
	for i, d := range full {
		freqs := make([]uint32, len(cols))
		for j, t := range cols {
			freqs[j] = uint32(d.TermFreqs[t])
		}
		hits[i] = search.Hit{Key: d.Key, DocLen: d.DocLen, Freqs: freqs}
		scores[d.Key] = refScore(cols, freqs, d.DocLen, ipf)
	}
	sort.Slice(hits, func(i, j int) bool {
		if a, b := scores[hits[i].Key], scores[hits[j].Key]; a != b {
			return a > b
		}
		return hits[i].Key < hits[j].Key
	})
	return hits[:min(len(hits), max(rq.K, 0))]
}

// TestTopKKernelMatchesReference: the index walk's kernel (table weights,
// threshold before key, survivors alone materialised) answers what cutting
// the full list by the reference formula answers — on a corpus of varied
// lengths and frequencies and on the bench's shape, where every score ties
// and keys decide; with repeated and absent terms, every k, before and
// after removes.
func TestTopKKernelMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	tied := make([]string, 300)
	for i := range tied {
		tied[i] = fmt.Sprintf("<doc>worda wordb wordc id%d</doc>", i)
	}
	long := vocabDocs(rng, 300, 10, "v")
	for i := range long { // frequencies off the end of the weight table
		if i%25 == 0 {
			long[i] = strings.Replace(long[i], "<doc>", "<doc>"+strings.Repeat("worda ", 60+rng.Intn(20)), 1)
		}
	}
	for name, docs := range map[string][]string{"varied": long, "all tied": tied} {
		p := soloPeer(t, Config{ID: 0})
		published, err := p.PublishBatch(docs)
		if err != nil {
			t.Fatal(err)
		}
		for _, phase := range []string{"full", "after removes"} {
			if phase == "after removes" {
				for i := 0; i < len(published); i += 3 {
					if !p.Remove(published[i].ID) {
						t.Fatalf("%s: remove %d failed", name, i)
					}
				}
			}
			for trial := 0; trial < 60; trial++ {
				terms := make([]string, 1+rng.Intn(4))
				nt := make([]int, len(terms))
				for i := range terms {
					terms[i] = fmt.Sprintf("word%c", 'a'+rune(rng.Intn(12))) // two absent words
					nt[i] = 1 + rng.Intn(8)
				}
				if trial%4 == 0 {
					terms = append(terms, terms[0]) // a repeated term counts once
					nt = append(nt, nt[0])
				}
				full := p.localQuery(terms, false)
				for _, k := range []int{1, 3, 10, 50, len(full) + 5} {
					rq := search.RankQuery{K: k, N: 8, Nt: nt}
					got, want := p.localTopK(terms, rq), refTopK(full, terms, rq)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s, %s, terms %v k %d: walk answers\n%v\nfull list cut to k is\n%v", name, phase, terms, k, got, want)
					}
					// The kernel's score is the reference formula's, bit for
					// bit, and its order never rises.
					cols, ipf := refColumns(terms, rq), refIPF(terms, rq)
					sc := rq.Scorer(terms)
					for i := range got {
						g, w := sc.Score(got[i].Freqs, got[i].DocLen), refScore(cols, want[i].Freqs, want[i].DocLen, ipf)
						if math.Float64bits(g) != math.Float64bits(w) || i > 0 && g > sc.Score(got[i-1].Freqs, got[i-1].DocLen) {
							t.Fatalf("%s, %s, terms %v k %d rank %d: score %v, reference %v", name, phase, terms, k, i, g, w)
						}
					}
				}
			}
		}
	}
}

// stallFS is a MemFS whose files' Sync parks while stall is set: a disk in
// the middle of an fsync, for as long as the test says.
type stallFS struct {
	store.FS
	stall   atomic.Bool
	entered chan struct{} // receives once per parked Sync
	release chan struct{}
}

type stallFile struct {
	store.File
	fs *stallFS
}

func (fs *stallFS) Create(name string) (store.File, error) {
	f, err := fs.FS.Create(name)
	return stallFile{f, fs}, err
}

func (fs *stallFS) OpenAppend(name string) (store.File, error) {
	f, err := fs.FS.OpenAppend(name)
	return stallFile{f, fs}, err
}

func (f stallFile) Sync() error {
	if f.fs.stall.Load() {
		f.fs.entered <- struct{}{}
		<-f.fs.release
	}
	return f.File.Sync()
}

// TestRankedQueryNotBlockedByPublish: a publish holds p.mu across its WAL
// fsync; a ranked or conjunctive query for the same peer's documents reads
// only the index, so it answers while the disk is still busy.
func TestRankedQueryNotBlockedByPublish(t *testing.T) {
	fs := &stallFS{FS: store.NewMemFS(), entered: make(chan struct{}), release: make(chan struct{})}
	p := durablePeer(t, fs, store.Options{})
	defer p.Stop()
	if _, err := p.Publish("<doc>kestrel early</doc>"); err != nil {
		t.Fatal(err)
	}
	fs.stall.Store(true)
	published := make(chan error, 1)
	go func() {
		_, err := p.Publish("<doc>kestrel late</doc>")
		published <- err
	}()
	<-fs.entered // the publish is inside its fsync, holding p.mu

	answered := make(chan int, 1)
	go func() {
		h := (*handler)(p)
		ranked := h.HandleRankedQuery([]string{"kestrel"}, search.RankQuery{K: 5, N: 1, Nt: []int{1}})
		answered <- len(ranked) + len(h.HandleQuery([]string{"kestrel"}, true))
	}()
	select {
	case n := <-answered:
		if n != 2 {
			t.Errorf("queries during the fsync found %d documents, want the 1 committed one each", n)
		}
	case <-time.After(5 * time.Second):
		t.Error("a query waited for a publish stalled in its fsync")
	}
	fs.stall.Store(false)
	close(fs.release)
	if err := <-published; err != nil {
		t.Fatal(err)
	}
	if got := p.localTopK([]string{"kestrel"}, search.RankQuery{K: 5, N: 1, Nt: []int{1}}); len(got) != 2 {
		t.Fatalf("after the publish: %d documents, want 2", len(got))
	}
}

// TestQueryNamesOnlyFetchableDocuments pins the write path's visibility
// rule: a body is stored before its key is indexed and unindexed before it
// is deleted, so a key a query returns was fetchable when the walk saw it.
func TestQueryNamesOnlyFetchableDocuments(t *testing.T) {
	p := soloPeer(t, Config{ID: 0, Replicas: 3})
	docs := make([]string, 200)
	for i := range docs {
		docs[i] = fmt.Sprintf("<doc>petrel filler%d</doc>", i)
	}
	published, err := p.PublishBatch(docs)
	if err != nil {
		t.Fatal(err)
	}
	h := (*handler)(p)
	rq := search.RankQuery{K: 1000, N: 1, Nt: []int{1}}

	// A walk parked mid-answer holds the index's read lock, so a remove or
	// a replica drop stops where it unindexes. Wherever it waits, the body
	// it is about to delete must still be there: index first, then store.
	replicaOf := replica.Entry{Key: "held-petrel", Origin: 3, Epoch: 1, XML: "<doc>petrel borrowed</doc>"}
	p.adoptReplica(replicaOf, 5)
	for key, remove := range map[string]func(){
		published[0].ID: func() { p.Remove(published[0].ID) },
		replicaOf.Key:   func() { p.purgeReplica(replicaOf.Key, 1, true) },
	} {
		parked, resumed, walked := make(chan struct{}), make(chan struct{}), make(chan struct{})
		resume := sync.OnceFunc(func() { close(resumed) })
		defer resume() // a failure below must not leave the walk parked under Stop
		go func() {
			defer close(walked)
			var once sync.Once
			p.index.Merge([]string{"petrel"}, false, func(*index.Row) {
				once.Do(func() { close(parked); <-resumed })
			})
		}()
		<-parked
		removed := make(chan struct{})
		go func() { remove(); close(removed) }()
		for deadline := time.Now().Add(100 * time.Millisecond); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
			if _, ok := h.HandleGetDoc(key); !ok {
				t.Fatalf("the body of %s was deleted while a walk could still return its key", key)
			}
			select {
			case <-removed:
				t.Fatalf("the removal of %s finished under a parked walk", key)
			default:
			}
		}
		resume()
		<-walked
		<-removed
		if _, ok := h.HandleGetDoc(key); ok {
			t.Fatalf("%s still fetchable after its removal", key)
		}
	}

	// Removes interleaved with ranked queries and a fetch of every key
	// returned: a miss is allowed only for a key whose Remove was under way,
	// and a key whose Remove had returned before the query began is never
	// named.
	var issued, done sync.Map
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for _, d := range published[1:150] {
			issued.Store(d.ID, true)
			if !p.Remove(d.ID) {
				t.Errorf("remove %s failed", d.ID)
			}
			done.Store(d.ID, true)
		}
	}()
	for running := true; running; {
		select {
		case <-stop:
			running = false
		default:
		}
		gone := map[string]bool{}
		done.Range(func(k, _ any) bool { gone[k.(string)] = true; return true })
		for _, d := range h.HandleRankedQuery([]string{"petrel"}, rq) {
			if gone[d.Key] {
				t.Fatalf("query names %s, removed before it began", d.Key)
			}
			if _, ok := h.HandleGetDoc(d.Key); !ok {
				if _, ok := issued.Load(d.Key); !ok {
					t.Fatalf("query names %s, which cannot be fetched and was never removed", d.Key)
				}
			}
		}
	}
	wg.Wait()
	if got := h.HandleRankedQuery([]string{"petrel"}, rq); len(got) != 50 {
		t.Fatalf("%d documents left, want 50", len(got))
	}
}

// TestConcurrentQueriesPublishesRemoves runs every writer of the index
// beside its readers (run with -race -count=10): batches published, their
// documents removed, and ranked and conjunctive queries answering
// throughout, each answer internally consistent.
func TestConcurrentQueriesPublishesRemoves(t *testing.T) {
	p := soloPeer(t, Config{ID: 0})
	stop := make(chan struct{})
	var writers, readers sync.WaitGroup
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for round := 0; round < 15; round++ {
				batch := make([]string, 8)
				for i := range batch {
					batch[i] = fmt.Sprintf("<doc>falcon heron w%dr%dd%d</doc>", w, round, i)
				}
				docs, err := p.PublishBatch(batch)
				if err != nil {
					t.Error(err)
					return
				}
				for _, d := range docs[:4] {
					if !p.Remove(d.ID) {
						t.Errorf("remove %s failed", d.ID)
					}
				}
			}
		}()
	}
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			h := (*handler)(p)
			rq := search.RankQuery{K: 10, N: 1, Nt: []int{1, 1}}
			for {
				select {
				case <-stop:
					return
				default:
				}
				ranked := h.HandleRankedQuery([]string{"falcon", "heron"}, rq)
				for _, d := range ranked { // columns falcon, heron
					if d.Key == "" || d.DocLen < 3 || !slices.Equal(d.Freqs, []uint32{1, 1}) {
						t.Errorf("torn ranked answer: %+v", d)
						return
					}
				}
				for _, d := range h.HandleQuery([]string{"heron", "falcon"}, true) {
					if d.Key == "" || d.DocLen < 3 || d.TermFreqs["falcon"] != 1 || d.TermFreqs["heron"] != 1 {
						t.Errorf("torn answer: %+v", d)
						return
					}
				}
				if len(ranked) > rq.K {
					t.Errorf("%d ranked documents, k = %d", len(ranked), rq.K)
				}
			}
		}()
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	if got := p.localQuery([]string{"falcon"}, false); len(got) != 2*15*4 {
		t.Fatalf("%d documents left, want %d", len(got), 2*15*4)
	}
}
