package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"planetp/internal/index"
	"planetp/internal/replica"
	"planetp/internal/search"
)

// walkTopK is a ranked answer from a fresh index.Merge walk, the memo
// bypassed: the reference the memo's answers are held to.
func walkTopK(p *Peer, terms []string, rq search.RankQuery) []search.Hit {
	sc := rq.Scorer(terms)
	top := sc.TopK(rq.K)
	p.index.Merge(sc.Terms, false, func(r *index.Row) {
		if score := sc.Score(r.Freqs, r.DocLen); top.Admits(score) {
			top.Insert(score, r.Key(), r.Freqs, r.DocLen)
		}
	})
	return top.Hits()
}

// memoDoc is a document of 2 to 10 words drawn from five, so every word's
// posting list is long enough for its queries to be admitted to the memo,
// and scores tie often.
func memoDoc(rng *rand.Rand, name string) string {
	words := make([]string, 2+rng.Intn(9))
	for i := range words {
		words[i] = fmt.Sprintf("word%c", 'a'+rune(rng.Intn(5)))
	}
	return fmt.Sprintf("<doc>%s %s</doc>", strings.Join(words, " "), name)
}

// memoQueries is a pool of ranked queries a run repeats: one to three
// terms of seven (two absent), some repeated, across k, N and N_t. Every
// query has a twin with the same terms that differs in one of k, N and an
// N_t, so a memo that confuses the two answers one with the other's list.
func memoQueries(rng *rand.Rand, n int) (terms [][]string, rqs []search.RankQuery) {
	for range n {
		t := make([]string, 1+rng.Intn(3))
		nt := make([]int, len(t))
		for i := range t {
			t[i] = fmt.Sprintf("word%c", 'a'+rune(rng.Intn(7)))
			nt[i] = rng.Intn(9)
		}
		if rng.Intn(4) == 0 {
			t, nt = append(t, t[0]), append(nt, rng.Intn(9)) // counts once, with the first N_t
		}
		rq := search.RankQuery{K: []int{1, 3, 10, 50, 400}[rng.Intn(5)], N: 4 + rng.Intn(2)*4, Nt: nt}
		twin := search.RankQuery{K: rq.K, N: rq.N, Nt: slices.Clone(nt)}
		switch rng.Intn(3) {
		case 0:
			twin.K++
		case 1:
			twin.N++
		default:
			twin.Nt[rng.Intn(len(t))]++
		}
		terms = append(terms, t, t)
		rqs = append(rqs, rq, twin)
	}
	return terms, rqs
}

// memoRun drives p through ops — publishes, removes, replica adoptions and
// purges, and repeats of a pool of ranked queries — and fails if any
// answer differs from a fresh walk's. It returns the memo's hits.
func memoRun(t testing.TB, p *Peer, seed int64, ops []byte) int64 {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	terms, rqs := memoQueries(rng, 4)
	var own, held []string
	docs := 0
	publish := func(n int) {
		batch := make([]string, n)
		for i := range batch {
			docs++
			batch[i] = memoDoc(rng, fmt.Sprintf("d%d", docs))
		}
		published, err := p.PublishBatch(batch)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range published {
			own = append(own, d.ID)
		}
	}
	publish(300)
	hits := p.topk.hits.Value()
	for _, op := range ops {
		// Queries are most ops, so a query repeats between two removals.
		switch op % 16 {
		case 0, 1, 2:
			publish(1 + int(op/16)%8)
		case 3:
			if len(own) > 0 {
				i := int(op/16) % len(own)
				if !p.Remove(own[i]) {
					t.Fatalf("remove %s failed", own[i])
				}
				own = append(own[:i], own[i+1:]...)
			}
		case 4:
			docs++
			e := replica.Entry{Key: fmt.Sprintf("held%d", docs), Origin: 3, Epoch: 1, XML: memoDoc(rng, fmt.Sprintf("r%d", docs))}
			p.adoptReplica(e, 5)
			held = append(held, e.Key)
		case 5:
			if len(held) > 0 {
				i := int(op/16) % len(held)
				p.purgeReplica(held[i], 1, true)
				held = append(held[:i], held[i+1:]...)
			}
		default:
			i := int(op/16) % len(terms)
			got, want := p.localTopK(terms[i], rqs[i]), walkTopK(p, terms[i], rqs[i])
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("terms %v %+v: memo answers\n%v\na fresh walk\n%v", terms[i], rqs[i], got, want)
			}
		}
	}
	return p.topk.hits.Value() - hits
}

// TestTopKMemoMatchesWalk: across random interleavings of every writer of
// the index with repeated ranked queries, an answer resumed from the memo
// is the answer a fresh walk gives, document for document.
func TestTopKMemoMatchesWalk(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		p := soloPeer(t, Config{ID: 0, Replicas: 3})
		rng := rand.New(rand.NewSource(seed))
		ops := make([]byte, 400)
		for i := range ops {
			ops[i] = byte(rng.Intn(256))
		}
		hits := memoRun(t, p, seed, ops)
		t.Logf("seed %d: %d memo hits", seed, hits)
		if hits < 20 {
			t.Fatalf("seed %d: %d memo hits; the test resumes too few walks", seed, hits)
		}
	}
}

func FuzzTopKMemoMatchesWalk(f *testing.F) {
	f.Add(int64(1), []byte{6, 22, 6, 0, 6, 22, 3, 6, 4, 22, 5, 38, 6})
	f.Add(int64(2), []byte{7, 23, 7, 1, 7, 23, 19, 7, 36, 23, 53, 7, 23})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		if len(ops) > 64 {
			ops = ops[:64]
		}
		memoRun(t, soloPeer(t, Config{ID: 0, Replicas: 3}), seed, ops)
	})
}

// TestTopKMemoConcurrentExtenders runs readers of one memo key beside
// publishes and removes (run with -race -count=10): the readers resume and
// replace the same entry while the index grows, no answer names a
// document removed before the query began, and once the writers stop the
// memo answers what a fresh walk does.
func TestTopKMemoConcurrentExtenders(t *testing.T) {
	p := soloPeer(t, Config{ID: 0})
	base := make([]string, 300)
	for i := range base {
		base[i] = fmt.Sprintf("<doc>falcon heron base%d</doc>", i)
	}
	if _, err := p.PublishBatch(base); err != nil {
		t.Fatal(err)
	}
	terms, rq := []string{"falcon", "heron"}, search.RankQuery{K: 10, N: 2, Nt: []int{1, 1}}
	var removed sync.Map
	var queries atomic.Int64
	stop := make(chan struct{})
	var writers, readers sync.WaitGroup
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for round := 0; round < 15; round++ {
				batch := make([]string, 8)
				for i := range batch {
					// Short documents: every one outscores the base, so each
					// batch enters the kept list.
					batch[i] = fmt.Sprintf("<doc>falcon heron w%dr%dd%d</doc>", w, round, i)
				}
				docs, err := p.PublishBatch(batch)
				if err != nil {
					t.Error(err)
					return
				}
				// Every third round removes; the others leave the readers
				// time to resume the walk of an unchanged removal count.
				if round%3 == 2 {
					for _, d := range docs[:2] {
						if !p.Remove(d.ID) {
							t.Errorf("remove %s failed", d.ID)
						}
						removed.Store(d.ID, true)
					}
				}
				for n := queries.Load(); queries.Load() < n+3 && !t.Failed(); {
					runtime.Gosched()
				}
			}
		}()
	}
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				gone := map[string]bool{}
				removed.Range(func(k, _ any) bool { gone[k.(string)] = true; return true })
				got := p.localTopK(terms, rq)
				queries.Add(1)
				if len(got) != rq.K {
					t.Errorf("%d ranked documents, k = %d", len(got), rq.K)
					return
				}
				for _, d := range got { // columns falcon, heron
					if gone[d.Key] || !slices.Equal(d.Freqs, []uint32{1, 1}) {
						t.Errorf("answer names %+v (removed before the query: %v)", d, gone[d.Key])
						return
					}
				}
			}
		}()
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	t.Logf("%d queries beside the writers resumed %d walks", queries.Load(), p.topk.hits.Value())
	p.localTopK(terms, rq)
	hits := p.topk.hits.Value()
	if got, want := p.localTopK(terms, rq), walkTopK(p, terms, rq); !reflect.DeepEqual(got, want) {
		t.Fatalf("after the writers: memo answers\n%v\na fresh walk\n%v", got, want)
	}
	if p.topk.hits.Value() != hits+1 {
		t.Fatal("a repeated query after the writers did not resume the walk before it")
	}
}

// TestTopKMemoBounded: a remote query asking for a huge k is answered but
// not kept, and however many distinct queries are kept, the memo's cost
// stays within its budget.
func TestTopKMemoBounded(t *testing.T) {
	peers := community(t, 2, 0) // peer 1 joined through peer 0, so it can reach it at once
	p := peers[0]
	docs := make([]string, max(topkMemoAdmit, topkMemoMaxCost)+100)
	for i := range docs {
		docs[i] = fmt.Sprintf("<doc>plover filler%d</doc>", i)
	}
	if _, err := p.PublishBatch(docs); err != nil {
		t.Fatal(err)
	}
	memo := p.topk.lru
	got, err := peers[1].tp.QueryRanked(0, []string{"plover"}, search.RankQuery{K: 1 << 20, N: 2, Nt: []int{1}})
	if err != nil || len(got) != len(docs) {
		t.Fatalf("huge-k query: %d documents, err %v; want %d", len(got), err, len(docs))
	}
	if memo.Len() != 0 {
		t.Fatalf("a walk keeping %d documents was kept (memo cost %d, entry bound %d)", len(got), memo.Cost(), topkMemoMaxCost)
	}
	// The largest entry allowed is kept.
	p.localTopK([]string{"plover"}, search.RankQuery{K: topkMemoMaxCost - 1, N: 2, Nt: []int{1}})
	if memo.Len() != 1 || memo.Cost() != topkMemoMaxCost {
		t.Fatalf("an entry of cost %d: memo holds %d entries of cost %d", topkMemoMaxCost, memo.Len(), memo.Cost())
	}
	for n := 2; n < 4*topkMemoBudget/topkMemoMaxCost; n++ {
		p.localTopK([]string{"plover"}, search.RankQuery{K: topkMemoMaxCost - 1, N: n, Nt: []int{1}})
		if memo.Cost() > topkMemoBudget {
			t.Fatalf("after %d queries the memo costs %d, over its budget of %d", n, memo.Cost(), topkMemoBudget)
		}
	}
	if memo.Len() < topkMemoBudget/topkMemoMaxCost-1 {
		t.Fatalf("the memo keeps %d entries; eviction took more than the budget asks", memo.Len())
	}
}

// TestTopKMemoSkipAllocs: a query whose posting lists are too short for the
// memo allocates what a walk with no memo did — no key, no entry.
func TestTopKMemoSkipAllocs(t *testing.T) {
	p := soloPeer(t, Config{ID: 0})
	docs := make([]string, 100)
	for i := range docs {
		docs[i] = fmt.Sprintf("<doc>petrel gannet filler%d</doc>", i)
	}
	if _, err := p.PublishBatch(docs); err != nil {
		t.Fatal(err)
	}
	terms := []string{"petrel", "gannet"}
	// The bounds are the walk's own: the scorer, the posting lists, the
	// cursors, the row, the list's two arrays, and the answer — its slice
	// and the one array its rows share, whatever k is.
	for k, bound := range map[int]float64{1: 13, 10: 13} {
		rq := search.RankQuery{K: k, N: 4, Nt: []int{2, 3}}
		if n := testing.AllocsPerRun(100, func() { p.localTopK(terms, rq) }); n > bound {
			t.Errorf("k = %d: %v allocations, want at most %v", k, n, bound)
		}
	}
	if p.topk.lru.Len() != 0 || p.topk.misses.Value() != 0 {
		t.Fatalf("queries below admission reached the memo: %d entries, %d misses", p.topk.lru.Len(), p.topk.misses.Value())
	}
}

// BenchmarkLocalQueryRankedAppend is mixed_rw at one answering peer: 4000
// tied documents, 16 more published between two asks of the same query,
// which resumes its kept walk over the 16.
func BenchmarkLocalQueryRankedAppend(b *testing.B) {
	docs := make([]string, 4000)
	for i := range docs {
		docs[i] = fmt.Sprintf("<doc>head common filler%d</doc>", i)
	}
	p := benchPeer(b, docs)
	rq := search.RankQuery{K: 10, N: 4, Nt: []int{4, 4}}
	batch := make([]string, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for j := range batch {
			batch[j] = fmt.Sprintf("<doc>head common append%d</doc>", i*len(batch)+j)
		}
		if _, err := p.PublishBatch(batch); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		benchHits = p.localTopK([]string{"head", "common"}, rq)
	}
}
