package core

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"planetp/internal/store"
)

func soloPeer(t *testing.T, cfg Config) *Peer {
	t.Helper()
	if cfg.Capacity == 0 {
		cfg.Capacity = 4
	}
	cfg.Gossip = fastGossip()
	p, err := NewPeer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Stop)
	return p
}

// ingestCorpus builds n distinct documents with overlapping vocabulary.
func ingestCorpus(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf(`<doc><title>batch corpus %d</title>shared lexicon plus unique token%d</doc>`, i, i)
	}
	return out
}

// A batch publish must be observably identical to publishing the same
// documents one at a time: same documents, same index statistics, same
// Bloom filter, same search results.
func TestPublishBatchMatchesSequential(t *testing.T) {
	corpus := ingestCorpus(20)

	seq := soloPeer(t, Config{ID: 0})
	for _, xml := range corpus {
		if _, err := seq.Publish(xml); err != nil {
			t.Fatal(err)
		}
	}
	bat := soloPeer(t, Config{ID: 1})
	docs, err := bat.PublishBatch(corpus)
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != len(corpus) {
		t.Fatalf("returned %d docs for %d inputs", len(docs), len(corpus))
	}
	for i, d := range docs {
		if d == nil || d.Raw != corpus[i] {
			t.Fatalf("doc %d misaligned with input", i)
		}
	}

	if seq.LocalDocs() != bat.LocalDocs() {
		t.Fatalf("doc counts diverge: %d vs %d", seq.LocalDocs(), bat.LocalDocs())
	}
	if a, b := seq.index.Stats(), bat.index.Stats(); a != b {
		t.Fatalf("index stats diverge: %v vs %v", a, b)
	}
	if !seq.summary.Filter().Equal(bat.summary.Filter()) {
		t.Fatal("Bloom filters diverge between sequential and batched publish")
	}
	for _, q := range []string{"shared lexicon", "token7", "corpus"} {
		a := seq.localQuery(Terms(q), false)
		b := bat.localQuery(Terms(q), false)
		if len(a) != len(b) {
			t.Fatalf("query %q: %d vs %d hits", q, len(a), len(b))
		}
	}
	if got := bat.Metrics().Counter("ingest_docs_total").Value(); got != int64(len(corpus)) {
		t.Fatalf("ingest_docs_total = %d, want %d", got, len(corpus))
	}
}

// Batches are idempotent exactly like Publish: intra-batch repeats and
// already-published documents are skipped, and an all-duplicate batch
// gossips nothing new.
func TestPublishBatchIdempotent(t *testing.T) {
	p := soloPeer(t, Config{ID: 0})
	if _, err := p.Publish(`<a>already present heron</a>`); err != nil {
		t.Fatal(err)
	}
	batch := []string{
		`<a>already present heron</a>`, // stored before the batch
		`<b>fresh batch walrus</b>`,
		`<b>fresh batch walrus</b>`, // intra-batch repeat
	}
	docs, err := p.PublishBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	if docs[1].ID != docs[2].ID {
		t.Fatal("identical bodies parsed to different ids")
	}
	if p.LocalDocs() != 2 {
		t.Fatalf("LocalDocs = %d, want 2", p.LocalDocs())
	}
	if got := p.Metrics().Counter("ingest_docs_total").Value(); got != 2 {
		t.Fatalf("ingest_docs_total = %d, want 2 (dups must not count)", got)
	}

	// A fully duplicate batch changes nothing — filter included.
	before := p.summary.Filter().Clone()
	if _, err := p.PublishBatch(batch); err != nil {
		t.Fatal(err)
	}
	if !p.summary.Filter().Equal(before) {
		t.Fatal("all-duplicate batch mutated the filter")
	}
}

// A term-free document fails the whole batch before any state changes,
// and the single-document error keeps its historical message.
func TestPublishBatchNoIndexableTerms(t *testing.T) {
	p := soloPeer(t, Config{ID: 0})
	if _, err := p.Publish(``); err == nil || err.Error() != "core: document has no indexable terms" {
		t.Fatalf("single-doc error = %v", err)
	}
	_, err := p.PublishBatch([]string{`<a>good capybara content</a>`, `<b>!!!</b>`})
	if !errors.Is(err, ErrNoTerms) {
		t.Fatalf("batch with a term-free doc: err = %v", err)
	}
	if p.LocalDocs() != 0 {
		t.Fatal("failed batch left documents behind")
	}
}

// topTerms must take ceil(frac * |terms|) exactly: no phantom extra term
// from the old +0.999 rounding hack, no missing term when the fractional
// part is tiny.
func TestTopTermsCeil(t *testing.T) {
	mkFreqs := func(n int) map[string]int {
		m := make(map[string]int, n)
		for i := 0; i < n; i++ {
			m[fmt.Sprintf("t%04d", i)] = n - i // distinct freqs: t0000 is hottest
		}
		return m
	}
	cases := []struct {
		n    int
		frac float64
		want int
	}{
		{5, 0.2, 1},   // 0.2*5 = 1.0000000000000002 in floats; must stay 1
		{10, 0.1, 1},  // exact integral product
		{10, 0.25, 3}, // 2.5 rounds up
		{10, 0.11, 2}, // 1.1 rounds up (old hack also got this)
		{1000, 0.001, 1},
		{3, 0.0001, 1}, // clamp to at least one
		{4, 2.0, 4},    // clamp to all
	}
	for _, c := range cases {
		got := topTerms(mkFreqs(c.n), c.frac)
		if len(got) != c.want {
			t.Errorf("topTerms(n=%d, frac=%v) returned %d terms, want %d", c.n, c.frac, len(got), c.want)
		}
	}
	// Determinism and ordering: hottest first, ties lexicographic.
	top := topTerms(map[string]int{"bb": 2, "aa": 2, "zz": 5}, 0.5)
	if !reflect.DeepEqual(top, []string{"zz", "aa"}) {
		t.Fatalf("topTerms order = %v", top)
	}
}

// Publishers (single and batched) racing searches, gossip summary reads,
// and removals must be data-race free; run under -race.
func TestPublishBatchConcurrentWithSearch(t *testing.T) {
	peers := community(t, 2, 0.1)
	p := peers[0]
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := 0; i < 8; i++ {
			batch := make([]string, 8)
			for j := range batch {
				batch[j] = fmt.Sprintf(`<d>race corpus %d %d shared vocabulary</d>`, i, j)
			}
			if _, err := p.PublishBatch(batch); err != nil {
				t.Errorf("batch %d: %v", i, err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 30; i++ {
			if _, err := p.Publish(fmt.Sprintf(`<s>solo race doc %d</s>`, i)); err != nil {
				t.Errorf("publish %d: %v", i, err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			p.Search("shared vocabulary", 4)
			peers[1].Search("race corpus", 4)
			p.StaleFraction()
		}
	}()
	wg.Wait()
	if p.LocalDocs() != 8*8+30 {
		t.Fatalf("LocalDocs = %d, want %d", p.LocalDocs(), 8*8+30)
	}
}

// Durable batched ingest: every acknowledged batch survives an
// ungraceful restart, a crash mid-batch loses the whole un-acked batch
// or keeps a prefix of it, and recovery replays the records in order.
func TestDurableBatchedIngestRecovery(t *testing.T) {
	mem := store.NewMemFS()
	p := durablePeer(t, mem, store.Options{})
	var acked []string
	for b := 0; b < 5; b++ {
		batch := make([]string, 6)
		for i := range batch {
			batch[i] = fmt.Sprintf(`<d>durable batch %d doc %d</d>`, b, i)
		}
		docs, err := p.PublishBatch(batch)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range docs {
			acked = append(acked, d.ID)
		}
	}
	p.tp.Close() // process death: no graceful Stop, no final snapshot
	mem.Crash(7)

	q := durablePeer(t, mem, store.Options{})
	defer q.Stop()
	if q.LocalDocs() != len(acked) {
		t.Fatalf("recovered %d docs, want %d", q.LocalDocs(), len(acked))
	}
	for _, id := range acked {
		if _, err := q.store.Get(id); err != nil {
			t.Fatalf("acked doc %s lost: %v", id, err)
		}
	}
}

// A WAL crash during a batched append fails the batch atomically: no
// document from the failed batch is stored, indexed, or searchable, and
// the error surfaces to the caller.
func TestPublishBatchWALFailureLeavesPeerUnchanged(t *testing.T) {
	mem := store.NewMemFS()
	ffs := store.NewFaultFS(mem, 99)
	p := durablePeer(t, ffs, store.Options{})
	if _, err := p.PublishBatch(ingestCorpus(4)); err != nil {
		t.Fatal(err)
	}
	before := p.LocalDocs()
	stats := p.index.Stats()

	ffs.CrashAt(ffs.Ops(), store.CrashTorn)
	batch := []string{`<x>doomed batch one</x>`, `<y>doomed batch two</y>`}
	if _, err := p.PublishBatch(batch); err == nil ||
		!strings.Contains(err.Error(), "not committed to WAL") {
		t.Fatalf("batch over a torn WAL: err = %v", err)
	}
	if p.LocalDocs() != before {
		t.Fatalf("failed batch changed LocalDocs: %d -> %d", before, p.LocalDocs())
	}
	if got := p.index.Stats(); got != stats {
		t.Fatalf("failed batch changed the index: %v -> %v", stats, got)
	}
	if hits := p.localQuery(Terms("doomed"), false); len(hits) != 0 {
		t.Fatalf("documents from a failed batch are searchable: %v", hits)
	}
	p.tp.Close()
}
