package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"planetp/internal/bloom"
	"planetp/internal/doc"
	"planetp/internal/replica"
	"planetp/internal/store"
)

// applyCorpus is a small document pool over a shared vocabulary, so the
// same term is carried by several documents and a stale bit of one is a
// live bit of another.
func applyCorpus(n int) (xmls, keys, vocab []string) {
	vocab = []string{"osprey", "falcon", "kestrel", "harrier", "merlin", "goshawk", "buzzard", "condor"}
	for i := 0; i < n; i++ {
		xml := fmt.Sprintf(`<paper>%s %s %s tag%d</paper>`,
			vocab[i%len(vocab)], vocab[(i*3+1)%len(vocab)], vocab[(i*5+2)%len(vocab)], i)
		xmls = append(xmls, xml)
		keys = append(keys, doc.Parse(xml).ID)
		vocab = append(vocab, fmt.Sprintf("tag%d", i))
	}
	return xmls, keys, vocab
}

// postings is a peer's answer to a one-term query with the index's private
// document ids left out: sorted "key freq doclen" lines.
func postings(p *Peer, term string) []string {
	var out []string
	for _, d := range p.localQuery(Terms(term), false) {
		out = append(out, fmt.Sprint(d.Key, d.TermFreqs, d.DocLen))
	}
	sort.Strings(out)
	return out
}

// TestRecoveredEqualsLive drives random sequences of all four record kinds
// through a durable peer's live write path, kills it without a final
// snapshot, and requires the peer recovered from its directory to hold
// exactly what the live one held — documents, replicas, tombstones, index
// and (once both are compacted) filter — having replayed state only: no
// ingest counted, no purge counted, nothing put into its broker.
func TestRecoveredEqualsLive(t *testing.T) {
	xmls, keys, vocab := applyCorpus(10)
	entry := func(i int, epoch uint32) replica.Entry {
		return replica.Entry{Key: keys[i], Origin: int32(1 + i%3), Epoch: epoch, XML: xmls[i]}
	}
	open := func(fs store.FS) *Peer {
		p, err := NewPeer(Config{
			ID: 0, Capacity: 8, Gossip: fastGossip(),
			DataDir: "data", Store: store.Options{FS: fs, CompactBytes: 1024},
			Replicas: 3, BrokerTopFrac: 0.5,
		})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	var folds int64
	for seed := int64(1); seed <= 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		mem := store.NewMemFS()
		a := open(mem)
		// Every sequence opens with the orders that have gone wrong before:
		// a tombstone ahead of the put it forbids, a replica converted by a
		// publish, and one key removed and republished.
		a.purgeReplica(keys[0], 2, true)
		a.adoptReplica(entry(0, 1), 5)
		a.adoptReplica(entry(1, 1), 5)
		mustPublish(t, a, xmls[1])
		mustPublish(t, a, xmls[2])
		a.Remove(keys[2])
		mustPublish(t, a, xmls[2])
		for n := rng.Intn(60); n > 0; n-- { // the crash lands at a random point
			i := rng.Intn(len(xmls))
			switch rng.Intn(5) {
			case 0:
				mustPublish(t, a, xmls[i])
			case 1:
				if _, err := a.PublishBatch([]string{xmls[i], xmls[(i+1)%len(xmls)], xmls[i]}); err != nil {
					t.Fatal(err)
				}
			case 2:
				a.Remove(keys[i])
			case 3:
				a.adoptReplica(entry(i, uint32(1+rng.Intn(3))), 5)
			case 4:
				a.purgeReplica(keys[i], uint32(1+rng.Intn(3)), rng.Intn(2) == 0)
			}
		}
		folds += a.Metrics().Counter("store_compactions_total").Value()
		a.tp.Close() // process death: no graceful Stop, no final snapshot
		mem.Crash(seed)

		b := open(mem)
		if got, want := b.store.IDs(), a.store.IDs(); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: recovered own documents %v, live %v", seed, got, want)
		}
		gotReps, gotTombs := b.rep.State()
		wantReps, wantTombs := a.rep.State()
		if !reflect.DeepEqual(gotReps, wantReps) || !reflect.DeepEqual(gotTombs, wantTombs) {
			t.Fatalf("seed %d: recovered hoard %v %v, live %v %v", seed, gotReps, gotTombs, wantReps, wantTombs)
		}
		for _, term := range vocab {
			if got, want := postings(b, term), postings(a, term); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d: recovered postings of %q %v, live %v", seed, term, got, want)
			}
		}
		a.Compact()
		b.Compact()
		if !b.summary.Filter().Equal(a.summary.Filter()) {
			t.Fatalf("seed %d: recovered and live filters differ after Compact", seed)
		}
		m := b.Metrics()
		if got := m.Gauge("store_recovered_docs").Value(); got != int64(len(a.store.IDs())) {
			t.Fatalf("seed %d: store_recovered_docs = %d, want %d", seed, got, len(a.store.IDs()))
		}
		for _, name := range []string{"ingest_docs_total", "ingest_batches_total", "replica_purges_total", "replica_adopts_total"} {
			if got := m.Counter(name).Value(); got != 0 {
				t.Fatalf("seed %d: recovery counted %s = %d; it replays state, not side effects", seed, name, got)
			}
		}
		if n := b.broker.Len(); n != 0 {
			t.Fatalf("seed %d: recovery put %d snippets into the broker", seed, n)
		}
		b.Stop()
	}
	if folds == 0 {
		t.Fatal("no WAL fold landed inside any sequence; lower CompactBytes")
	}
}

func mustPublish(t testing.TB, p *Peer, xml string) {
	t.Helper()
	if _, err := p.Publish(xml); err != nil {
		t.Fatal(err)
	}
}

// TestCompactMatchesReferenceFilter: after a seeded mix of publishes,
// removes, adoptions and releases, the compacted filter is bit-equal to one
// the test fills itself from the documents its own model says survive.
func TestCompactMatchesReferenceFilter(t *testing.T) {
	xmls, keys, _ := applyCorpus(24)
	p, err := NewPeer(Config{ID: 0, Capacity: 2, Gossip: fastGossip(), Replicas: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Stop()
	own, reps := map[int]bool{}, map[int]bool{}
	rng := rand.New(rand.NewSource(17))
	for step := 0; step < 400; step++ {
		i := rng.Intn(len(xmls))
		switch rng.Intn(4) {
		case 0:
			mustPublish(t, p, xmls[i])
			own[i] = true
			delete(reps, i) // a held replica is converted
		case 1:
			p.Remove(keys[i])
			delete(own, i)
		case 2:
			// A fresh epoch each time, and releases leave no tombstone, so
			// only an own document refuses the offer.
			p.adoptReplica(replica.Entry{Key: keys[i], Origin: 1, Epoch: uint32(step + 1), XML: xmls[i]}, 5)
			if !own[i] {
				reps[i] = true
			}
		case 3:
			p.purgeReplica(keys[i], 0, false)
			delete(reps, i)
		}
	}
	if len(own) == 0 || len(reps) == 0 || len(own)+len(reps) == len(xmls) {
		t.Fatalf("degenerate mix: %d own, %d replicas of %d", len(own), len(reps), len(xmls))
	}
	want := bloom.Default()
	for i := range xmls {
		if !own[i] && !reps[i] {
			continue
		}
		for term := range doc.Parse(xmls[i]).TermFreqs(nil) {
			want.Insert(term)
		}
		want.Insert(docMarker(keys[i]))
	}
	stale := p.StaleFraction()
	if got := p.summary.Filter().SetBits(); stale != float64(got-want.SetBits())/float64(got) {
		t.Fatalf("StaleFraction = %v with %d bits set and %d live", stale, got, want.SetBits())
	}
	p.Compact()
	if !p.summary.Filter().Equal(want) {
		t.Fatalf("compacted filter has %d bits set, the reference %d", p.summary.Filter().SetBits(), want.SetBits())
	}
	if got := p.StaleFraction(); got != 0 {
		t.Fatalf("StaleFraction after Compact = %v", got)
	}
}

// TestCompactCleansTermOfManyDocuments: a term carried by more documents
// than an 8-bit counter can count must still leave the filter once all of
// them are removed. (A saturating counting filter never decremented such a
// cell: the bits stayed set through every Compact and StaleFraction
// under-reported them.)
func TestCompactCleansTermOfManyDocuments(t *testing.T) {
	p, err := NewPeer(Config{ID: 0, Capacity: 2, Gossip: fastGossip()})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Stop()
	batch := make([]string, 300)
	for i := range batch {
		batch[i] = fmt.Sprintf(`<d>ubiquitous only%d</d>`, i)
	}
	docs, err := p.PublishBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range docs {
		if !p.Remove(d.ID) {
			t.Fatalf("remove of %s failed", d.ID)
		}
	}
	if got := p.StaleFraction(); got != 1 {
		t.Fatalf("StaleFraction with nothing held = %v, want 1", got)
	}
	p.Compact()
	f := p.summary.Filter()
	if f.Contains(Terms("ubiquitous")[0]) {
		t.Fatal("compacted filter still announces a term no held document carries")
	}
	for _, d := range docs {
		if f.Contains(docMarker(d.ID)) {
			t.Fatalf("compacted filter still announces the marker of removed %s", d.ID)
		}
	}
	if got := p.StaleFraction(); got != 0 {
		t.Fatalf("StaleFraction after Compact = %v", got)
	}
}
