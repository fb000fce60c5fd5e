package core

import (
	"fmt"
	"sync"
	"testing"
)

// TestServingReadPathsConcurrentWithMutators is the serving-tier
// concurrency audit: every read path the HTTP handlers use — ranked
// search, exhaustive search (broker ring + local query), document
// lookup, directory snapshot walks, the local index query, health
// counters — hammered against concurrent publishes, batched publishes,
// removals, and filter compactions. Run under -race; the assertions are
// secondary to the detector.
func TestServingReadPathsConcurrentWithMutators(t *testing.T) {
	peers := community(t, 3, 0.1)
	p := peers[0]

	const rounds = 20
	var wg sync.WaitGroup

	// Mutators: solo publishes, batches, remove+republish churn, and
	// periodic filter compaction (the rebuild that swaps the summary's filter).
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			if _, err := p.Publish(fmt.Sprintf(`<d>audit solo %d lexicon</d>`, i)); err != nil {
				t.Errorf("publish %d: %v", i, err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds/2; i++ {
			batch := []string{
				fmt.Sprintf(`<d>audit batch %d alpha lexicon</d>`, i),
				fmt.Sprintf(`<d>audit batch %d beta lexicon</d>`, i),
			}
			if _, err := p.PublishBatch(batch); err != nil {
				t.Errorf("batch %d: %v", i, err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds/2; i++ {
			d, err := p.Publish(fmt.Sprintf(`<d>audit ephemeral %d lexicon</d>`, i))
			if err != nil {
				t.Errorf("ephemeral publish %d: %v", i, err)
				return
			}
			p.Remove(d.ID)
			if i%3 == 0 {
				p.Compact()
			}
		}
	}()

	// Readers: the handler-facing surface.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds*2; i++ {
			p.Search("lexicon", 4)
			peers[1].Search("audit lexicon", 4)
			p.SearchAll("lexicon")
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds*2; i++ {
			// Doc lookup: present, absent, and remote-owner paths.
			for _, key := range p.store.IDs() {
				p.FetchDocument(p.ID(), key)
				break
			}
			p.FetchDocument(p.ID(), "absent-doc")
			peers[1].FetchDocument(p.ID(), "absent-doc")
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds*2; i++ {
			// Directory snapshot walk, exactly as GET /v1/peers does.
			dir := p.Directory()
			dir.Generation()
			dir.NumKnown()
			dir.NumOnline()
			for _, pid := range dir.KnownIDs() {
				dir.Entry(pid)
				dir.Get(pid)
			}
			p.LocalDocs()
			p.StaleFraction()
			p.PickProxy()
			p.localQuery([]string{"lexicon"}, true)
		}
	}()
	wg.Wait()

	want := rounds + rounds/2*2 // solo + batches (ephemerals were removed or remain; count separately)
	if got := p.LocalDocs(); got < want {
		t.Fatalf("LocalDocs = %d, want >= %d", got, want)
	}
}
