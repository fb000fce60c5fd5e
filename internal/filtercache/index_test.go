package filtercache

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"planetp/internal/bloom"
	"planetp/internal/directory"
	"planetp/internal/metrics"
)

// world is a random community for the indexed-sweep differentials: peer
// ids[i] is at vers[i] with payloads[i], and a sweep sees it while
// online[i]. Most filters share one geometry, dense enough that a base
// forms; the rest have another geometry, none, a corrupt body or a header
// nothing parses.
type world struct {
	rng      *rand.Rand
	ids      []directory.PeerID
	vers     []directory.Version
	payloads [][]byte
	online   []bool
	vocab    []bloom.Digest
}

const worldVocab = 300

func newWorld(seed int64, n int) *world {
	w := &world{rng: rand.New(rand.NewSource(seed))}
	for i := 0; i < worldVocab; i++ {
		w.vocab = append(w.vocab, bloom.MakeDigest(fmt.Sprintf("w%d", i)))
	}
	for i := 0; i < n; i++ {
		w.ids = append(w.ids, directory.PeerID(1+2*i))
		w.vers = append(w.vers, directory.Version{Epoch: 1, Seq: 1})
		w.payloads = append(w.payloads, w.payload())
		w.online = append(w.online, w.rng.Intn(8) != 0)
	}
	return w
}

// payload draws one peer's compressed filter.
func (w *world) payload() []byte {
	nbits, nhash := 1024, 2
	switch r := w.rng.Intn(20); {
	case r == 0:
		return nil
	case r == 1:
		return []byte{0xff}
	case r < 4:
		nbits, nhash = 2048, 3
	}
	f := bloom.New(nbits, nhash)
	for k := 40 + w.rng.Intn(120); k > 0; k-- {
		f.Insert(fmt.Sprintf("w%d", w.rng.Intn(worldVocab)))
	}
	p := f.Compress()
	if w.rng.Intn(20) == 0 {
		return p[:len(p)-1]
	}
	return p
}

// mutate applies one churn event named by op to peer i: a new version
// (the cache told, as the directory's evict hook does, or left to notice),
// an on/off-line flip, or an Invalidate of an unchanged record.
func (w *world) mutate(c *Cache, op byte, i int) {
	switch op % 4 {
	case 0, 1:
		w.vers[i].Seq++
		w.payloads[i] = w.payload()
		if op%4 == 1 {
			c.Invalidate(w.ids[i])
		}
	case 2:
		w.online[i] = !w.online[i]
	case 3:
		c.Invalidate(w.ids[i])
	}
}

// rows returns the on-line rows, as a directory read would.
func (w *world) rows() ([]directory.PeerID, []directory.Version, [][]byte) {
	var ids []directory.PeerID
	var vers []directory.Version
	var payloads [][]byte
	for i, on := range w.online {
		if on {
			ids, vers, payloads = append(ids, w.ids[i]), append(vers, w.vers[i]), append(payloads, w.payloads[i])
		}
	}
	return ids, vers, payloads
}

// query draws a few digests, some of them repeated.
func (w *world) query() []bloom.Digest {
	ds := make([]bloom.Digest, 1+w.rng.Intn(5))
	for j := range ds {
		ds[j] = w.vocab[w.rng.Intn(len(w.vocab))]
	}
	return ds
}

// sweepMatches sweeps the rows and returns "" if every cell is what
// bloom.Decompress of the row's payload answers, else the first mismatch.
func sweepMatches(c *Cache, ids []directory.PeerID, vers []directory.Version, payloads [][]byte, ds []bloom.Digest) string {
	hits := make([]bool, len(ids)*len(ds))
	c.Sweep(ids, vers, payloads, ds, hits)
	for i, p := range payloads {
		f, err := bloom.Decompress(p)
		for j, d := range ds {
			if want := err == nil && f.ContainsDigest(d); hits[i*len(ds)+j] != want {
				return fmt.Sprintf("peer %d at %v digest %d: sweep %v, filter %v", ids[i], vers[i], j, hits[i*len(ds)+j], want)
			}
		}
	}
	return ""
}

// TestIndexedSweepMatchesFilters: across budgets that admit no peer, some
// or all of them, a sweep answers every cell as the decompressed filter
// does — while version bumps, on/off-line flips and Invalidate interleave
// with two concurrent sweepers and the base is rebuilt several times.
func TestIndexedSweepMatchesFilters(t *testing.T) {
	for _, tc := range []struct {
		name   string
		budget int64
	}{{"none", 4 << 10}, {"some", 10 << 10}, {"all", 0}} {
		t.Run(tc.name, func(t *testing.T) {
			w := newWorld(int64(len(tc.name)), 64)
			reg := metrics.NewRegistry()
			c := New(newFakeSource(), Config{Budget: tc.budget, Metrics: reg})
			var mu sync.RWMutex
			var wg sync.WaitGroup
			for g := int64(0); g < 2; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					rng := rand.New(rand.NewSource(g))
					for k := 0; k < 400; k++ {
						mu.RLock()
						ids, vers, payloads := w.rows()
						ds := make([]bloom.Digest, 1+rng.Intn(4))
						for j := range ds {
							ds[j] = w.vocab[rng.Intn(len(w.vocab))]
						}
						mu.RUnlock()
						if bad := sweepMatches(c, ids, vers, payloads, ds); bad != "" {
							t.Error(bad)
							return
						}
					}
				}()
			}
			for k := 0; k < 400; k++ {
				mu.Lock()
				w.mutate(c, byte(w.rng.Intn(4)), w.rng.Intn(len(w.ids)))
				mu.Unlock()
				ids, vers, payloads := w.rows()
				if bad := sweepMatches(c, ids, vers, payloads, w.query()); bad != "" {
					t.Fatal(bad)
				}
			}
			wg.Wait()
			rebuilds := reg.Snapshot().Get("filtercache_index_rebuilds_total")
			if tc.name == "none" && rebuilds != 0 || tc.name != "none" && rebuilds < 3 {
				t.Fatalf("%d rebuilds", rebuilds)
			}
			limit := tc.budget
			if limit == 0 {
				limit = DefaultBudget
			}
			if got := c.ResidentBytes(); got > limit+1<<10 {
				t.Fatalf("resident %d B over the %d B budget", got, limit)
			}
		})
	}
}

// FuzzIndexedSweepMatchesFilter: any churn sequence over a random
// community leaves every sweep answering as the decompressed filters do.
func FuzzIndexedSweepMatchesFilter(f *testing.F) {
	f.Add(int64(1), []byte{0, 1, 2, 3, 0, 0, 0, 0})
	f.Add(int64(2), []byte{3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		w := newWorld(seed, 16)
		c := New(newFakeSource(), Config{Budget: []int64{0, 5 << 10, 8 << 10}[uint64(seed)%3]})
		for k, op := range ops {
			ids, vers, payloads := w.rows()
			if bad := sweepMatches(c, ids, vers, payloads, w.query()); bad != "" {
				t.Fatalf("after %d ops: %s", k, bad)
			}
			w.mutate(c, op, int(op>>2)%len(w.ids))
		}
	})
}

// TestRebuildStaysInBudget: a rebuild releases the old base and shrinks
// the delta to what the new one leaves before laying it out, so the two
// tiers never hold more than the budget (plus the delta's one-entry
// slack) — even with the delta full when the rebuild starts — and
// Invalidate racing with rebuilds never leaves the delta the whole budget
// beside a live base.
func TestRebuildStaysInBudget(t *testing.T) {
	const budget, slack = 10 << 10, 1 << 10
	w := newWorld(5, 64)
	for i := range w.online {
		w.online[i] = true
	}
	c := New(newFakeSource(), Config{Budget: budget})
	sweep := func() {
		ids, vers, payloads := w.rows()
		c.Sweep(ids, vers, payloads, w.query(), make([]bool, len(ids)*5))
	}
	bumpAll := func() {
		for i := range w.ids {
			w.vers[i].Seq++
		}
	}
	for round := 0; round < 4; round++ {
		c.building.Store(true) // the delta fills beside the base
		bumpAll()
		sweep()
		c.building.Store(false)
		c.debt.Store(math.MaxInt64 / 2)
		peak := int64(0) // both tiers' bytes while the new base is laid out
		decodePositions = func(dst []uint64, p []byte) ([]uint64, error) {
			peak = max(peak, c.ResidentBytes())
			return bloom.DecodePositions(dst, p)
		}
		sweep()
		decodePositions = bloom.DecodePositions
		if x := c.base.Load(); x.rows == nil || peak+x.bytes > budget {
			t.Fatalf("round %d: base of %d B laid out beside %d B, budget %d", round, x.bytes, peak, budget)
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for rng := rand.New(rand.NewSource(6)); ; {
			select {
			case <-stop:
				return
			default:
				c.Invalidate(w.ids[rng.Intn(len(w.ids))])
			}
		}
	}()
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if got := c.ResidentBytes(); got > budget+slack {
					t.Errorf("resident %d B over the %d B budget", got, budget)
					return
				}
			}
		}
	}()
	for k := 0; k < 300; k++ {
		w.mutate(c, byte(w.rng.Intn(2)), w.rng.Intn(len(w.ids)))
		sweep()
	}
	close(stop)
	wg.Wait()
	c.building.Store(true)
	bumpAll()
	sweep()
	sweep()
	if got := c.ResidentBytes(); got > budget+slack {
		t.Fatalf("resident %d B over the %d B budget once the delta refills", got, budget)
	}
}

// TestOneRowProbeKeepsBase: ContainsDigest, a one-row lookup, answers
// from the tiers as they are. With the rebuild rule tripped it does not
// replace a base with one laid out of its single row; the next sweep of
// the whole directory rebuilds.
func TestOneRowProbeKeepsBase(t *testing.T) {
	w := newWorld(5, 64)
	src := newFakeSource()
	c := New(src, Config{})
	ids, vers, payloads := w.rows()
	c.Sweep(ids, vers, payloads, w.query(), make([]bool, len(ids)*5))
	built := c.base.Load()
	if built.rows == nil {
		t.Fatal("no base formed")
	}
	id := built.ids[0]
	src.payloads[id], src.vers[id] = payloads[slices.Index(ids, id)], directory.Version{Epoch: 1, Seq: 9}
	c.debt.Store(math.MaxInt64 / 2)
	c.ContainsDigest(id, w.vocab[0])
	if c.base.Load() != built {
		t.Fatal("a one-row probe replaced the base")
	}
	c.Sweep(ids, vers, payloads, w.query(), make([]bool, len(ids)*5))
	if x := c.base.Load(); x == built || x.rows == nil {
		t.Fatal("the next sweep did not rebuild")
	}
}

// churn4 is mixed_rw's shape:four peers, three of which step to a new
// version (one of 16 dense filters) before every sweep of a 3-term query.
func churn4() (ids []directory.PeerID, vers []directory.Version, payloads [][]byte, ds []bloom.Digest, step func()) {
	rng := rand.New(rand.NewSource(4))
	pool := make([][]byte, 16)
	for i := range pool {
		f := bloom.New(2048, 2)
		for k := 0; k < 1500; k++ {
			f.Insert(fmt.Sprint("w", rng.Intn(5000)))
		}
		pool[i] = f.Compress()
	}
	for i := 0; i < 4; i++ {
		ids = append(ids, directory.PeerID(i+1))
		vers = append(vers, directory.Version{Epoch: 1, Seq: 1})
		payloads = append(payloads, pool[i])
	}
	ds = bloom.MakeDigests([]string{"w1", "w2", "w3"})
	return ids, vers, payloads, ds, func() {
		for i := 1; i < 4; i++ {
			vers[i].Seq++
			payloads[i] = pool[rng.Intn(len(pool))]
		}
	}
}

// TestIndexRebuildsAmortized: a static directory builds its base once, and
// under mixed_rw's churn the rebuilds cost at most twice what the delta's
// probes did — where a rebuild per change would cost a thousand times more.
func TestIndexRebuildsAmortized(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ids := make([]directory.PeerID, 1023)
	vers := make([]directory.Version, len(ids))
	payloads := make([][]byte, len(ids))
	for i := range ids {
		f := bloom.New(8192, 2)
		for k := 0; k < 100; k++ {
			f.Insert(fmt.Sprint("w", rng.Intn(20000)))
		}
		ids[i], vers[i], payloads[i] = directory.PeerID(i+1), directory.Version{Epoch: 1, Seq: 1}, f.Compress()
	}
	reg := metrics.NewRegistry()
	c := New(newFakeSource(), Config{Metrics: reg})
	for k := 0; k < 200; k++ {
		ds := bloom.MakeDigests([]string{fmt.Sprint("w", rng.Intn(20000)), fmt.Sprint("w", rng.Intn(20000))})
		c.Sweep(ids, vers, payloads, ds, make([]bool, len(ids)*len(ds)))
	}
	if n := reg.Snapshot().Get("filtercache_index_rebuilds_total"); n != 1 {
		t.Fatalf("a static directory built %d times, want 1", n)
	}

	ids, vers, payloads, ds, step := churn4()
	reg = metrics.NewRegistry()
	c = New(newFakeSource(), Config{Metrics: reg})
	var built int64
	var last *index
	for k := 0; k < 10000; k++ {
		step()
		c.Sweep(ids, vers, payloads, ds, make([]bool, len(ids)*len(ds)))
		if x := c.base.Load(); x != last && x.rows != nil {
			built += x.cost
		}
		last = c.base.Load()
	}
	snap := reg.Snapshot()
	probed := snap.Get("filtercache_delta_rows_total") * int64(len(ds)) * probeCost
	rebuilds := snap.Get("filtercache_index_rebuilds_total")
	t.Logf("%d rebuilds cost %d units against %d of delta probes", rebuilds, built, probed)
	if rebuilds < 2 || built > 2*probed {
		t.Fatal("rebuilds not amortized")
	}
}

// BenchmarkSweepChurn4 is mixed_rw's shape: most rows are at a new version
// at every sweep, so the delta decodes them and the base is rebuilt only
// when the delta's probes have paid for it.
func BenchmarkSweepChurn4(b *testing.B) {
	ids, vers, payloads, ds, step := churn4()
	c := New(newFakeSource(), Config{})
	hits := make([]bool, len(ids)*len(ds))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		step()
		c.Sweep(ids, vers, payloads, ds, hits)
	}
}

// BenchmarkIndexCostRatio measures probeCost on BenchmarkSweep1023's
// filters: ns per build unit (a set bit or a run start) of a base build,
// and ns per (row, digest) of a sweep the delta answers alone.
func BenchmarkIndexCostRatio(b *testing.B) {
	ids, vers, payloads, queries := rankWide()
	b.Run("build", func(b *testing.B) {
		c := New(newFakeSource(), Config{})
		var units int64
		for i := 0; i < b.N; i++ {
			x, src := c.admit(ids, vers, payloads)
			units += c.lay(x, src, ids, vers, payloads).cost
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(units), "ns/unit")
	})
	b.Run("delta", func(b *testing.B) {
		c := New(newFakeSource(), Config{})
		c.base.Store(&index{cost: math.MaxInt64, seen: len(ids)}) // never builds
		hits := make([]bool, len(ids)*3)
		c.Sweep(ids, vers, payloads, queries[0], hits)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Sweep(ids, vers, payloads, queries[i%len(queries)], hits)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(ids)*3), "ns/probe")
	})
}
