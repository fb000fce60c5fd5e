package filtercache

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"planetp/internal/bloom"
	"planetp/internal/directory"
	"planetp/internal/metrics"
)

// fakeSource is an in-memory Source for tests.
type fakeSource struct {
	mu       sync.Mutex
	payloads map[directory.PeerID][]byte
	vers     map[directory.PeerID]directory.Version
}

func newFakeSource() *fakeSource {
	return &fakeSource{
		payloads: make(map[directory.PeerID][]byte),
		vers:     make(map[directory.PeerID]directory.Version),
	}
}

func (s *fakeSource) Payload(id directory.PeerID) ([]byte, directory.Version, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.payloads[id]
	return p, s.vers[id], ok
}

func (s *fakeSource) set(id directory.PeerID, f *bloom.Filter, ver directory.Version) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.payloads[id] = f.Compress()
	s.vers[id] = ver
}

func (s *fakeSource) drop(id directory.PeerID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.payloads, id)
	delete(s.vers, id)
}

// contains probes id's filter with a term, as a view's Contains does.
func contains(c *Cache, id directory.PeerID, term string) bool {
	return c.ContainsDigest(id, bloom.MakeDigest(term))
}

// row is a one-row Sweep of id at the payload and version src holds now:
// it sets hit[i] where id's filter may contain ds[i].
func row(c *Cache, src Source, id directory.PeerID, ds []bloom.Digest, hit []bool) {
	payload, ver, _ := src.Payload(id)
	c.Sweep([]directory.PeerID{id}, []directory.Version{ver}, [][]byte{payload}, ds, hit)
}

// filterWith builds a small filter containing the given terms.
func filterWith(terms ...string) *bloom.Filter {
	f := bloom.New(4096, 2)
	for _, t := range terms {
		f.Insert(t)
	}
	return f
}

func TestCacheProbesMatchFilter(t *testing.T) {
	src := newFakeSource()
	f := filterWith("apple", "banana", "cherry")
	src.set(1, f, directory.Version{Epoch: 1, Seq: 1})
	c := New(src, Config{})

	for _, term := range []string{"apple", "banana", "cherry", "durian", "elderberry"} {
		if got, want := contains(c, 1, term), f.Contains(term); got != want {
			t.Errorf("Contains(1, %q) = %v, want %v", term, got, want)
		}
	}
	ds := bloom.MakeDigests([]string{"apple", "banana"})
	hit := make([]bool, len(ds))
	if row(c, src, 1, ds, hit); slices.Contains(hit, false) {
		t.Error("conjunctive probe of present terms failed")
	}
	hit = make([]bool, len(ds))
	if row(c, src, 1, bloom.MakeDigests([]string{"apple", "absent-term"}), hit); !slices.Contains(hit, false) {
		t.Error("conjunctive probe with absent term passed")
	}
	if contains(c, 99, "apple") {
		t.Error("unknown peer reported membership")
	}
	// The batched probe sets exactly the present terms' cells and only
	// sets: a cell already true stays true, an unknown peer sets none.
	ds = bloom.MakeDigests([]string{"apple", "absent-term", "cherry", "absent-term"})
	hit = []bool{false, false, false, true}
	row(c, src, 1, ds, hit)
	if want := []bool{true, false, true, true}; !reflect.DeepEqual(hit, want) {
		t.Errorf("batched probe row = %v, want %v", hit, want)
	}
	hit = make([]bool, len(ds))
	row(c, src, 99, ds, hit)
	if want := make([]bool, len(ds)); !reflect.DeepEqual(hit, want) {
		t.Errorf("batched probe of an unknown peer set cells: %v", hit)
	}
}

func TestCacheHitMissAccounting(t *testing.T) {
	src := newFakeSource()
	src.set(1, filterWith("x"), directory.Version{Epoch: 1, Seq: 1})
	reg := metrics.NewRegistry()
	c := New(src, Config{Metrics: reg})

	contains(c, 1, "x") // miss + decode
	contains(c, 1, "x") // hit
	// One hit however many digests the batched probe carries.
	row(c, src, 1, bloom.MakeDigests([]string{"x", "y", "z"}), make([]bool, 3))
	st := c.Stats()
	if st.Misses != 1 || st.Hits != 2 {
		t.Fatalf("stats = %+v, want 1 miss 2 hits", st)
	}
	snap := reg.Snapshot()
	if snap.Counters["core_filter_cache_misses"] != 1 || snap.Counters["core_filter_cache_hits"] != 2 {
		t.Fatalf("metrics = %v", snap.Counters)
	}
	if snap.Gauges["core_filter_cache_resident_bytes"] != st.ResidentBytes {
		t.Fatalf("resident gauge %d != stats %d",
			snap.Gauges["core_filter_cache_resident_bytes"], st.ResidentBytes)
	}
	if st.ResidentBytes <= 0 {
		t.Fatal("no resident bytes after a decode")
	}
}

func TestCacheVersionChangeInvalidates(t *testing.T) {
	src := newFakeSource()
	src.set(1, filterWith("old-term"), directory.Version{Epoch: 1, Seq: 1})
	c := New(src, Config{})

	if !contains(c, 1, "old-term") {
		t.Fatal("old term missing")
	}
	// Version bump with a different filter: probes must see the new one.
	src.set(1, filterWith("new-term"), directory.Version{Epoch: 1, Seq: 2})
	if contains(c, 1, "old-term") {
		t.Error("stale filter served after version bump")
	}
	if !contains(c, 1, "new-term") {
		t.Error("new filter not served after version bump")
	}
	st := c.Stats()
	if st.Evictions != 1 {
		t.Errorf("evictions = %d, want 1 (the superseded decode)", st.Evictions)
	}
}

func TestCacheInvalidateReleasesBytes(t *testing.T) {
	src := newFakeSource()
	for id := directory.PeerID(0); id < 8; id++ {
		src.set(id, filterWith(fmt.Sprintf("term-%d", id)), directory.Version{Epoch: 1, Seq: 1})
	}
	reg := metrics.NewRegistry()
	c := New(src, Config{Metrics: reg})
	gauge := func() int64 { return reg.Snapshot().Gauges["core_filter_cache_resident_bytes"] }
	for id := directory.PeerID(0); id < 8; id++ {
		contains(c, id, "anything")
		if gauge() != c.ResidentBytes() {
			t.Fatalf("resident gauge %d != %d after decoding peer %d", gauge(), c.ResidentBytes(), id)
		}
	}
	before := c.ResidentBytes()
	if before <= 0 {
		t.Fatal("nothing resident")
	}
	for id := directory.PeerID(0); id < 8; id++ {
		c.Invalidate(id)
		if gauge() != c.ResidentBytes() {
			t.Fatalf("resident gauge %d != %d after invalidating peer %d", gauge(), c.ResidentBytes(), id)
		}
	}
	if got := c.ResidentBytes(); got != 0 {
		t.Fatalf("resident bytes after full invalidate = %d, want 0", got)
	}
	st := c.Stats()
	if st.Entries != 0 {
		t.Fatalf("entries remain after invalidate: %+v", st)
	}
}

// TestCacheDroppedPeerReleasesBytes is the leak regression at the cache
// layer: a peer that disappears from the source is released on its next
// probe even without an explicit Invalidate call.
func TestCacheDroppedPeerReleasesBytes(t *testing.T) {
	src := newFakeSource()
	src.set(1, filterWith("x"), directory.Version{Epoch: 1, Seq: 1})
	c := New(src, Config{})
	contains(c, 1, "x")
	if c.ResidentBytes() == 0 {
		t.Fatal("nothing resident")
	}
	src.drop(1)
	if contains(c, 1, "x") {
		t.Error("dropped peer reported membership")
	}
	if got := c.ResidentBytes(); got != 0 {
		t.Fatalf("resident bytes after source drop = %d, want 0", got)
	}
}

func TestCacheBudgetEnforced(t *testing.T) {
	src := newFakeSource()
	const n = 64
	for id := directory.PeerID(0); id < n; id++ {
		src.set(id, filterWith(fmt.Sprintf("term-%d", id)), directory.Version{Epoch: 1, Seq: 1})
	}
	// Budget that holds only a handful of compact entries.
	const budget = 2048
	c := New(src, Config{Budget: budget})
	for id := directory.PeerID(0); id < n; id++ {
		if !contains(c, id, fmt.Sprintf("term-%d", id)) {
			t.Fatalf("peer %d term missing", id)
		}
		if got := c.ResidentBytes(); got > budget {
			t.Fatalf("resident %d exceeds budget %d", got, budget)
		}
	}
	st := c.Stats()
	if st.Evictions == 0 {
		t.Fatal("no evictions despite budget pressure")
	}
	if st.Entries >= n {
		t.Fatalf("all %d entries resident under a %d-byte budget", n, budget)
	}
	// Evicted peers still answer correctly (re-decoded on demand).
	if !contains(c, 0, "term-0") {
		t.Fatal("evicted peer no longer probeable")
	}
}

// TestCacheHoldsSmallerForm: the resident form is chosen by density, from
// the payload alone — a sparse filter stays a position list, a dense one
// is held as its bitset, and a version bump that crosses the line
// switches form.
func TestCacheHoldsSmallerForm(t *testing.T) {
	src := newFakeSource()
	sparse, dense := filterWith("only-term"), bloom.New(4096, 2)
	for i := 0; i < 400; i++ {
		dense.Insert(fmt.Sprintf("dense-%d", i))
	}
	src.set(1, sparse, directory.Version{Epoch: 1, Seq: 1})
	src.set(2, dense, directory.Version{Epoch: 1, Seq: 1})
	c := New(src, Config{})

	contains(c, 1, "only-term")
	if got, want := c.ResidentBytes(), int64(bloom.CompactOf(sparse).SizeBytes()); got != want {
		t.Fatalf("sparse filter resident %d B, want its compact form's %d", got, want)
	}
	contains(c, 2, "dense-0")
	if got, want := c.ResidentBytes(), int64(bloom.CompactOf(sparse).SizeBytes()+dense.SizeBytes()); got != want {
		t.Fatalf("resident %d B after dense filter, want compact+bitset %d", got, want)
	}
	// Peer 1 republishes the dense filter: its entry becomes a bitset.
	src.set(1, dense, directory.Version{Epoch: 1, Seq: 2})
	if !contains(c, 1, "dense-7") || contains(c, 1, "only-term") != dense.Contains("only-term") {
		t.Fatal("probe after the form switch disagrees with the new filter")
	}
	if got, want := c.ResidentBytes(), int64(2*dense.SizeBytes()); got != want {
		t.Fatalf("resident %d B after form switch, want two bitsets %d", got, want)
	}
}

// TestCacheMatchesDecompress is the differential check on the size rule:
// for random payloads on both sides of the density crossover and exactly
// at it (4 B × set bits = nbits/8), every probe answers as the fully
// decompressed filter does, and the entry is charged no more than the
// smaller of the two forms plus a struct header.
func TestCacheMatchesDecompress(t *testing.T) {
	const nbits = 8192
	const crossover = nbits / 32 // set bits at which both forms cost nbits/8
	rng := rand.New(rand.NewSource(13))
	for _, nset := range []int{0, 1, 17, crossover - 1, crossover, crossover + 1, 2 * crossover, nbits / 2} {
		f := bloom.New(nbits, 3)
		for f.SetBits() < nset {
			if _, err := f.ApplyDiff([]uint64{uint64(rng.Intn(nbits))}); err != nil {
				t.Fatal(err)
			}
		}
		payload := f.Compress()
		want, err := bloom.Decompress(payload)
		if err != nil {
			t.Fatal(err)
		}
		src := newFakeSource()
		src.set(1, f, directory.Version{Epoch: 1, Seq: 1})
		c := New(src, Config{})
		for i := 0; i < 2000; i++ {
			d := bloom.Digest{H1: rng.Uint64(), H2: rng.Uint64()}
			if got := c.ContainsDigest(1, d); got != want.ContainsDigest(d) {
				t.Fatalf("nset=%d: probe %v = %v, Decompress says %v", nset, d, got, !got)
			}
			ds := []bloom.Digest{d, {H1: rng.Uint64(), H2: rng.Uint64()}}
			var hit [2]bool
			row(c, src, 1, ds, hit[:])
			if hit[0] != want.ContainsDigest(ds[0]) || hit[1] != want.ContainsDigest(ds[1]) {
				t.Fatalf("nset=%d: batched probe = %v, Decompress disagrees", nset, hit)
			}
		}
		const overhead = 64
		if got := c.ResidentBytes(); got > int64(min(4*nset, nbits/8)+overhead) {
			t.Fatalf("nset=%d: resident %d B > min(compact %d, bitset %d) + %d",
				nset, got, 4*nset, nbits/8, overhead)
		}
	}
}

// TestCacheCorruptPayload: a payload whose header parses but whose
// positions do not is refused (never cached, never probed) in both forms.
func TestCacheCorruptPayload(t *testing.T) {
	dense := bloom.New(64, 2) // decodes as a bitset
	for i := 0; i < 40; i++ {
		dense.Insert(fmt.Sprintf("k%d", i))
	}
	for _, f := range []*bloom.Filter{filterWith("a", "b", "c"), dense} {
		src := newFakeSource()
		src.set(1, f, directory.Version{Epoch: 1, Seq: 1})
		good := src.payloads[1]
		src.payloads[1] = good[:len(good)-1]
		if _, err := bloom.Decompress(src.payloads[1]); err == nil {
			t.Fatal("truncated payload decodes; the test needs a corrupt one")
		}
		c := New(src, Config{})
		if contains(c, 1, "a") || c.ResidentBytes() != 0 || c.Stats().Entries != 0 {
			t.Fatal("corrupt payload was cached or answered a probe")
		}
	}
}

// TestCorruptPayloadDecodedOncePerVersion: a peer whose payload does not
// decode costs one decode per record version however often it is swept,
// answers no probe, and is tried again after a version bump.
func TestCorruptPayloadDecodedOncePerVersion(t *testing.T) {
	decodes := 0
	defer func(orig func([]byte) (probe, error)) { decode = orig }(decode)
	orig := decode
	decode = func(payload []byte) (probe, error) {
		decodes++
		return orig(payload)
	}
	good := filterWith("a", "b").Compress()
	corrupt := good[:len(good)-1]
	ids := []directory.PeerID{1, 2}
	vers := []directory.Version{{Epoch: 1, Seq: 1}, {Epoch: 1, Seq: 1}}
	payloads := [][]byte{corrupt, good}
	ds := bloom.MakeDigests([]string{"a", "b"})
	c := New(newFakeSource(), Config{})
	sweep := func() []bool {
		hits := make([]bool, len(ids)*len(ds))
		c.Sweep(ids, vers, payloads, ds, hits)
		return hits
	}
	for i := 0; i < 100; i++ {
		if hits := sweep(); !reflect.DeepEqual(hits, []bool{false, false, true, true}) {
			t.Fatalf("sweep %d: hits %v, want the corrupt peer's row empty and the good one full", i, hits)
		}
	}
	if decodes != 2 {
		t.Fatalf("100 sweeps decoded %d times, want 2 (each peer once)", decodes)
	}
	vers[0].Seq = 2
	for i := 0; i < 100; i++ {
		if hits := sweep(); hits[0] || hits[1] {
			t.Fatalf("corrupt peer answered a probe after its version bump: %v", hits)
		}
	}
	if decodes != 3 {
		t.Fatalf("decoded %d times after the version bump, want 3", decodes)
	}
	if st := c.Stats(); st.Entries != 1 {
		t.Fatalf("%d entries cached, want only the good peer's", st.Entries)
	}
	c.Invalidate(1)
	sweep()
	if decodes != 4 {
		t.Fatalf("decoded %d times after Invalidate, want 4", decodes)
	}
}

// BenchmarkSweep1023 is rank_wide's sweep on its own: 1023 paper-geometry
// filters of 1000 words from a 200 000-word vocabulary, all resident, each
// swept with a 3-term query by two goroutines at once.
func BenchmarkSweep1023(b *testing.B) {
	const peers = 1023
	ids, vers, payloads, queries := rankWide()
	c := New(newFakeSource(), Config{})
	c.Sweep(ids, vers, payloads, queries[0], make([]bool, peers*3)) // warm
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < b.N; i += 2 {
				c.Sweep(ids, vers, payloads, queries[i%len(queries)], make([]bool, peers*3))
			}
		}(g)
	}
	wg.Wait()
}

// rankWide is rank_wide's directory: 1023 paper-geometry filters of 1000
// words from a 200 000-word vocabulary, and 64 3-term queries.
func rankWide() ([]directory.PeerID, []directory.Version, [][]byte, [][]bloom.Digest) {
	const peers, words, vocab = 1023, 1000, 200000
	rng := rand.New(rand.NewSource(1))
	word := func() string { return fmt.Sprintf("w%06d", rng.Intn(vocab)) }
	ids := make([]directory.PeerID, peers)
	vers := make([]directory.Version, peers)
	payloads := make([][]byte, peers)
	for i := range ids {
		f := bloom.Default()
		for k := 0; k < words; k++ {
			f.Insert(word())
		}
		ids[i], vers[i], payloads[i] = directory.PeerID(i+1), directory.Version{Epoch: 1, Seq: 1}, f.Compress()
	}
	queries := make([][]bloom.Digest, 64)
	for i := range queries {
		queries[i] = bloom.MakeDigests([]string{word(), word(), word()})
	}
	return ids, vers, payloads, queries
}

// TestCacheConcurrentChurn exercises probes against version bumps, drops,
// and budget evictions under -race.
func TestCacheConcurrentChurn(t *testing.T) {
	src := newFakeSource()
	const n = 32
	for id := directory.PeerID(0); id < n; id++ {
		src.set(id, filterWith(fmt.Sprintf("term-%d", id)), directory.Version{Epoch: 1, Seq: 1})
	}
	c := New(src, Config{Budget: 16 << 10, Metrics: metrics.NewRegistry()})

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				id := directory.PeerID(rng.Intn(n))
				ds := bloom.MakeDigests([]string{fmt.Sprintf("term-%d", id)})
				c.ContainsDigest(id, ds[0])
				row(c, src, id, ds, make([]bool, len(ds)))
			}
		}(int64(g))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(99))
		for i := 0; i < 2000; i++ {
			id := directory.PeerID(rng.Intn(n))
			switch rng.Intn(3) {
			case 0:
				src.set(id, filterWith(fmt.Sprintf("term-%d", id)),
					directory.Version{Epoch: 1, Seq: uint32(i)})
			case 1:
				src.drop(id)
				c.Invalidate(id)
			case 2:
				src.set(id, filterWith(fmt.Sprintf("term-%d", id)),
					directory.Version{Epoch: 2, Seq: uint32(i)})
			}
		}
		close(stop)
	}()
	wg.Wait()

	if got := c.ResidentBytes(); got > 16<<10 {
		t.Fatalf("resident %d exceeds budget after churn", got)
	}
}
