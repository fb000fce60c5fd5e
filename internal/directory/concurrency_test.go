package directory

import (
	"math/rand"
	"sync"
	"testing"
	"time"
)

// The live transport mutates the directory from many goroutines while
// searches read it; this must be race-free and converge to consistent
// counters (run under -race in CI).
func TestConcurrentUpsertAndReads(t *testing.T) {
	d := New(0, 256)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 500; i++ {
				id := PeerID(rng.Intn(256))
				switch rng.Intn(5) {
				case 0:
					d.Upsert(Record{ID: id, Ver: Version{Epoch: 1, Seq: uint32(rng.Intn(10))}})
				case 1:
					d.MarkOffline(id, time.Duration(i)*time.Millisecond)
				case 2:
					d.MarkOnline(id)
				case 3:
					d.Get(id)
					d.VersionOf(id)
					d.Digest()
				case 4:
					d.PickOnline(rng, nil)
					d.MissingRange(summary(d), 0)
				}
			}
		}(g)
	}
	wg.Wait()

	// Counter invariants hold after the storm.
	known, online := 0, 0
	for id := 0; id < 256; id++ {
		if e, ok := d.Entry(PeerID(id)); ok {
			known++
			if e.Online {
				online++
			}
		}
	}
	if known != d.NumKnown() {
		t.Fatalf("NumKnown %d != scan %d", d.NumKnown(), known)
	}
	if online != d.NumOnline() {
		t.Fatalf("NumOnline %d != scan %d", d.NumOnline(), online)
	}
	// Digest still matches a rebuilt one.
	fresh := New(1, 256)
	for id := 0; id < 256; id++ {
		if e, ok := d.Entry(PeerID(id)); ok {
			fresh.Upsert(Record{ID: PeerID(id), Ver: e.Ver})
		}
	}
	if fresh.Digest() != d.Digest() {
		t.Fatal("digest drifted from contents")
	}
}
