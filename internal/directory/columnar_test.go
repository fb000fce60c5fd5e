package directory

import (
	"reflect"
	"testing"
	"time"
	"unsafe"
)

// unsafeStringData exposes a string's backing pointer so the interning
// test can assert two equal strings share storage.
func unsafeStringData(s string) *byte { return unsafe.StringData(s) }

func colRec(id PeerID, epoch, seq uint32) Record {
	return Record{ID: id, Ver: Version{Epoch: epoch, Seq: seq}}
}

// TestSummaryRangeMatchesSummary: chunked summaries stitched together must
// equal the full vector of known versions, for every chunk size including
// non-divisors.
func TestSummaryRangeMatchesSummary(t *testing.T) {
	d := New(0, 37)
	for id := PeerID(0); id < 37; id += 3 {
		d.Upsert(rec(id, 1, uint32(id)))
	}
	full := make([]Version, d.Capacity())
	for id := range full {
		if _, ok := d.Get(PeerID(id)); ok {
			full[id] = d.VersionOf(PeerID(id))
		}
	}
	for _, limit := range []int{1, 4, 7, 36, 37, 100} {
		var stitched []Version
		from := PeerID(0)
		knownTotal := 0
		for {
			chunk, next, known := d.SummaryRange(from, limit)
			stitched = append(stitched, chunk...)
			knownTotal += known
			if next == None {
				break
			}
			if next != from+PeerID(len(chunk)) {
				t.Fatalf("limit %d: next = %d, want %d", limit, next, from+PeerID(len(chunk)))
			}
			from = next
		}
		if !reflect.DeepEqual(stitched, full) {
			t.Fatalf("limit %d: stitched chunks differ from the full vector", limit)
		}
		if knownTotal != d.NumKnown() {
			t.Fatalf("limit %d: known total %d, want %d", limit, knownTotal, d.NumKnown())
		}
	}
	// Degenerate cursors.
	if chunk, next, known := d.SummaryRange(37, 10); chunk != nil || next != None || known != 0 {
		t.Fatalf("out-of-range cursor returned %v %v %v", chunk, next, known)
	}
	if chunk, next, _ := d.SummaryRange(0, 0); chunk != nil || next != None {
		t.Fatalf("zero limit returned %v %v", chunk, next)
	}
}

// TestMissingRangeMatchesMissing: MissingRange over summary chunks must
// find exactly the ids it finds over the whole summary.
func TestMissingRangeMatchesMissing(t *testing.T) {
	local := New(0, 20)
	remote := New(1, 20)
	for id := PeerID(0); id < 20; id++ {
		remote.Upsert(rec(id, 2, 5))
		if id%2 == 0 {
			local.Upsert(rec(id, 2, 3)) // stale
		}
		if id%5 == 0 {
			local.Upsert(rec(id, 2, 9)) // newer locally
		}
	}
	full := local.MissingRange(summary(remote), 0)
	var chunked []NeedEntry
	from := PeerID(0)
	for {
		chunk, next, _ := remote.SummaryRange(from, 6)
		chunked = append(chunked, local.MissingRange(chunk, from)...)
		if next == None {
			break
		}
		from = next
	}
	if !reflect.DeepEqual(full, chunked) {
		t.Fatalf("chunked missing %v != full missing %v", chunked, full)
	}
	if local.MissingRange(summary(remote), -1) != nil {
		t.Fatal("negative base must yield nothing")
	}
}

// TestSetOnEvict: supersede and drop both notify, outside the lock, with
// the affected ids.
func TestSetOnEvict(t *testing.T) {
	d := New(0, 8)
	var evicted []PeerID
	d.SetOnEvict(func(ids []PeerID) {
		// Re-entering the directory here must not deadlock: the callback
		// contract is "outside the lock".
		d.NumKnown()
		evicted = append(evicted, ids...)
	})

	d.Upsert(colRec(1, 1, 1))
	if len(evicted) != 0 {
		t.Fatalf("fresh insert evicted %v", evicted)
	}
	d.Upsert(colRec(1, 1, 1)) // duplicate: rejected, no eviction
	if len(evicted) != 0 {
		t.Fatalf("rejected upsert evicted %v", evicted)
	}
	d.Upsert(colRec(1, 1, 2)) // newer: supersedes
	if !reflect.DeepEqual(evicted, []PeerID{1}) {
		t.Fatalf("supersede evicted %v, want [1]", evicted)
	}

	evicted = nil
	d.Upsert(colRec(2, 1, 1))
	d.Upsert(colRec(3, 1, 1))
	d.MarkOffline(2, time.Minute)
	d.MarkOffline(3, time.Minute)
	d.DropDead(time.Hour, 2*time.Hour)
	if !reflect.DeepEqual(evicted, []PeerID{2, 3}) {
		t.Fatalf("drop evicted %v, want [2 3] (sorted)", evicted)
	}
}

// TestPayloadAccessor: the filtercache source path returns payload+version
// only when a payload exists.
func TestPayloadAccessor(t *testing.T) {
	d := New(0, 4)
	if _, _, ok := d.Payload(1); ok {
		t.Fatal("unknown peer has payload")
	}
	d.Upsert(colRec(1, 1, 1))
	if _, _, ok := d.Payload(1); ok {
		t.Fatal("payload-free record reports a payload")
	}
	d.Upsert(Record{ID: 1, Ver: Version{Epoch: 1, Seq: 2}, Payload: []byte{9, 9}})
	p, ver, ok := d.Payload(1)
	if !ok || len(p) != 2 || ver != (Version{Epoch: 1, Seq: 2}) {
		t.Fatalf("Payload = %v %v %v", p, ver, ok)
	}
	if _, _, ok := d.Payload(-1); ok {
		t.Fatal("out-of-range id has payload")
	}
}

// TestAddressInterning: repeated upserts with equal (but distinct) address
// strings collapse to one canonical instance.
func TestAddressInterning(t *testing.T) {
	d := New(0, 4)
	a1 := string([]byte("10.0.0.1:4000"))
	a2 := string([]byte("10.0.0.1:4000"))
	d.Upsert(Record{ID: 1, Ver: Version{Epoch: 1, Seq: 1}, Addr: a1})
	d.Upsert(Record{ID: 2, Ver: Version{Epoch: 1, Seq: 1}, Addr: a2})
	r1, _ := d.Get(1)
	r2, _ := d.Get(2)
	if r1.Addr != "10.0.0.1:4000" || r2.Addr != "10.0.0.1:4000" {
		t.Fatalf("addresses lost: %q %q", r1.Addr, r2.Addr)
	}
	// Same backing storage: interning worked.
	if unsafeStringData(r1.Addr) != unsafeStringData(r2.Addr) {
		t.Fatal("equal addresses not interned to one instance")
	}
}

// TestOfflineSinceSparse: the off-line stamp round-trips through the
// sparse map and clears on every path back on-line.
func TestOfflineSinceSparse(t *testing.T) {
	d := New(0, 4)
	d.Upsert(colRec(1, 1, 1))
	d.MarkOffline(1, 42*time.Second)
	e, _ := d.Entry(1)
	if e.Online || e.OfflineSince != 42*time.Second {
		t.Fatalf("entry = %+v", e)
	}
	d.MarkOnline(1)
	e, _ = d.Entry(1)
	if !e.Online || e.OfflineSince != 0 {
		t.Fatalf("entry after MarkOnline = %+v", e)
	}
	d.MarkOffline(1, 50*time.Second)
	d.Upsert(colRec(1, 1, 2)) // accepted record flips on-line too
	e, _ = d.Entry(1)
	if !e.Online || e.OfflineSince != 0 {
		t.Fatalf("entry after upsert = %+v", e)
	}
}
