package directory

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func rec(id PeerID, epoch, seq uint32) Record {
	return Record{ID: id, Ver: Version{Epoch: epoch, Seq: seq}}
}

func TestVersionOrdering(t *testing.T) {
	cases := []struct {
		a, b Version
		less bool
	}{
		{Version{1, 0}, Version{1, 1}, true},
		{Version{1, 5}, Version{2, 0}, true},
		{Version{2, 0}, Version{1, 9}, false},
		{Version{1, 1}, Version{1, 1}, false},
	}
	for _, c := range cases {
		if got := c.a.Less(c.b); got != c.less {
			t.Errorf("%v.Less(%v) = %v, want %v", c.a, c.b, got, c.less)
		}
	}
	if !(Version{}).IsZero() || (Version{1, 0}).IsZero() {
		t.Error("IsZero broken")
	}
}

func TestUpsertNewAndStale(t *testing.T) {
	d := New(0, 10)
	if !d.Upsert(rec(3, 1, 0)) {
		t.Fatal("fresh record rejected")
	}
	if d.Upsert(rec(3, 1, 0)) {
		t.Fatal("same version accepted as news")
	}
	if d.Upsert(rec(3, 1, 0)) {
		t.Fatal("duplicate accepted")
	}
	if !d.Upsert(rec(3, 1, 1)) {
		t.Fatal("newer seq rejected")
	}
	if d.Upsert(rec(3, 1, 0)) {
		t.Fatal("stale record accepted")
	}
	if !d.Upsert(rec(3, 2, 0)) {
		t.Fatal("newer epoch rejected")
	}
	if d.NumKnown() != 1 {
		t.Fatalf("NumKnown = %d", d.NumKnown())
	}
}

func TestUpsertOutOfRange(t *testing.T) {
	d := New(0, 4)
	if d.Upsert(rec(99, 1, 0)) || d.Upsert(rec(-2, 1, 0)) {
		t.Fatal("out-of-range record accepted")
	}
}

func TestDigestTracksState(t *testing.T) {
	a := New(0, 16)
	b := New(1, 16)
	if a.Digest() != b.Digest() {
		t.Fatal("empty directories should agree")
	}
	a.Upsert(rec(2, 1, 0))
	if a.Digest() == b.Digest() {
		t.Fatal("digests should diverge after upsert")
	}
	b.Upsert(rec(2, 1, 0))
	if a.Digest() != b.Digest() {
		t.Fatal("same state, different digest")
	}
	// Order independence.
	a.Upsert(rec(3, 1, 0))
	a.Upsert(rec(4, 2, 7))
	b.Upsert(rec(4, 2, 7))
	b.Upsert(rec(3, 1, 0))
	if a.Digest() != b.Digest() {
		t.Fatal("digest should be order independent")
	}
	// Offline status must not affect digest.
	a.MarkOffline(3, time.Second)
	if a.Digest() != b.Digest() {
		t.Fatal("offline opinion changed digest")
	}
}

func TestOfflineOnlineAccounting(t *testing.T) {
	d := New(0, 8)
	d.Upsert(rec(1, 1, 0))
	d.Upsert(rec(2, 1, 0))
	if d.NumOnline() != 2 {
		t.Fatalf("NumOnline = %d, want 2", d.NumOnline())
	}
	d.MarkOffline(1, 10*time.Second)
	if d.NumOnline() != 1 {
		t.Fatalf("after MarkOffline NumOnline = %d", d.NumOnline())
	}
	d.MarkOffline(1, 20*time.Second) // idempotent
	if d.NumOnline() != 1 {
		t.Fatal("double MarkOffline changed count")
	}
	e, _ := d.Entry(1)
	if e.Online || e.OfflineSince != 10*time.Second {
		t.Fatalf("entry = %+v", e)
	}
	d.MarkOnline(1)
	if d.NumOnline() != 2 {
		t.Fatal("MarkOnline did not restore")
	}
	// A newer record also brings a peer back online.
	d.MarkOffline(2, 30*time.Second)
	d.Upsert(rec(2, 1, 1))
	e, _ = d.Entry(2)
	if !e.Online {
		t.Fatal("newer record should mark online")
	}
}

func TestDropDead(t *testing.T) {
	d := New(0, 8)
	d.Upsert(rec(1, 1, 0))
	d.Upsert(rec(2, 1, 0))
	d.MarkOffline(1, 0)
	dropped := d.DropDead(time.Hour, 30*time.Minute)
	if len(dropped) != 0 {
		t.Fatalf("dropped too early: %v", dropped)
	}
	dropped = d.DropDead(time.Hour, time.Hour)
	if len(dropped) != 1 || dropped[0] != 1 {
		t.Fatalf("dropped = %v, want [1]", dropped)
	}
	if _, ok := d.Get(1); ok {
		t.Fatal("dropped record still present")
	}
	if d.NumKnown() != 1 {
		t.Fatalf("NumKnown = %d", d.NumKnown())
	}
	// Digest must now equal a directory that never saw peer 1.
	fresh := New(0, 8)
	fresh.Upsert(rec(2, 1, 0))
	if fresh.Digest() != d.Digest() {
		t.Fatal("digest not restored after drop")
	}
}

// summary is d's whole dense version vector.
func summary(d *Directory) []Version {
	s, _, _ := d.SummaryRange(0, d.Capacity())
	return s
}

func TestSummaryAndMissing(t *testing.T) {
	d := New(0, 6)
	d.Upsert(rec(0, 1, 0))
	d.Upsert(rec(2, 3, 1))
	s1 := summary(d)
	if !s1[1].IsZero() || s1[2] != (Version{3, 1}) {
		t.Fatalf("summary = %v", s1)
	}
	d.Upsert(rec(4, 1, 0))
	if s3 := summary(d); s3[4].IsZero() {
		t.Fatal("summary misses the latest upsert")
	}

	other := New(1, 6)
	other.Upsert(rec(2, 3, 0)) // older than d's
	need := other.MissingRange(summary(d), 0)
	// other needs: 0 (unknown), 2 (older), 4 (unknown)
	if len(need) != 3 {
		t.Fatalf("need = %v", need)
	}
	if need[1].ID != 2 || need[1].Have != (Version{3, 0}) {
		t.Fatalf("need[1] = %+v", need[1])
	}
	// d needs nothing from other.
	if n := d.MissingRange(summary(other), 0); len(n) != 0 {
		t.Fatalf("d should need nothing, got %v", n)
	}
}

func TestMetaAddrPayload(t *testing.T) {
	d := New(0, 4)
	d.Upsert(Record{ID: 1, Ver: Version{1, 0}, Addr: "host:1", Payload: []byte{1, 2}})
	got, ok := d.Get(1)
	if !ok || got.Addr != "host:1" || len(got.Payload) != 2 {
		t.Fatalf("got %+v", got)
	}
	// Updating without addr keeps the old one.
	d.Upsert(Record{ID: 1, Ver: Version{1, 1}})
	got, _ = d.Get(1)
	if got.Addr != "host:1" {
		t.Fatal("addr lost on metadata-less update")
	}
}

func TestPickOnline(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := New(0, 100)
	for i := 0; i < 100; i++ {
		class := Fast
		if i%10 == 0 {
			class = Slow
		}
		d.Upsert(Record{ID: PeerID(i), Ver: Version{1, 0}, Class: class})
	}
	seen := map[PeerID]bool{}
	for i := 0; i < 2000; i++ {
		id, ok := d.PickOnline(rng, nil)
		if !ok {
			t.Fatal("no pick")
		}
		if id == 0 {
			t.Fatal("picked self")
		}
		seen[id] = true
	}
	if len(seen) < 90 {
		t.Fatalf("pick not spread: only %d distinct", len(seen))
	}
	// Class filter.
	for i := 0; i < 200; i++ {
		id, ok := d.PickOnline(rng, func(_ PeerID, e Entry) bool { return e.Class == Slow })
		if !ok {
			t.Fatal("no slow pick")
		}
		if id%10 != 0 {
			t.Fatalf("picked non-slow %d", id)
		}
	}
}

func TestPickOnlineExhaustedAndFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	d := New(0, 50)
	if _, ok := d.PickOnline(rng, nil); ok {
		t.Fatal("pick from empty directory succeeded")
	}
	d.Upsert(rec(0, 1, 0)) // only self
	if _, ok := d.PickOnline(rng, nil); ok {
		t.Fatal("self-only directory should fail to pick")
	}
	// One eligible peer among many offline: exercises the scan fallback.
	for i := 1; i < 50; i++ {
		d.Upsert(rec(PeerID(i), 1, 0))
		if i != 7 {
			d.MarkOffline(PeerID(i), 0)
		}
	}
	for i := 0; i < 20; i++ {
		id, ok := d.PickOnline(rng, nil)
		if !ok || id != 7 {
			t.Fatalf("pick = %d,%v want 7", id, ok)
		}
	}
}

func TestOnlineAndKnownIDs(t *testing.T) {
	d := New(0, 8)
	d.Upsert(rec(1, 1, 0))
	d.Upsert(rec(5, 1, 0))
	d.MarkOffline(5, 0)
	on := d.OnlineIDs()
	if len(on) != 1 || on[0] != 1 {
		t.Fatalf("OnlineIDs = %v", on)
	}
	known := d.KnownIDs()
	if len(known) != 2 {
		t.Fatalf("KnownIDs = %v", known)
	}
}

// TestOnlinePayloadsIsOnePerPeerRead: the sweep's one read returns what
// OnlineIDs and a Payload per id return on a quiet directory — off-line
// peers left out, a filterless one with a nil payload.
func TestOnlinePayloadsIsOnePerPeerRead(t *testing.T) {
	d := New(0, 8)
	d.Upsert(Record{ID: 1, Ver: Version{Epoch: 1, Seq: 3}, Payload: []byte{1}})
	d.Upsert(rec(2, 1, 0)) // no filter
	d.Upsert(Record{ID: 5, Ver: Version{Epoch: 2, Seq: 1}, Payload: []byte{5}})
	d.Upsert(Record{ID: 6, Ver: Version{Epoch: 1, Seq: 1}, Payload: []byte{6}})
	d.MarkOffline(6, 0)
	gen, ids, vers, payloads := d.OnlinePayloads()
	if gen != d.Generation() {
		t.Fatalf("OnlinePayloads read at generation %d, the directory is at %d", gen, d.Generation())
	}
	want := d.OnlineIDs()
	if len(ids) != len(want) || len(vers) != len(ids) || len(payloads) != len(ids) {
		t.Fatalf("OnlinePayloads = %v, %v, %v; OnlineIDs = %v", ids, vers, payloads, want)
	}
	for i, id := range want {
		payload, ver, _ := d.Payload(id)
		if ids[i] != id || vers[i] != ver || string(payloads[i]) != string(payload) || (payloads[i] == nil) != (payload == nil) {
			t.Fatalf("row %d = (%d, %v, %v), want (%d, %v, %v)", i, ids[i], vers[i], payloads[i], id, ver, payload)
		}
	}
}

// Property: after any sequence of upserts, two directories that applied
// the same set (in any order) have equal digests and summaries.
func TestQuickDigestConvergence(t *testing.T) {
	f := func(ops []struct {
		ID    uint8
		Epoch uint8
		Seq   uint8
	}, seed int64) bool {
		a := New(0, 256)
		b := New(1, 256)
		for _, op := range ops {
			r := rec(PeerID(op.ID), uint32(op.Epoch)+1, uint32(op.Seq))
			a.Upsert(r)
		}
		// Apply to b in shuffled order.
		rng := rand.New(rand.NewSource(seed))
		shuffled := make([]int, len(ops))
		for i := range shuffled {
			shuffled[i] = i
		}
		rng.Shuffle(len(shuffled), func(i, j int) {
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		})
		for _, i := range shuffled {
			op := ops[i]
			b.Upsert(rec(PeerID(op.ID), uint32(op.Epoch)+1, uint32(op.Seq)))
		}
		if a.Digest() != b.Digest() {
			return false
		}
		sa, sb := summary(a), summary(b)
		for i := range sa {
			if sa[i] != sb[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestTombstoneBlocksResurrection: after DropDead collects a record, the
// death certificate must reject re-learning any version up to the dropped
// one (otherwise anti-entropy with a peer that has not yet dropped it
// resurrects the dead record forever), while a genuine rejoin — a higher
// epoch — supersedes the certificate.
func TestTombstoneBlocksResurrection(t *testing.T) {
	d := New(0, 8)
	d.Upsert(rec(1, 2, 7))
	d.MarkOffline(1, 0)
	if dropped := d.DropDead(time.Hour, time.Hour); len(dropped) != 1 {
		t.Fatalf("dropped = %v, want [1]", dropped)
	}
	if d.Upsert(rec(1, 2, 7)) {
		t.Fatal("dropped version resurrected")
	}
	if d.Upsert(rec(1, 2, 3)) {
		t.Fatal("older-than-dropped version resurrected")
	}
	if d.NumKnown() != 0 || !d.VersionOf(1).IsZero() {
		t.Fatal("certificate did not keep the record out")
	}
	if !d.Upsert(rec(1, 3, 0)) {
		t.Fatal("genuine rejoin (higher epoch) rejected by certificate")
	}
	if d.VersionOf(1) != (Version{3, 0}) || d.NumKnown() != 1 {
		t.Fatalf("rejoin not applied: %v", d.VersionOf(1))
	}
	// The certificate is consumed by the rejoin: dropping the new
	// incarnation writes a fresh one at the new version.
	d.MarkOffline(1, 2*time.Hour)
	d.DropDead(time.Hour, 3*time.Hour)
	if d.Upsert(rec(1, 3, 0)) {
		t.Fatal("re-dropped version resurrected")
	}
}

// TestTombstoneSkipsMissing: anti-entropy must not keep pulling a record
// the local replica has certified dead — Missing skips summary entries at
// or below the certificate's version.
func TestTombstoneSkipsMissing(t *testing.T) {
	d := New(0, 8)
	d.Upsert(rec(1, 2, 7))
	d.MarkOffline(1, 0)
	d.DropDead(time.Hour, time.Hour)

	holder := New(2, 8)
	holder.Upsert(rec(2, 1, 0)) // holder's own record
	holder.Upsert(rec(1, 2, 7))
	if need := d.MissingRange(summary(holder), 0); len(need) != 1 || need[0].ID != 2 {
		t.Fatalf("need = %v, want only the holder's own record", need)
	}
	// A rejoined incarnation in the summary is wanted again.
	holder.Upsert(rec(1, 3, 0))
	need := d.MissingRange(summary(holder), 0)
	found := false
	for _, nd := range need {
		if nd.ID == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("rejoined incarnation not pulled: need = %v", need)
	}
}
