package broker

import (
	"testing"
	"time"
)

// vclock is a controllable test clock.
type vclock struct{ now time.Duration }

func (c *vclock) fn() func() time.Duration { return func() time.Duration { return c.now } }

func snip(id string, keys ...string) Snippet {
	return Snippet{ID: id, XML: "<s>" + id + "</s>", Keys: keys}
}

func TestSnippetKeys(t *testing.T) {
	s := snip("a", "x", "y")
	if !s.HasKey("x") || s.HasKey("z") {
		t.Fatal("HasKey broken")
	}
	if !s.HasAllKeys([]string{"x", "y"}) || s.HasAllKeys([]string{"x", "z"}) {
		t.Fatal("HasAllKeys broken")
	}
	if !s.HasAllKeys(nil) {
		t.Fatal("empty conjunction is vacuously true")
	}
}

func TestBrokerPutGetExpiry(t *testing.T) {
	c := &vclock{}
	b := NewBroker(c.fn())
	b.Put("k", snip("s1", "k"), 10*time.Minute)
	if got := b.Get("k"); len(got) != 1 || got[0].ID != "s1" {
		t.Fatalf("Get = %v", got)
	}
	c.now = 9 * time.Minute
	if got := b.Get("k"); len(got) != 1 {
		t.Fatal("expired too early")
	}
	c.now = 10 * time.Minute
	if got := b.Get("k"); len(got) != 0 {
		t.Fatal("snippet outlived its discard time")
	}
	if b.Len() != 0 {
		t.Fatalf("Len = %d after expiry", b.Len())
	}
}

func TestBrokerSweep(t *testing.T) {
	c := &vclock{}
	b := NewBroker(c.fn())
	b.Put("k1", snip("s1", "k1"), time.Minute)
	b.Put("k2", snip("s2", "k2"), time.Hour)
	c.now = 2 * time.Minute
	if n := b.Sweep(); n != 1 {
		t.Fatalf("Sweep = %d, want 1", n)
	}
	if b.Len() != 1 {
		t.Fatalf("Len = %d", b.Len())
	}
}

func TestExport(t *testing.T) {
	c := &vclock{}
	b := NewBroker(c.fn())
	b.Put("k1", snip("s1", "k1"), time.Hour)
	b.Put("k2", snip("s2", "k2"), time.Minute)
	c.now = 2 * time.Minute // s2 expired
	exported := b.Export()
	// The absolute expiry travels with the entry.
	if len(exported) != 1 || exported[0].Sn.ID != "s1" || exported[0].Key != "k1" || exported[0].Expires != time.Hour {
		t.Fatalf("exported = %+v", exported)
	}
	if b.Len() != 0 {
		t.Fatal("export did not drain")
	}
}

// TestBrokerPutRepeatRefreshes: a put of a snippet ID its key already
// holds — a retried batch, a flood — refreshes that one entry's snippet
// and expiry and is not new; the same ID under another key is, and so is
// a repeat once the entry has expired.
func TestBrokerPutRepeatRefreshes(t *testing.T) {
	c := &vclock{}
	b := NewBroker(c.fn())
	if !b.Put("k", snip("s1", "k"), time.Minute) {
		t.Fatal("first put not new")
	}
	c.now = 30 * time.Second
	again := snip("s1", "k")
	again.XML = "<s>refreshed</s>"
	for i := 0; i < 3; i++ {
		if b.Put("k", again, time.Minute) {
			t.Fatal("repeat put reported new")
		}
	}
	if b.Len() != 1 {
		t.Fatalf("Len = %d after repeats, want 1", b.Len())
	}
	c.now = 80 * time.Second // past the first put's expiry, not the repeat's
	if got := b.Get("k"); len(got) != 1 || got[0].XML != again.XML {
		t.Fatalf("Get = %v, want the refreshed snippet once", got)
	}
	if !b.Put("k2", snip("s1", "k2"), time.Minute) {
		t.Fatal("the snippet under a second key not new")
	}
	c.now = 200 * time.Second
	if !b.Put("k", snip("s1", "k"), time.Minute) {
		t.Fatal("a put after its entry expired not new")
	}
	if got := b.Get("k"); len(got) != 1 {
		t.Fatalf("Get = %v after re-put, want one entry", got)
	}
}
