package core

import (
	"fmt"
	"testing"

	"planetp/internal/chash"
	"planetp/internal/directory"
)

// A superseded directory record is the normal case: every publish bumps
// the peer's Seq, and a restart its Epoch. At the same address it leaves the
// peer's pooled conn in use: the next RPC dials nothing.
func TestSupersededRecordKeepsPooledConn(t *testing.T) {
	peers := quietCommunity(t, 2, 0)
	p := peers[0]
	dials := func() int64 { return p.Metrics().Snapshot().Get("transport_dials_total") }
	if _, err := p.tp.Query(1, []string{"x"}, false); err != nil {
		t.Fatal(err)
	}
	for _, bump := range []struct {
		name string
		ver  func(*directory.Version)
	}{
		{"Seq + 1", func(v *directory.Version) { v.Seq++ }},
		{"Epoch + 1", func(v *directory.Version) { v.Epoch, v.Seq = v.Epoch+1, 0 }},
	} {
		rec, ok := p.dir.Get(1)
		if !ok {
			t.Fatal("peer 1 missing from the directory")
		}
		bump.ver(&rec.Ver)
		before := dials()
		p.dir.Upsert(rec)
		if got := p.dir.VersionOf(1); got != rec.Ver {
			t.Fatalf("%s: the directory holds %v, want %v", bump.name, got, rec.Ver)
		}
		if _, err := p.tp.Query(1, []string{"x"}, false); err != nil {
			t.Fatal(err)
		}
		if got := dials() - before; got != 0 {
			t.Fatalf("%s: the RPC after the supersede dialed %d times, want 0", bump.name, got)
		}
	}
}

// A peer stopped behind a warm pooled conn: the oneway's exchange on that
// conn fails, its one re-dial is refused, and the peer takes exactly one
// strike for the send — it stays on-line until a second.
func TestStoppedPeerBehindWarmConnTakesOneStrike(t *testing.T) {
	peers := quietCommunity(t, 2, 0)
	p, target := peers[0], peers[1].id
	var key string
	for i := 0; key == ""; i++ {
		k := fmt.Sprintf("key%d", i)
		if _, owner, _ := p.brokerRing().Successor(chash.Hash(k)); owner == target {
			key = k
		}
	}
	p.brokerWatch([]string{key})
	peers[1].Stop()
	snap := func(name string) int64 { return p.Metrics().Snapshot().Get(name) }
	before := snap("transport_dials_total")
	p.brokerWatch([]string{key})
	if got := snap("gossip_failed_sends_total"); got != 1 {
		t.Fatalf("failed sends = %d, want 1 strike", got)
	}
	if e, _ := p.dir.Entry(target); !e.Online {
		t.Fatal("one failed send marked the peer off-line")
	}
	if got := snap("transport_pool_redials_total"); got != 1 {
		t.Fatalf("redials = %d, want 1", got)
	}
	if got := snap("transport_dials_total") - before; got != 1 {
		t.Fatalf("dials = %d, want the 1 refused re-dial", got)
	}
}
