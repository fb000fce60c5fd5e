package core

import (
	"testing"

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
