package transport

import (
	"strings"
	"testing"

	"planetp/internal/directory"
)

func exRec(id directory.PeerID, addr string) directory.Record {
	return directory.Record{ID: id, Ver: directory.Version{Epoch: 1, Seq: 1}, Addr: addr}
}

// TestPeerExchangeRoundTrip: the RPC carries the served sample across the
// wire, both by peer id and by raw address (the bootstrap path).
func TestPeerExchangeRoundTrip(t *testing.T) {
	ta, _, tb, hb := pair(t)
	hb.mu.Lock()
	hb.sample = []directory.Record{exRec(1, "127.0.0.1:9001"), exRec(2, "127.0.0.1:9002")}
	hb.mu.Unlock()

	recs, err := ta.PeerExchange(1, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].ID != 1 || recs[1].ID != 2 {
		t.Fatalf("recs = %+v", recs)
	}
	recs, err = ta.PeerExchangeAddr(tb.Addr(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("addr exchange recs = %+v, want the server-side clamp to 1", recs)
	}
}

// TestPeerExchangeServerClamp: the request's sample size is clamped
// server-side before it touches the handler — a hostile K cannot size an
// allocation or pull an unbounded sample.
func TestPeerExchangeServerClamp(t *testing.T) {
	ta, _, _, hb := pair(t)
	big := make([]directory.Record, 2*MaxExchangeRecords)
	for i := range big {
		big[i] = exRec(directory.PeerID(i), "127.0.0.1:9000")
	}
	hb.mu.Lock()
	hb.sample = big
	hb.mu.Unlock()

	recs, err := ta.PeerExchange(1, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != MaxExchangeRecords {
		t.Fatalf("got %d records, want the hard bound %d", len(recs), MaxExchangeRecords)
	}
}

func TestClampExchange(t *testing.T) {
	cases := [][2]int{{-5, 1}, {0, 1}, {1, 1}, {16, 16}, {MaxExchangeRecords, MaxExchangeRecords}, {1 << 20, MaxExchangeRecords}}
	for _, c := range cases {
		if got := clampExchange(c[0]); got != c[1] {
			t.Errorf("clampExchange(%d) = %d, want %d", c[0], got, c[1])
		}
	}
}

func TestSanitizePeerSample(t *testing.T) {
	good := exRec(3, "127.0.0.1:9003")
	withPayload := exRec(4, "127.0.0.1:9004")
	withPayload.Payload = []byte{1, 2, 3}
	bad := []directory.Record{
		{ID: -1, Ver: directory.Version{Epoch: 1}, Addr: "x:1"}, // negative id
		{ID: 5, Addr: "x:1"},                             // zero version
		{ID: 6, Ver: directory.Version{Epoch: 1}},        // no address
		exRec(7, strings.Repeat("a", maxExchangeAddr+1)), // oversized address
		{ID: 8, Ver: directory.Version{Epoch: 1}, Addr: "x:1", PayloadSize: -1},
		{ID: 9, Ver: directory.Version{Epoch: 1}, Addr: "x:1", DiffSize: -9},
	}
	in := append([]directory.Record{good, withPayload}, bad...)
	out := SanitizePeerSample(in, 16)
	if len(out) != 2 || out[0].ID != 3 || out[1].ID != 4 {
		t.Fatalf("out = %+v, want only records 3 and 4", out)
	}
	if out[1].Payload != nil {
		t.Fatal("payload not stripped from surviving record")
	}
	if in[1].Payload == nil {
		t.Fatal("input slice modified")
	}

	// max truncates the survivors, and the hard bound truncates the input.
	if out := SanitizePeerSample(in, 1); len(out) != 1 {
		t.Fatalf("max=1 gave %d records", len(out))
	}
	huge := make([]directory.Record, 3*MaxExchangeRecords)
	for i := range huge {
		huge[i] = exRec(directory.PeerID(i), "127.0.0.1:9000")
	}
	if out := SanitizePeerSample(huge, 1<<30); len(out) != MaxExchangeRecords {
		t.Fatalf("hard bound gave %d records", len(out))
	}
}
