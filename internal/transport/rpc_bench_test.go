package transport

import (
	"bytes"
	"fmt"
	"testing"

	"planetp/internal/directory"
	"planetp/internal/gossip"
	"planetp/internal/search"
)

// rowsHandler answers every ranked query with the same rows and drops
// gossip, so neither the handler nor a growing log is measured.
type rowsHandler struct {
	*recordingHandler
	hits []search.Hit
}

func (h rowsHandler) HandleGossip(directory.PeerID, *gossip.Message) {}

func (h rowsHandler) HandleRankedQuery([]string, search.RankQuery) []search.Hit {
	return h.hits
}

// rowsClient starts a server for h on loopback and returns a client that
// resolves peer 1 to it.
func rowsClient(tb testing.TB, h rowsHandler) *Transport {
	tb.Helper()
	srv, err := New(1, "", h, nil, 1, nil)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(srv.Close)
	cl, err := New(0, "", newHandler(0), func(directory.PeerID) (string, bool) { return srv.Addr(), true }, 2, nil)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(cl.Close)
	return cl
}

// queryRPC is one ranked search leg: a 3-term QueryRanked answered with 10
// documents' rows, and a client to ask it over.
func queryRPC(tb testing.TB) (*Transport, []string, search.RankQuery) {
	hits := make([]search.Hit, 10)
	for i := range hits {
		hits[i] = search.Hit{Key: fmt.Sprintf("%040x", i*7919), DocLen: 80 + i,
			Freqs: []uint32{uint32(2), uint32(1 + i%2), uint32(1 + i%3)}}
	}
	cl := rowsClient(tb, rowsHandler{recordingHandler: newHandler(1), hits: hits})
	return cl, []string{"gossip", "bloom", "filter"}, search.RankQuery{K: 10, N: 4, Nt: []int{3, 2, 4}}
}

// BenchmarkQueryRPC is one ranked search leg over a pooled loopback conn.
func BenchmarkQueryRPC(b *testing.B) {
	cl, terms, rq := queryRPC(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got, err := cl.QueryRanked(1, terms, rq); err != nil || len(got) != 10 {
			b.Fatalf("%d docs, %v", len(got), err)
		}
	}
}

// BenchmarkGossipRecordsRPC is one anti-entropy pull reply: MsgRecords
// carrying 16 records with 2.5 KB filters, acked.
func BenchmarkGossipRecordsRPC(b *testing.B) {
	cl := rowsClient(b, rowsHandler{recordingHandler: newHandler(1)})
	msg := &gossip.Message{Type: gossip.MsgRecords, From: 0}
	for i := 0; i < 16; i++ {
		msg.Updates = append(msg.Updates, directory.Record{
			ID: directory.PeerID(i), Ver: directory.Version{Epoch: 1, Seq: uint32(i)},
			Addr: fmt.Sprintf("127.0.0.1:%d", 7000+i), PayloadSize: 2500,
			Payload: bytes.Repeat([]byte{byte(i), 0x5a}, 1250)})
		msg.AsDiff = append(msg.AsDiff, i%2 == 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cl.Send(1, msg); err != nil {
			b.Fatal(err)
		}
	}
}

// TestQueryRPCAllocs bounds BenchmarkQueryRPC's leg, both ends together:
// 13 allocations measured (17 while a pooled checkout's staleness peek
// allocated, 50 when each document came back as a map). The bound leaves a
// quarter for runtime noise; one allocation a document more, such as a key
// each, exceeds it.
func TestQueryRPCAllocs(t *testing.T) {
	cl, terms, rq := queryRPC(t)
	if n := testing.AllocsPerRun(200, func() { _, _ = cl.QueryRanked(1, terms, rq) }); n > 16 {
		t.Fatalf("a ranked query leg allocates %v times, want at most 16", n)
	}
}
