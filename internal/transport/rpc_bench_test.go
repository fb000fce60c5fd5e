package transport

import (
	"bytes"
	"fmt"
	"testing"

	"planetp/internal/directory"
	"planetp/internal/gossip"
	"planetp/internal/search"
)

// benchHandler answers every ranked query with the same documents and
// drops gossip, so neither the handler nor a growing log is measured.
type benchHandler struct {
	*recordingHandler
	docs []search.DocResult
}

func (h benchHandler) HandleGossip(directory.PeerID, *gossip.Message) {}

func (h benchHandler) HandleRankedQuery([]string, search.RankQuery) []search.DocResult {
	return h.docs
}

// benchClient starts a server for h on loopback and returns a client
// that resolves peer 1 to it.
func benchClient(b *testing.B, h benchHandler) *Transport {
	b.Helper()
	srv, err := New(1, "", h, nil, 1, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(srv.Close)
	cl, err := New(0, "", newHandler(0), func(directory.PeerID) (string, bool) { return srv.Addr(), true }, 2, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(cl.Close)
	return cl
}

// BenchmarkQueryRPC is one ranked search leg: a 3-term QueryRanked
// answered with 10 documents over a pooled loopback conn.
func BenchmarkQueryRPC(b *testing.B) {
	terms := []string{"gossip", "bloom", "filter"}
	docs := make([]search.DocResult, 10)
	for i := range docs {
		docs[i] = search.DocResult{Peer: 1, Key: fmt.Sprintf("%040x", i*7919),
			TermFreqs: map[string]int{terms[0]: 1 + i%3, terms[1]: 2, terms[2]: 1 + i%2}, DocLen: 80 + i}
	}
	cl := benchClient(b, benchHandler{recordingHandler: newHandler(1), docs: docs})
	rq := search.RankQuery{K: 10, N: 4, Nt: []int{3, 2, 4}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got, err := cl.QueryRanked(1, terms, rq); err != nil || len(got) != len(docs) {
			b.Fatalf("%d docs, %v", len(got), err)
		}
	}
}

// BenchmarkGossipRecordsRPC is one anti-entropy pull reply: MsgRecords
// carrying 16 records with 2.5 KB filters, acked.
func BenchmarkGossipRecordsRPC(b *testing.B) {
	cl := benchClient(b, benchHandler{recordingHandler: newHandler(1)})
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
