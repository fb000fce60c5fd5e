package transport

import (
	"bytes"
	"encoding/gob"
	"testing"

	"planetp/internal/directory"
	"planetp/internal/gossip"
	"planetp/internal/search"
)

// FuzzEnvelopeDecode feeds arbitrary bytes to the gob envelope decoder —
// exactly what a hostile peer can put on a transport connection. It must
// error or decode, never panic (the server's serve loop has no recover).
func FuzzEnvelopeDecode(f *testing.F) {
	seed := func(env *Envelope) []byte {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(env); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	f.Add(seed(&Envelope{Kind: KindGossip, From: 1, Gossip: &gossip.Message{
		Type: gossip.MsgRumor, From: 1,
		Updates: []directory.Record{{ID: 1, Ver: directory.Version{Epoch: 1, Seq: 2},
			Addr: "127.0.0.1:9", Payload: []byte{1, 2, 3}}},
	}}))
	f.Add(seed(&Envelope{Kind: KindQuery, From: 0, Terms: []string{"a", "b"}, All: true}))
	f.Add(seed(&Envelope{Kind: KindRecord, From: 3}))
	for _, rq := range hostileRankQueries {
		f.Add(seed(&Envelope{Kind: KindQuery, From: 2, Terms: []string{"a", "b"}, K: rq.K, N: rq.N, Nt: rq.Nt}))
	}
	f.Add([]byte{})
	f.Add([]byte("GET / HTTP/1.1\r\n\r\n"))
	f.Add([]byte{0xff, 0x00, 0xff, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		var env Envelope
		if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&env); err != nil {
			return
		}
		// A decoded envelope must survive re-encoding (the fields are
		// all gob-encodable values, whatever the input was).
		if err := gob.NewEncoder(&bytes.Buffer{}).Encode(&env); err != nil {
			t.Fatalf("re-encode of decoded envelope: %v", err)
		}
		// Whatever rank header it carries, cutting an answer by it neither
		// panics nor grows the answer.
		docs := []search.DocResult{{Key: "a", TermFreqs: map[string]int{"a": 2}, DocLen: 3}, {Key: "b", DocLen: 1}}
		if got := search.TopDocs(docs, env.Terms, search.RankQuery{K: env.K, N: env.N, Nt: env.Nt}); len(got) > len(docs) {
			t.Fatalf("rank header %d/%d/%v grew the answer to %d", env.K, env.N, env.Nt, len(got))
		}
	})
}

// FuzzPeerExchangeDecode feeds arbitrary bytes through the peer-exchange
// reply path: gob-decode the envelope, then sanitize the record sample
// exactly as PeerExchange does. Whatever a hostile seed sends, sanitizing
// must not panic, and every surviving record must honor the bounds the
// directory relies on (wire bounds are checked before anything is
// trusted or allocated).
func FuzzPeerExchangeDecode(f *testing.F) {
	seed := func(env *Envelope) []byte {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(env); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	f.Add(seed(&Envelope{Kind: KindPeers, From: 2, K: 8, Records: []directory.Record{
		{ID: 1, Ver: directory.Version{Epoch: 1, Seq: 3}, Addr: "127.0.0.1:9001"},
		{ID: 2, Ver: directory.Version{Epoch: 2}, Addr: "127.0.0.1:9002", Payload: []byte{7}},
	}}))
	f.Add(seed(&Envelope{Kind: KindPeers, K: -4, Records: []directory.Record{
		{ID: -9, Addr: ""},
	}}))
	f.Add(seed(&Envelope{Kind: KindPeerExchange, From: 1, K: 1 << 30}))
	f.Add([]byte{})
	f.Add([]byte{0x42, 0xff, 0x81, 0x03})
	f.Fuzz(func(t *testing.T, data []byte) {
		var env Envelope
		if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&env); err != nil {
			return
		}
		recs := SanitizePeerSample(env.Records, env.K)
		if len(recs) > MaxExchangeRecords {
			t.Fatalf("sanitized sample has %d records, hard bound is %d",
				len(recs), MaxExchangeRecords)
		}
		for _, rec := range recs {
			if rec.ID < 0 || rec.Ver.IsZero() {
				t.Fatalf("invalid record survived sanitizing: %+v", rec)
			}
			if rec.Addr == "" || len(rec.Addr) > maxExchangeAddr {
				t.Fatalf("bad address survived sanitizing: %q", rec.Addr)
			}
			if rec.Payload != nil {
				t.Fatal("payload survived sanitizing")
			}
			if rec.PayloadSize < 0 || rec.DiffSize < 0 {
				t.Fatalf("negative sizes survived sanitizing: %+v", rec)
			}
		}
	})
}
