package transport

import (
	"encoding/binary"
	"reflect"
	"strings"
	"testing"

	"planetp/internal/bloom"
	"planetp/internal/directory"
	"planetp/internal/doc"
	"planetp/internal/gossip"
	"planetp/internal/search"
)

// addFrame adds env's frame to f's corpus.
func addFrame(f *testing.F, env *Envelope) {
	b, err := appendFrame(nil, env)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(b)
}

// retiredFrames are the previous protocol's hoard pull and its reply (kind
// bytes 18 and 19, now reserved), as a node of that protocol writes them.
var retiredFrames = [][]byte{
	[]byte("\x00\x00\x00\x01\x12\x02\x10"), // hot_docs, K = 8
	[]byte("\x00\x00\x00\x1c\x13\x02\x01!\xc9C\x03\xeb;\x9c\xfd\xc0}K^\xf3\xf2\x00o\xfd\x0e\x02\x00\x00\x00\x00\x00\x00\f@"), // hot_list
}

// FuzzEnvelopeDecode feeds arbitrary bytes to the frame decoder — exactly
// what a hostile peer can put on a transport connection. It must error or
// decode, never panic (the server's serve loop has no recover).
func FuzzEnvelopeDecode(f *testing.F) {
	for _, env := range everyKindFrames() {
		addFrame(f, &env)
	}
	for _, b := range retiredFrames {
		f.Add(b)
	}
	for _, rq := range hostileRankQueries {
		addFrame(f, &Envelope{Kind: KindQuery, Terms: []string{"a", "b"}, K: rq.K, N: rq.N, Nt: rq.Nt})
	}
	for _, b := range hostileReplies() {
		f.Add(b)
	}
	for _, payload := range hostileChainPayloads(f) {
		addFrame(f, &Envelope{Kind: KindGossip, From: 2, Gossip: &gossip.Message{
			Type: gossip.MsgRumor, From: 2,
			Updates: []directory.Record{{ID: 2, Ver: directory.Version{Epoch: 1, Seq: 3}, Payload: payload}},
		}})
	}
	fallback := &Transport{handler: twoDocs{newHandler(1)}}
	f.Add([]byte{})
	f.Add([]byte("GET / HTTP/1.1\r\n\r\n"))
	f.Add([]byte{0xff, 0x00, 0xff, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		env, err := decodeFrame(data)
		if err != nil {
			return
		}
		// Whatever decoded re-encodes, and decodes to the same value.
		b, err := appendFrame(nil, &env)
		if err != nil {
			t.Fatalf("re-encode of decoded envelope: %v", err)
		}
		again, err := decodeFrame(b)
		if err != nil || !reflect.DeepEqual(again, env) {
			t.Fatalf("re-encoded envelope decodes to %+v, %v; want %+v", again, err, env)
		}
		// A record's payload is a peer's word about its filter: whatever
		// chain it claims, reading it errs or decodes, never panics.
		if env.Gossip != nil {
			for _, rec := range env.Gossip.Updates {
				if _, err := bloom.ParseChain(rec.Payload); err == nil {
					_, _ = bloom.Decompress(rec.Payload)
				}
			}
		}
		// Whatever terms and rank header it carries, a handler that does
		// not rank is answered through the fall-back without a panic, with
		// no more documents than it matched, in rows a reply encodes.
		hits := fallback.answerQuery(&env)
		if len(hits) > 2 {
			t.Fatalf("rank header %d/%d/%v grew the answer to %d", env.K, env.N, env.Nt, len(hits))
		}
		if _, err := appendFrame(nil, &Envelope{Kind: KindQueryResp, Hits: hits}); err != nil {
			t.Fatalf("the fall-back's answer to %d/%d/%v does not encode: %v", env.K, env.N, env.Nt, err)
		}
	})
}

// hostileChainPayloads are record payloads claiming to be Bloom-filter
// chains: one whose segment count runs past the bytes left, and one whose
// segment holds a position at or past the filter's nbits.
func hostileChainPayloads(tb testing.TB) [][]byte {
	base := bloom.New(1024, 2)
	base.Insert("alpha")
	past, err := bloom.EncodeDiff([]uint64{1024 + 7}, 1024)
	if err != nil {
		tb.Fatal(err)
	}
	countPast := bloom.Chain{Epoch: 1, From: 2, Base: base.Compress()}.Encode()
	countPast[len(countPast)-1] = 0x7f // 127 segments, no bytes left
	posPast := bloom.Chain{Epoch: 1, From: 2, Base: base.Compress(), Segs: []bloom.Segment{{To: 3, Diff: past}}}.Encode()
	for _, b := range [][]byte{countPast, posPast} {
		if _, err := bloom.Decompress(b); err == nil {
			tb.Fatal("a hostile chain decodes")
		}
	}
	return [][]byte{countPast, posPast}
}

// twoDocs matches two documents, whatever the query.
type twoDocs struct{ *recordingHandler }

func (twoDocs) HandleQuery([]string, bool) []search.DocResult {
	return []search.DocResult{{Key: "a", TermFreqs: map[string]int{"a": 2}, DocLen: 3}, {Key: "b", DocLen: 1}}
}

// FuzzPeerExchangeDecode feeds arbitrary bytes through the peer-exchange
// reply path: decode the frame, then sanitize the record sample exactly as
// PeerExchange does, for any requested sample size. Whatever a hostile seed
// sends, sanitizing must not panic, and every surviving record must honor
// the bounds the directory relies on (wire bounds are checked before
// anything is trusted or allocated).
func FuzzPeerExchangeDecode(f *testing.F) {
	addFrame(f, &Envelope{Kind: KindPeers, Records: []directory.Record{
		{ID: 1, Ver: directory.Version{Epoch: 1, Seq: 3}, Addr: "127.0.0.1:9001"},
		{ID: 2, Ver: directory.Version{Epoch: 2}, Addr: "127.0.0.1:9002", Payload: []byte{7}},
	}})
	addFrame(f, &Envelope{Kind: KindPeers, Records: []directory.Record{{ID: -9, Addr: ""}}})
	addFrame(f, &Envelope{Kind: KindPeerExchange, K: 1 << 30})
	f.Add([]byte{})
	f.Add([]byte{0x42, 0xff, 0x81, 0x03})
	f.Fuzz(func(t *testing.T, data []byte) {
		env, err := decodeFrame(data)
		if err != nil {
			return
		}
		for _, max := range []int{-4, 0, 1, 8, MaxExchangeRecords, 1 << 30} {
			recs := SanitizePeerSample(env.Records, max)
			if len(recs) > MaxExchangeRecords {
				t.Fatalf("sanitized sample has %d records, hard bound is %d",
					len(recs), MaxExchangeRecords)
			}
			for _, rec := range recs {
				if rec.ID < 0 || rec.Ver.IsZero() {
					t.Fatalf("invalid record survived sanitizing: %+v", rec)
				}
				if rec.Addr == "" || len(rec.Addr) > MaxAddrLen {
					t.Fatalf("bad address survived sanitizing: %q", rec.Addr)
				}
				if rec.Payload != nil {
					t.Fatal("payload survived sanitizing")
				}
				if rec.PayloadSize < 0 || rec.DiffSize < 0 {
					t.Fatalf("negative sizes survived sanitizing: %+v", rec)
				}
			}
		}
	})
}

// FuzzKeyRoundTrip: any string walks as a key and back to itself,
// consuming exactly what it wrote, and travels packed — half its length
// in bytes, under an odd length prefix — exactly when it is non-empty, of
// even length and lowercase hex.
func FuzzKeyRoundTrip(f *testing.F) {
	for _, s := range []string{"", "a", "ab", "AB", "0f", "abc", "g0", "stub-17", doc.HashID("<doc/>"),
		strings.ToUpper(doc.HashID("<doc/>")), strings.Repeat("f", 300)} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		enc := codec{}
		enc.key(&s)
		prefix, n := binary.Uvarint(enc.buf)
		packed := prefix&1 == 1
		want := s != "" && len(s)%2 == 0 && strings.Trim(s, "0123456789abcdef") == ""
		if packed != want {
			t.Fatalf("%q: packed %v, want %v", s, packed, want)
		}
		size := len(s)
		if packed {
			size /= 2
		}
		if int(prefix>>1) != size || len(enc.buf) != n+size {
			t.Fatalf("%q: %d bytes under prefix %d, want %d key bytes", s, len(enc.buf), prefix, size)
		}
		dec := codec{buf: enc.buf, decode: true}
		var got string
		dec.key(&got)
		if dec.err != nil || len(dec.buf) != 0 || got != s {
			t.Fatalf("%q decodes to %q (%d bytes left, %v)", s, got, len(dec.buf), dec.err)
		}
	})
}
