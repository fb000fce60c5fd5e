package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"net"
	"reflect"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"planetp/internal/broker"
	"planetp/internal/directory"
	"planetp/internal/gossip"
	"planetp/internal/replica"
	"planetp/internal/search"
)

// everyKindFrames holds one envelope per Kind with every field that kind
// carries populated, one KindGossip envelope per MsgType, and an error
// reply.
func everyKindFrames() []Envelope {
	v := func(e, s uint32) directory.Version { return directory.Version{Epoch: e, Seq: s} }
	recs := []directory.Record{
		{ID: 3, Ver: v(2, 7), Class: directory.Slow, Addr: "127.0.0.1:7003",
			PayloadSize: 40, DiffSize: 4, Payload: bytes.Repeat([]byte{0xa5, 1}, 20)},
		{ID: 0, Ver: v(1, 0), Addr: "h:1"},
		{ID: 1 << 30, Ver: v(1<<32-1, 1<<32-1), Payload: []byte{0}},
	}
	sn := broker.Snippet{ID: "sn-1", Owner: -1, XML: "<doc>x</doc>", Keys: []string{"alpha", "beta"}}
	docs := []search.DocResult{
		{Peer: 2, Key: "k1", TermFreqs: map[string]int{"alpha": 3, "beta": 1}, DocLen: 40},
		{Peer: 2, Key: "k2", TermFreqs: map[string]int{"gamma": 1 << 40}, DocLen: 1},
		{Key: "k3", DocLen: -2},
	}
	rid := []gossip.RumorID{{Peer: 4, Ver: v(1, 2)}, {Peer: -1, Ver: v(0, 9)}}
	g := func(m gossip.Message) Envelope { return Envelope{Kind: KindGossip, From: 7, Gossip: &m} }
	return []Envelope{
		g(gossip.Message{Type: gossip.MsgRumor, From: 7, Updates: recs}),
		g(gossip.Message{Type: gossip.MsgRumorAck, From: 7, Acked: rid, Known: []bool{true, false}, Recent: rid[:1]}),
		g(gossip.Message{Type: gossip.MsgPull, From: 7, Need: []directory.NeedEntry{{ID: 3, Have: v(2, 6)}, {ID: 9}}}),
		g(gossip.Message{Type: gossip.MsgRecords, From: 7, Updates: recs, AsDiff: []bool{false, true, false}}),
		g(gossip.Message{Type: gossip.MsgAERequest, From: 7, Digest: 1<<64 - 1, Cursor: 4096}),
		g(gossip.Message{Type: gossip.MsgAESummary, From: 7, Digest: 42, Identical: true,
			Summary: []directory.Version{v(1, 1), {}, v(3, 0)}, NumKnown: 2, SummaryFrom: 4096, Next: -1}),
		{Kind: KindGossip, From: 5},
		{Kind: KindQuery, Terms: []string{"alpha", "beta", "gamma"}, All: true, K: 10, N: 1024, Nt: []int{3, 1 << 40, -1}},
		{Kind: KindBrokerPut, Discard: 10 * time.Minute, Puts: []KeyedSnippet{{Snippet: sn, Keys: []string{"alpha"}}, {Snippet: broker.Snippet{ID: "s2"}}}},
		{Kind: KindBrokerGet, Key: "alpha"},
		{Kind: KindBrokerWatch, From: 6, Terms: []string{"alpha", "beta"}},
		{Kind: KindNotify, Snippet: &sn},
		{Kind: KindGetDoc, Key: "k1"},
		{Kind: KindRecord},
		{Kind: KindProxySearch, Terms: []string{"alpha"}, K: 20},
		{Kind: KindQueryResp, Docs: docs},
		{Kind: KindSnippets, Snips: []broker.Snippet{sn, {ID: "s2", Owner: 9}}},
		{Kind: KindDoc, XML: "<doc>body</doc>", Found: true},
		{Kind: KindRecordResp, Record: &recs[0]},
		{Kind: KindProxyResp, Scored: []search.ScoredDoc{{DocResult: docs[0], Score: 1.25}, {DocResult: docs[2], Score: -0.5}}},
		{Kind: KindPeerExchange, K: MaxExchangeRecords},
		{Kind: KindPeers, Records: recs[:2]},
		{Kind: KindReplicaPut, Key: "k1", XML: "<doc/>", Origin: 3, Epoch: 1<<32 - 1},
		{Kind: KindReplicaPurge, Key: "k1", Origin: 3, Epoch: 4},
		{Kind: KindHotDocs, K: 8},
		{Kind: KindHotList, Hot: []replica.HotDoc{{Key: "a", Origin: 7, Epoch: 1, Score: 3.5}, {Key: "b", Origin: -2, Score: 0}}},
		{Kind: KindAck},
		{Kind: KindDoc, Err: "unknown kind"},
	}
}

// decodeFrame reads the first frame of data.
func decodeFrame(data []byte) (Envelope, error) {
	f := frameConn{br: bufio.NewReader(bytes.NewReader(data))}
	var env Envelope
	err := f.readFrame(&env)
	return env, err
}

// Every kind survives an encode and a decode exactly, nil pointers and
// empty slices included, and so does a body too large for the stream's
// read buffer.
func TestFrameRoundTripEveryKind(t *testing.T) {
	big := &gossip.Message{Type: gossip.MsgRecords, From: 2}
	for i := range 8 {
		big.Updates = append(big.Updates, directory.Record{ID: directory.PeerID(i),
			Ver: directory.Version{Epoch: 1}, PayloadSize: 2500, Payload: bytes.Repeat([]byte{byte(i)}, 2500)})
		big.AsDiff = append(big.AsDiff, false)
	}
	frames := append(everyKindFrames(), Envelope{Kind: KindGossip, From: 2, Gossip: big})
	seen := map[Kind]bool{}
	for i := range frames {
		want := frames[i]
		seen[want.Kind] = true
		b, err := appendFrame(nil, &want)
		if err != nil {
			t.Fatalf("%v: encode: %v", want.Kind, err)
		}
		if n := binary.BigEndian.Uint32(b); int(n) != len(b)-frameHeader {
			t.Fatalf("%v: header claims %d body bytes, frame has %d", want.Kind, n, len(b)-frameHeader)
		}
		got, err := decodeFrame(b)
		if err != nil {
			t.Fatalf("%v: decode: %v", want.Kind, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%v: round trip\n got %+v\nwant %+v", want.Kind, got, want)
		}
		// Any cut of the frame is an error, never a panic or a value.
		for cut := 0; cut < len(b); cut += 1 + len(b)/64 {
			if _, err := decodeFrame(b[:cut]); err == nil {
				t.Fatalf("%v: frame cut at %d of %d bytes decoded", want.Kind, cut, len(b))
			}
		}
	}
	for k := Kind(0); k < numKinds; k++ {
		if !seen[k] {
			t.Fatalf("no round-trip row for kind %v", k)
		}
	}
}

// rawSession dials tb and returns the conn plus a wait for the server to
// end the session, reporting how long that took.
func rawSession(t *testing.T, tb *Transport) (net.Conn, func() time.Duration) {
	t.Helper()
	conn, err := net.Dial("tcp", tb.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	start := time.Now()
	return conn, func() time.Duration {
		_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		if n, err := conn.Read(make([]byte, 1)); err == nil || n > 0 {
			t.Fatalf("server answered a hostile frame (%d bytes, err %v)", n, err)
		}
		return time.Since(start)
	}
}

// header builds a frame header claiming n body bytes.
func header(n uint32, kind Kind) []byte {
	return append(binary.BigEndian.AppendUint32(nil, n), byte(kind), 0)
}

// A hostile peer's frame costs its victim what the peer sent, not what
// its header or its counts claim: an oversized header ends the session
// unread, a stalled maximal one allocates only for the bytes that came, and
// a count bigger than the frame fails before it sizes anything.
func TestOversizedFrameBounded(t *testing.T) {
	ta, _, _, _ := pair(t)
	tb, err := NewDeferred(1, "", newHandler(1), nil, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tb.Close)
	tb.serveIdleTimeout = 300 * time.Millisecond
	tb.StartAccepting()
	allocated := func(f func()) uint64 {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		f()
		runtime.ReadMemStats(&m1)
		return m1.TotalAlloc - m0.TotalAlloc
	}

	// Maximum + 1: the session closes on the header alone.
	conn, ended := rawSession(t, tb)
	before := atomic.LoadInt64(&tb.BytesRecv)
	if _, err := conn.Write(header(maxFrameBody+1, KindGossip)); err != nil {
		t.Fatal(err)
	}
	if d := ended(); d >= tb.serveIdleTimeout {
		t.Fatalf("oversized header held the session %v", d)
	}
	waitFor(t, "session byte count", func() bool { return atomic.LoadInt64(&tb.BytesRecv) > before })
	if got := atomic.LoadInt64(&tb.BytesRecv) - before; got != frameHeader {
		t.Fatalf("server read %d bytes of an oversized frame, want the %d-byte header alone", got, frameHeader)
	}

	// The maximum, 16 bytes, then a stall: bounded memory until the idle
	// deadline ends the session.
	var d time.Duration
	if a := allocated(func() {
		conn, ended := rawSession(t, tb)
		if _, err := conn.Write(append(header(maxFrameBody, KindGossip), make([]byte, 16)...)); err != nil {
			t.Fatal(err)
		}
		d = ended()
	}); a >= 1<<20 {
		t.Fatalf("a stalled maximal frame cost the server %d bytes", a)
	}
	if d < tb.serveIdleTimeout || d > 5*time.Second {
		t.Fatalf("stalled session ended after %v, want the %v deadline", d, tb.serveIdleTimeout)
	}

	// A KindQuery whose Terms, then whose Nt, count claims 2^40.
	huge := binary.AppendUvarint(nil, 1<<40)
	for name, body := range map[string][]byte{
		"terms": slices.Concat(huge, []byte("alpha")),
		"nt":    slices.Concat([]byte{0, 0, 20, 8}, huge, []byte{1, 2, 3}),
	} {
		if a := allocated(func() {
			conn, ended := rawSession(t, tb)
			if _, err := conn.Write(append(header(uint32(len(body)), KindQuery), body...)); err != nil {
				t.Fatal(err)
			}
			ended()
		}); a >= 1<<20 {
			t.Fatalf("%s count of 2^40 cost the server %d bytes", name, a)
		}
	}
	if _, err := decodeFrame(append(header(uint32(len(huge)), KindQuery), huge...)); err == nil {
		t.Fatal("a count past the frame decoded")
	}

	// The server still serves.
	if _, err := ta.FetchRecord(tb.Addr()); err != nil {
		t.Fatalf("server wedged by hostile frames: %v", err)
	}
}

// A frame from another format or a later version fails on its header; an
// unknown kind's body is skipped.
func TestFrameHeaderRejects(t *testing.T) {
	if _, err := decodeFrame(append(header(0, KindAck)[:5], 2)); err == nil {
		t.Fatal("reserved flag bit accepted")
	}
	if _, err := decodeFrame(append(header(0, KindDoc)[:5], flagErr)); err == nil {
		t.Fatal("error reply without a message accepted")
	}
	b := append(header(3, numKinds+7), 1, 2, 3)
	b, _ = appendFrame(b, &Envelope{Kind: KindAck})
	f := frameConn{br: bufio.NewReader(bytes.NewReader(b))}
	var env Envelope
	if err := f.readFrame(&env); err != nil || env.Kind != numKinds+7 {
		t.Fatalf("unknown kind: %+v, %v", env, err)
	}
	if err := f.readFrame(&env); err != nil || env.Kind != KindAck {
		t.Fatalf("frame after a skipped body: %+v, %v", env, err)
	}
}
