package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"net"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"planetp/internal/broker"
	"planetp/internal/directory"
	"planetp/internal/doc"
	"planetp/internal/gossip"
	"planetp/internal/metrics"
	"planetp/internal/search"
)

// everyKindFrames holds one envelope per Kind with every field that kind
// carries populated, one KindGossip envelope per MsgType, and an error
// reply. Fields naming documents hold ids as doc.HashID spells them, and
// each kind carrying several also holds a key that is not hex.
func everyKindFrames() []Envelope {
	v := func(e, s uint32) directory.Version { return directory.Version{Epoch: e, Seq: s} }
	recs := []directory.Record{
		{ID: 3, Ver: v(2, 7), Class: directory.Slow, Addr: "127.0.0.1:7003",
			PayloadSize: 40, DiffSize: 4, Payload: bytes.Repeat([]byte{0xa5, 1}, 20)},
		{ID: 0, Ver: v(1, 0), Addr: "h:1"},
		{ID: 1 << 30, Ver: v(1<<32-1, 1<<32-1), Payload: []byte{0}},
	}
	id1, id2 := doc.HashID("<doc>one</doc>"), doc.HashID("<doc>two</doc>")
	sn := broker.Snippet{ID: id1, Owner: -1, XML: "<doc>x</doc>", Keys: []string{"alpha", "beta", "gamma"}}
	hits := []search.Hit{
		{Key: id1, DocLen: 40, Freqs: []uint32{3, 1, 0}},
		{Key: "k2", DocLen: 1, Freqs: []uint32{0, 1<<32 - 1, 200}},
		{Key: id2, DocLen: -2, Freqs: []uint32{0, 0, 0}},
	}
	scored := []search.ScoredDoc{
		{DocResult: search.DocResult{Peer: 2, Key: id1, DocLen: 40}, Score: 1.25},
		{DocResult: search.DocResult{Peer: -1, Key: "k3", DocLen: -2}, Score: -0.5},
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
		{Kind: KindBrokerPut, Discard: 10 * time.Minute, Puts: []KeyedSnippet{{Snippet: sn, Keys: []string{"gamma", "alpha"}}, {Snippet: broker.Snippet{ID: "s2"}}}},
		{Kind: KindBrokerGet, Key: "alpha"},
		{Kind: KindBrokerWatch, From: 6, Terms: []string{"alpha", "beta"}},
		{Kind: KindNotify, Snippet: &sn},
		{Kind: KindGetDoc, Key: id1},
		{Kind: KindRecord},
		{Kind: KindProxySearch, Terms: []string{"alpha"}, K: 20},
		{Kind: KindQueryResp, Hits: hits},
		{Kind: KindQueryResp, Hits: []search.Hit{{Key: "no columns", DocLen: 3}}},
		{Kind: KindSnippets, Snips: []broker.Snippet{sn, {ID: "s2", Owner: 9}}},
		{Kind: KindDoc, XML: "<doc>body</doc>", Found: true},
		{Kind: KindRecordResp, Record: &recs[0]},
		{Kind: KindProxyResp, Scored: scored},
		{Kind: KindPeerExchange, K: MaxExchangeRecords},
		{Kind: KindPeers, Records: recs[:2]},
		{Kind: KindReplicaPut, Key: id1, XML: "<doc/>", Origin: 3, Epoch: 1<<32 - 1},
		{Kind: KindReplicaPurge, Key: id2, Origin: 3, Epoch: 4},
		{Kind: KindAck},
		{Kind: KindDoc, Err: "unknown kind"},
	}
}

// hostileReplies are query replies no peer of this code sends, each a
// whole frame: a row count, or a column count, past the bytes left, and a
// frequency that does not fit a row.
func hostileReplies() map[string][]byte {
	frame := func(body ...[]byte) []byte {
		b := slices.Concat(body...)
		return append(header(uint32(len(b)), KindQueryResp), b...)
	}
	uv := func(x uint64) []byte { return binary.AppendUvarint(nil, x) }
	return map[string][]byte{
		"rows 2^40":    frame(uv(1), uv(1<<40), []byte{2, 'k', 2, 1}),
		"columns 1000": frame(uv(1000), uv(1), []byte{2, 'k', 2}, bytes.Repeat([]byte{1}, 20)),
		"freq 2^33":    frame(uv(1), uv(1), []byte{2, 'k', 2}, uv(1<<33)),
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
		if !seen[k] && k.String() != "unknown" { // reserved bytes carry no kind
			t.Fatalf("no round-trip row for kind %v", k)
		}
	}
}

// rawSession dials tb and returns the conn plus a wait for the server to
// end the session, reporting how long that took since before the dial (the
// server may arm its idle deadline before Dial returns).
func rawSession(t *testing.T, tb *Transport) (net.Conn, func() time.Duration) {
	t.Helper()
	start := time.Now()
	conn, err := net.Dial("tcp", tb.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
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
	return append(binary.BigEndian.AppendUint32(nil, n), byte(kind), flagFormat)
}

// A hostile peer's frame costs its victim what the peer sent, not what
// its header or its counts claim: an oversized header ends the session
// unread, a stalled maximal one allocates only for the bytes that came, and
// a count bigger than the frame fails before it sizes anything.
func TestOversizedFrameBounded(t *testing.T) {
	ta, _, _, _ := pair(t)
	reg := metrics.NewRegistry()
	tb, err := NewDeferred(1, "", newHandler(1), nil, 3, reg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tb.Close)
	tb.serveIdleTimeout = 300 * time.Millisecond
	// A session that ends on a frame it could not decode charges its bytes
	// to the unknown kind.
	unread := func() int64 { return reg.Snapshot().Get("transport_rx_bytes_unknown") }
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
	before := unread()
	if _, err := conn.Write(header(maxFrameBody+1, KindGossip)); err != nil {
		t.Fatal(err)
	}
	if d := ended(); d >= tb.serveIdleTimeout {
		t.Fatalf("oversized header held the session %v", d)
	}
	waitFor(t, "session byte count", func() bool { return unread() > before })
	if got := unread() - before; got != frameHeader {
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

// A query reply claiming more rows or columns than its bytes hold, or a
// frequency a row cannot hold, fails to decode, though the same frame with
// an honest count decodes, and rows of unequal width fail to encode; a
// client answered with a 2^40-row claim loses the call, not memory.
func TestHostileRowsBounded(t *testing.T) {
	for name, b := range hostileReplies() {
		if _, err := decodeFrame(b); err == nil {
			t.Fatalf("%s: decoded", name)
		}
	}
	uneven := []search.Hit{{Key: "a", Freqs: []uint32{1}}, {Key: "b"}}
	if _, err := appendFrame(nil, &Envelope{Kind: KindQueryResp, Hits: uneven}); err == nil {
		t.Fatal("rows of unequal width encoded")
	}
	honest := append(header(6, KindQueryResp), 1, 1, 2, 'k', 2, 1)
	if env, err := decodeFrame(honest); err != nil || !reflect.DeepEqual(env.Hits, []search.Hit{{Key: "k", DocLen: 1, Freqs: []uint32{1}}}) {
		t.Fatalf("honest reply: %+v, %v", env.Hits, err)
	}
	cl := answering(t, hostileReplies()["rows 2^40"])
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	hits, err := cl.QueryRanked(1, []string{"alpha"}, search.RankQuery{K: 10, N: 1, Nt: []int{1}})
	runtime.ReadMemStats(&m1)
	if err == nil {
		t.Fatalf("a 2^40-row claim answered %d rows", len(hits))
	}
	if a := m1.TotalAlloc - m0.TotalAlloc; a >= 1<<20 {
		t.Fatalf("a 2^40-row claim cost the client %d bytes", a)
	}
}

// answering starts a listener that answers every frame with reply, and a
// client that resolves peer 1 to it.
func answering(t *testing.T, reply []byte) *Transport {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	t.Cleanup(func() {
		ln.Close()
		wg.Wait()
	})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer conn.Close()
				f := newFrameConn(conn)
				var env Envelope
				for f.readFrame(&env) == nil {
					if _, err := conn.Write(reply); err != nil {
						return
					}
				}
			}()
		}
	}()
	cl, err := New(0, "", newHandler(0), func(directory.PeerID) (string, bool) { return ln.Addr().String(), true }, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	return cl
}

// A frame from another format or a later version fails on its header; an
// unknown kind's body is skipped.
func TestFrameHeaderRejects(t *testing.T) {
	if _, err := decodeFrame(append(header(0, KindAck)[:5], flagFormat|1<<2)); err == nil {
		t.Fatal("reserved flag bit accepted")
	}
	if _, err := decodeFrame(append(header(0, KindAck)[:5], 0)); err == nil {
		t.Fatal("frame without the format mark accepted")
	}
	if _, err := decodeFrame(append(header(0, KindDoc)[:5], flagFormat|flagErr)); err == nil {
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

// A document id in lowercase hex crosses the wire as its bytes: ten rows
// keyed by doc.HashID ids cost exactly 16 bytes a row less than the same
// rows keyed by 32 characters that are not lowercase hex.
func TestHashIDKeysTravelPacked(t *testing.T) {
	rows := func(spell func(string) string) []byte {
		hits := make([]search.Hit, 10)
		for i := range hits {
			hits[i] = search.Hit{Key: spell(doc.HashID(fmt.Sprint(i))), DocLen: 80 + i, Freqs: []uint32{2, uint32(i)}}
		}
		b, err := appendFrame(nil, &Envelope{Kind: KindQueryResp, Hits: hits})
		if err != nil {
			t.Fatal(err)
		}
		if env, err := decodeFrame(b); err != nil || !reflect.DeepEqual(env.Hits, hits) {
			t.Fatalf("rows round trip: %v", err)
		}
		return b
	}
	packed, plain := rows(func(id string) string { return id }), rows(strings.ToUpper)
	if d := len(plain) - len(packed); d != 160 {
		t.Fatalf("10 hex-id rows are %d bytes, the same rows keyed by non-hex strings %d: %d less, want 160",
			len(packed), len(plain), d)
	}
}

// parentAccepts is the header rule of the format before keys were packed:
// any flag but the error bit fails the frame.
func parentAccepts(flags byte) bool { return flags&^1 == 0 }

// Nodes of the format that spelled ids in hex and nodes of this one fail
// each other's first frame instead of misreading it: a hex key of the old
// format would otherwise read as a 16-byte packed key and shift every
// field after it. Both directions are checked on a ranked reply and a
// broker put built by hand in the old layout, and on every frame this
// format sends.
func TestOldFormatFramesRejected(t *testing.T) {
	id := doc.HashID("<doc>one</doc>")
	str := func(s string) []byte { return append(binary.AppendUvarint(nil, uint64(len(s))), s...) }
	old := func(kind Kind, body ...[]byte) []byte {
		b := slices.Concat(body...)
		return append(append(binary.BigEndian.AppendUint32(nil, uint32(len(b))), byte(kind), 0), b...)
	}
	oldFrames := map[string][]byte{
		// One column; one row: key, |D| 40 (zigzag 80), frequency 3.
		"query_resp": old(KindQueryResp, []byte{1, 1}, str(id), []byte{80, 3}),
		// Discard 0; one put: the snippet (id, owner 1, no body, keys alpha
		// and beta), then its filed key beta by name.
		"broker_put": old(KindBrokerPut, []byte{0, 1}, str(id), []byte{2}, str(""),
			[]byte{2}, str("alpha"), str("beta"), []byte{1}, str("beta")),
	}
	for name, b := range oldFrames {
		if !parentAccepts(b[5]) {
			t.Fatalf("%s: the hand-built frame breaks the old header rule", name)
		}
		if env, err := decodeFrame(b); err == nil {
			t.Fatalf("%s in the old format decoded: %+v", name, env)
		}
	}
	for _, env := range everyKindFrames() {
		b, err := appendFrame(nil, &env)
		if err != nil {
			t.Fatal(err)
		}
		if parentAccepts(b[5]) {
			t.Fatalf("%v: flags %#x pass the old header rule", env.Kind, b[5])
		}
	}
}

// A broker put names each filed key by its index into the snippet's keys:
// a decoded filed key is the snippet's own string, an index past them
// fails the frame, and a key outside them fails to encode.
func TestFiledKeysAreIndexes(t *testing.T) {
	sn := broker.Snippet{ID: doc.HashID("x"), Keys: []string{"alpha", "beta", "gamma"}}
	env := Envelope{Kind: KindBrokerPut, Puts: []KeyedSnippet{{Snippet: sn, Keys: []string{"gamma", "alpha"}}}}
	b, err := appendFrame(nil, &env)
	if err != nil {
		t.Fatal(err)
	}
	if tail := b[len(b)-3:]; !bytes.Equal(tail, []byte{2, 2, 0}) {
		t.Fatalf("filed keys encode as %v, want count 2 then indexes 2 and 0", tail)
	}
	got, err := decodeFrame(b)
	if err != nil || !reflect.DeepEqual(got, env) {
		t.Fatalf("put round trip: %+v, %v", got, err)
	}
	put := got.Puts[0]
	if unsafe.StringData(put.Keys[0]) != unsafe.StringData(put.Snippet.Keys[2]) {
		t.Fatal("a decoded filed key is a copy, not the snippet's string")
	}
	b[len(b)-1] = 3
	if _, err := decodeFrame(b); err == nil {
		t.Fatal("a filed-key index past the snippet's keys decoded")
	}
	env.Puts[0].Keys = []string{"delta"}
	if _, err := appendFrame(nil, &env); err == nil {
		t.Fatal("a put filed under a key outside its snippet's keys encoded")
	}
}
