package transport

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"planetp/internal/broker"
	"planetp/internal/directory"
	"planetp/internal/gossip"
	"planetp/internal/metrics"
	"planetp/internal/replica"
	"planetp/internal/search"
)

// recordingHandler captures everything the transport delivers.
type recordingHandler struct {
	mu      sync.Mutex
	gossips []*gossip.Message
	puts    []string
	watches [][]string
	notices []broker.Snippet
	docs    map[string]string
	self    directory.Record
	sample  []directory.Record // served by HandlePeerExchange
	reps    []string           // "key@origin:epoch" adopted via HandleReplicaPut
	purges  []string           // same encoding, via HandleReplicaPurge
	hot     []replica.HotDoc   // served by HandleHotDocs
}

func newHandler(id directory.PeerID) *recordingHandler {
	return &recordingHandler{
		docs: map[string]string{},
		self: directory.Record{ID: id, Ver: directory.Version{Epoch: 1}},
	}
}

func (h *recordingHandler) HandleGossip(from directory.PeerID, m *gossip.Message) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.gossips = append(h.gossips, m)
}

func (h *recordingHandler) HandleQuery(terms []string, all bool) []search.DocResult {
	out := []search.DocResult{{Key: "doc-1", TermFreqs: map[string]int{terms[0]: 2}, DocLen: 10}}
	if all {
		out = append(out, search.DocResult{Key: "doc-all", DocLen: 5})
	}
	return out
}

func (h *recordingHandler) HandleBrokerPut(key string, sn broker.Snippet, _ time.Duration) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.puts = append(h.puts, key+":"+sn.ID)
}

func (h *recordingHandler) HandleBrokerGet(key string) []broker.Snippet {
	return []broker.Snippet{{ID: "sn-" + key, Keys: []string{key}}}
}

func (h *recordingHandler) HandleBrokerWatch(keys []string, watcher directory.PeerID) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.watches = append(h.watches, keys)
}

func (h *recordingHandler) HandleNotify(sn broker.Snippet) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.notices = append(h.notices, sn)
}

func (h *recordingHandler) HandleGetDoc(key string) (string, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	xml, ok := h.docs[key]
	return xml, ok
}

func (h *recordingHandler) HandleProxySearch(terms []string, k int) []search.ScoredDoc {
	return []search.ScoredDoc{{
		DocResult: search.DocResult{Key: "proxied-" + terms[0]},
		Score:     float64(k),
	}}
}

func (h *recordingHandler) HandlePeerExchange(max int) []directory.Record {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.sample) > max {
		return h.sample[:max]
	}
	return h.sample
}

func (h *recordingHandler) HandleReplicaPut(key, xml string, origin directory.PeerID, epoch uint32) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.docs[key] = xml
	h.reps = append(h.reps, fmt.Sprintf("%s@%d:%d", key, origin, epoch))
}

func (h *recordingHandler) HandleReplicaPurge(key string, origin directory.PeerID, epoch uint32) {
	h.mu.Lock()
	defer h.mu.Unlock()
	delete(h.docs, key)
	h.purges = append(h.purges, fmt.Sprintf("%s@%d:%d", key, origin, epoch))
}

func (h *recordingHandler) HandleHotDocs(max int) []replica.HotDoc {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.hot) > max {
		return h.hot[:max]
	}
	return h.hot
}

func (h *recordingHandler) SelfRecord() directory.Record { return h.self }

// pair builds two connected transports.
func pair(t *testing.T) (*Transport, *recordingHandler, *Transport, *recordingHandler) {
	t.Helper()
	ha, hb := newHandler(0), newHandler(1)
	var ta, tb *Transport
	resolve := func(id directory.PeerID) (string, bool) {
		switch id {
		case 0:
			return ta.Addr(), true
		case 1:
			return tb.Addr(), true
		}
		return "", false
	}
	var err error
	ta, err = New(0, "", ha, resolve, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ta.Close)
	tb, err = New(1, "", hb, resolve, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tb.Close)
	return ta, ha, tb, hb
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

func TestGossipOneWay(t *testing.T) {
	ta, _, _, hb := pair(t)
	msg := &gossip.Message{Type: gossip.MsgAERequest, From: 0, Digest: 42}
	if err := ta.Send(1, msg); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "gossip delivery", func() bool {
		hb.mu.Lock()
		defer hb.mu.Unlock()
		return len(hb.gossips) == 1
	})
	hb.mu.Lock()
	got := hb.gossips[0]
	hb.mu.Unlock()
	if got.Type != gossip.MsgAERequest || got.Digest != 42 {
		t.Fatalf("got %+v", got)
	}
}

func TestGossipCarriesRecordsWithPayload(t *testing.T) {
	ta, _, _, hb := pair(t)
	msg := &gossip.Message{
		Type: gossip.MsgRumor, From: 0,
		Updates: []directory.Record{{
			ID: 0, Ver: directory.Version{Epoch: 1, Seq: 3},
			Addr: "somewhere:1", Payload: []byte{1, 2, 3},
		}},
	}
	if err := ta.Send(1, msg); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "rumor delivery", func() bool {
		hb.mu.Lock()
		defer hb.mu.Unlock()
		return len(hb.gossips) == 1
	})
	hb.mu.Lock()
	rec := hb.gossips[0].Updates[0]
	hb.mu.Unlock()
	if rec.Addr != "somewhere:1" || len(rec.Payload) != 3 || rec.Ver.Seq != 3 {
		t.Fatalf("record mangled: %+v", rec)
	}
}

func TestQueryRPC(t *testing.T) {
	ta, _, _, _ := pair(t)
	docs, err := ta.Query(1, []string{"gossip"}, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 1 || docs[0].Key != "doc-1" || docs[0].TermFreqs["gossip"] != 2 {
		t.Fatalf("docs = %+v", docs)
	}
	docs, err = ta.Query(1, []string{"gossip"}, true)
	if err != nil || len(docs) != 2 {
		t.Fatalf("all-query: %v %v", docs, err)
	}
}

func TestBrokerRPCs(t *testing.T) {
	ta, _, _, hb := pair(t)
	if err := ta.BrokerPut(1, "key1", broker.Snippet{ID: "s1", Keys: []string{"key1"}}, time.Minute); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "broker put", func() bool {
		hb.mu.Lock()
		defer hb.mu.Unlock()
		return len(hb.puts) == 1 && hb.puts[0] == "key1:s1"
	})
	// A batch is one frame, fanned into one HandleBrokerPut per key before
	// the ack that ends the call.
	if err := ta.BrokerPutBatch(1, []KeyedSnippet{
		{Snippet: broker.Snippet{ID: "s2"}, Keys: []string{"k1", "k2"}},
		{Snippet: broker.Snippet{ID: "s3"}, Keys: []string{"k2"}},
	}, time.Minute); err != nil {
		t.Fatal(err)
	}
	hb.mu.Lock()
	got := fmt.Sprint(hb.puts[1:])
	hb.mu.Unlock()
	if got != "[k1:s2 k2:s2 k2:s3]" {
		t.Fatalf("batch fanned into %s", got)
	}
	snips, err := ta.BrokerGet(1, "zzz")
	if err != nil || len(snips) != 1 || snips[0].ID != "sn-zzz" {
		t.Fatalf("BrokerGet: %v %v", snips, err)
	}
	if err := ta.BrokerWatch(1, []string{"a", "b"}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "watch", func() bool {
		hb.mu.Lock()
		defer hb.mu.Unlock()
		return len(hb.watches) == 1
	})
	if err := ta.Notify(1, broker.Snippet{ID: "n1"}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "notify", func() bool {
		hb.mu.Lock()
		defer hb.mu.Unlock()
		return len(hb.notices) == 1 && hb.notices[0].ID == "n1"
	})
}

func TestProxySearchRPC(t *testing.T) {
	ta, _, _, _ := pair(t)
	docs, err := ta.ProxySearch(1, []string{"gossip"}, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 1 || docs[0].Key != "proxied-gossip" || docs[0].Score != 7 {
		t.Fatalf("proxy result = %+v", docs)
	}
}

func TestGetDoc(t *testing.T) {
	ta, _, _, hb := pair(t)
	hb.mu.Lock()
	hb.docs["k"] = "<x>body</x>"
	hb.mu.Unlock()
	xml, err := ta.GetDoc(1, "k")
	if err != nil || xml != "<x>body</x>" {
		t.Fatalf("GetDoc: %q %v", xml, err)
	}
	if _, err := ta.GetDoc(1, "missing"); !errors.Is(err, ErrDocNotFound) {
		t.Fatalf("missing doc error = %v, want ErrDocNotFound", err)
	}
}

func TestReplicaRPCs(t *testing.T) {
	ta, _, _, hb := pair(t)
	if err := ta.ReplicaPut(1, "k1", "<x/>", 7, 3); err != nil {
		t.Fatal(err)
	}
	if err := ta.ReplicaPurge(1, "k1", 7, 4); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		hb.mu.Lock()
		reps, purges := len(hb.reps), len(hb.purges)
		hb.mu.Unlock()
		if reps == 1 && purges == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica ops not delivered: %d puts %d purges", reps, purges)
		}
		time.Sleep(5 * time.Millisecond)
	}
	hb.mu.Lock()
	if hb.reps[0] != "k1@7:3" || hb.purges[0] != "k1@7:4" {
		t.Fatalf("reps=%v purges=%v", hb.reps, hb.purges)
	}
	hb.hot = []replica.HotDoc{{Key: "a", Origin: 7, Epoch: 1, Score: 3.5}, {Key: "b", Origin: 8, Epoch: 2, Score: 1}}
	hb.mu.Unlock()
	hot, err := ta.HotDocs(1, 8)
	if err != nil || len(hot) != 2 || hot[0].Key != "a" || hot[0].Score != 3.5 {
		t.Fatalf("HotDocs = %+v, %v", hot, err)
	}
	if hot, _ := ta.HotDocs(1, 1); len(hot) != 1 {
		t.Fatalf("max not honored: %+v", hot)
	}
}

func TestFetchRecord(t *testing.T) {
	ta, _, tb, _ := pair(t)
	rec, err := ta.FetchRecord(tb.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if rec.ID != 1 || rec.Ver.Epoch != 1 {
		t.Fatalf("record = %+v", rec)
	}
	if _, err := ta.FetchRecord("127.0.0.1:1"); err == nil {
		t.Fatal("unreachable address should error")
	}
}

func TestSendToUnknownPeerFails(t *testing.T) {
	ta, _, _, _ := pair(t)
	if err := ta.Send(7, &gossip.Message{Type: gossip.MsgAERequest}); err == nil {
		t.Fatal("send to unresolvable peer should fail")
	}
}

func TestSendAfterCloseFails(t *testing.T) {
	ta, _, tb, _ := pair(t)
	tb.Close()
	// Dial will be refused (or the message dropped); either way the
	// caller must see an error so off-line detection works.
	if err := ta.Send(1, &gossip.Message{Type: gossip.MsgAERequest}); err == nil {
		t.Fatal("send to closed transport should fail")
	}
}

func TestRefusedConnectionCountsDialFailure(t *testing.T) {
	reg := metrics.NewRegistry()
	h := newHandler(0)
	// Grab a port that refuses connections: listen, note the address,
	// close the listener.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := l.Addr().String()
	l.Close()
	resolve := func(id directory.PeerID) (string, bool) {
		if id == 1 {
			return dead, true
		}
		return "", false
	}
	ta, err := New(0, "", h, resolve, 1, reg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ta.Close)
	ta.dialTimeout = 2 * time.Second

	done := make(chan error, 1)
	go func() { done <- ta.Send(1, &gossip.Message{Type: gossip.MsgAERequest}) }()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("send to refusing peer should fail")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("send to refusing peer hung")
	}
	snap := reg.Snapshot()
	if got := snap.Get("transport_dial_failures_total"); got < 1 {
		t.Fatalf("transport_dial_failures_total = %d, want >= 1", got)
	}
	if got := snap.Get("transport_dials_total"); got < 1 {
		t.Fatalf("transport_dials_total = %d, want >= 1", got)
	}
}

func TestRPCCountsBytesAndLatency(t *testing.T) {
	reg := metrics.NewRegistry()
	ha, hb := newHandler(0), newHandler(1)
	var ta, tb *Transport
	resolve := func(id directory.PeerID) (string, bool) {
		switch id {
		case 0:
			return ta.Addr(), true
		case 1:
			return tb.Addr(), true
		}
		return "", false
	}
	var err error
	ta, err = New(0, "", ha, resolve, 1, reg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ta.Close)
	tb, err = New(1, "", hb, resolve, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tb.Close)

	if _, err := ta.Query(1, []string{"gossip"}, false); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if got := snap.Get("transport_tx_bytes_query"); got <= 0 {
		t.Fatalf("transport_tx_bytes_query = %d, want > 0", got)
	}
	if got := snap.Get("transport_rx_bytes_query"); got <= 0 {
		t.Fatalf("transport_rx_bytes_query = %d, want > 0", got)
	}
	hs, ok := snap.Histograms["transport_rpc_latency_us"]
	if !ok || hs.Count != 1 {
		t.Fatalf("transport_rpc_latency_us = %+v, want one observation", hs)
	}
}

func TestGarbageBytesDoNotCrashServer(t *testing.T) {
	ta, _, tb, _ := pair(t)
	for _, payload := range [][]byte{
		{},
		{0x00},
		[]byte("GET / HTTP/1.1\r\n\r\n"),
		bytesOf(0xFF, 4096),
	} {
		conn, err := net.Dial("tcp", tb.Addr())
		if err != nil {
			t.Fatal(err)
		}
		conn.Write(payload)
		conn.Close()
	}
	// The server must still answer real RPCs afterwards.
	if _, err := ta.FetchRecord(tb.Addr()); err != nil {
		t.Fatalf("server wedged by garbage: %v", err)
	}
}

func bytesOf(b byte, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = b
	}
	return out
}

func TestConcurrentRPCs(t *testing.T) {
	ta, _, _, _ := pair(t)
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := ta.Query(1, []string{"x"}, false); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestNowMonotonic(t *testing.T) {
	ta, _, _, _ := pair(t)
	a := ta.Now()
	time.Sleep(5 * time.Millisecond)
	if ta.Now() <= a {
		t.Fatal("Now not monotonic")
	}
}

func TestIntervalChangedNonBlocking(t *testing.T) {
	ta, _, _, _ := pair(t)
	// Fill the buffer beyond capacity: must never block.
	for i := 0; i < 100; i++ {
		ta.IntervalChanged(time.Second)
	}
	select {
	case d := <-ta.IntervalCh():
		if d != time.Second {
			t.Fatalf("d = %v", d)
		}
	default:
		t.Fatal("no interval delivered")
	}
}
