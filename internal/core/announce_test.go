package core

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"planetp/internal/bloom"
	"planetp/internal/broker"
	"planetp/internal/chash"
	"planetp/internal/directory"
	"planetp/internal/gossip"
	"planetp/internal/search"
	"planetp/internal/text"
	"planetp/internal/transport"
)

// quietCommunity builds n peers that all know each other and are never
// started: no gossip loop, no hoard loop, so the only frames on the wire
// are the ones a test causes (by a publish, or by ticking a node by hand).
func quietCommunity(t *testing.T, n int, brokerFrac float64) []*Peer {
	t.Helper()
	peers := make([]*Peer, n)
	for i := range peers {
		p, err := NewPeer(Config{
			ID: directory.PeerID(i), Capacity: n, Seed: int64(i + 1),
			BrokerTopFrac: brokerFrac, BrokerDiscard: time.Minute,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(p.Stop)
		peers[i] = p
	}
	for _, p := range peers {
		for _, q := range peers {
			if p != q {
				p.dir.Upsert(q.node.OutgoingSelf())
			}
		}
		// Established members: nothing to rumor yet, and the round count
		// reset, so a hand-driven tick pushes what is active for nine
		// rounds before the first anti-entropy round.
		p.node.Quiesce()
	}
	return peers
}

// selfPayload is the own record's full payload: the own chain, encoded.
func (p *Peer) selfPayload() []byte { return p.ownChain().Encode() }

func payloadBuilds(p *Peer) int64 {
	return p.reg.Snapshot().Counters["gossip_chain_folds_total"]
}

// TestSelfPayloadBuiltWhenRecordLeaves: the compression a publish used to
// pay for is paid only when the own chain folds, which happens when a
// record leaves and the segments have outgrown the base. Publishes build
// nothing; the next rumor folds the hundred segments once and, to a target
// whose holdings are unknown, carries the full filter; the same rumor again,
// to a target that acked it, folds nothing and carries no segment; a pull
// after one more publish is answered with that one segment, still without a
// fold; and the readers of SelfRecord().Ver build nothing.
func TestSelfPayloadBuiltWhenRecordLeaves(t *testing.T) {
	peers := quietCommunity(t, 2, 0)
	p, q := peers[0], peers[1]
	base := payloadBuilds(p) // the bootstrap record quietCommunity handed out
	sent := func(kind string) int64 { return p.reg.Snapshot().Get("gossip_" + kind + "_payloads_sent_total") }

	for i := 0; i < 100; i++ {
		mustPublish(t, p, fmt.Sprintf(`<doc>lazy payload term%d</doc>`, i))
	}
	if got := p.node.SelfRecord().Ver.Seq; got != 100 {
		t.Fatalf("100 publishes announced %d versions", got)
	}
	if got := payloadBuilds(p) - base; got != 0 {
		t.Fatalf("100 publishes with no send built %d payloads", got)
	}

	rumorsSent := func() int64 { return p.reg.Snapshot().Get("gossip_rumors_sent_total") }
	rumors, fulls := rumorsSent(), sent("full")
	p.node.Tick()
	if rumorsSent() != rumors+1 {
		t.Fatal("tick did not push a rumor")
	}
	if got := payloadBuilds(p) - base; got != 1 {
		t.Fatalf("first rumor after the publishes built %d payloads, want 1", got)
	}
	if sent("full") != fulls+1 {
		t.Fatal("the first rumor to a target of unknown holdings did not carry the full filter")
	}
	payload, ver, ok := q.dir.Payload(p.id)
	if !ok || ver.Seq != 100 {
		t.Fatalf("receiver holds version %v (payload %v)", ver, ok)
	}
	if rec, _ := q.dir.Get(p.id); int(rec.PayloadSize) != len(payload) {
		t.Fatalf("record arrived with PayloadSize %d and %d payload bytes", rec.PayloadSize, len(payload))
	}
	if !q.view.Contains(p.id, "term99") {
		t.Fatal("rumored payload misses the last publish")
	}

	diffs := sent("diff")
	p.node.Tick()
	if rumorsSent() != rumors+2 {
		t.Fatal("second tick did not push a rumor")
	}
	if got := payloadBuilds(p) - base; got != 1 {
		t.Fatalf("a rumor with no new bits rebuilt the payload (%d builds)", got)
	}
	if sent("diff") != diffs+1 {
		t.Fatal("the rumor to a target that acked it did not carry a diff")
	}

	mustPublish(t, p, `<doc>one more after the rumor</doc>`)
	p.node.Receive(q.id, &gossip.Message{Type: gossip.MsgPull, From: q.id, Need: []directory.NeedEntry{{ID: p.id, Have: ver}}})
	if got := payloadBuilds(p) - base; got != 1 {
		t.Fatalf("pull for the own record after a publish: %d builds in all, want 1", got)
	}
	if sent("diff") != diffs+2 {
		t.Fatal("the pull was not answered with the one new segment")
	}
	if _, ver, _ := q.dir.Payload(p.id); ver.Seq != 101 || !q.view.Contains(p.id, "rumor") {
		t.Fatalf("pulled record: version %v, or its payload misses the publish", ver)
	}
}

// TestConcurrentPublishPayloadCoversVersion: publishers racing on one peer
// reach Node.Publish in an order of their own, so a payload captured at
// flush time could ride under a newer version than it covers. A payload
// materialised from the filter as it is when the record leaves cannot: it
// decompresses to exactly the peer's filter, and a second peer that pulls
// the record finds every published term — while concurrent sends, which
// build it, run beside the publishes.
func TestConcurrentPublishPayloadCoversVersion(t *testing.T) {
	peers := quietCommunity(t, 2, 0)
	p, q := peers[0], peers[1]
	const writers, each = 8, 12
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if _, err := p.PublishBatch([]string{
					fmt.Sprintf(`<doc>racing writer%d item%d</doc>`, w, i),
					fmt.Sprintf(`<doc>second writer%d entry%d</doc>`, w, i),
				}); err != nil {
					t.Error(err)
				}
				if i%4 == 0 {
					p.node.Tick()
					p.Compact()
				}
			}
		}()
	}
	wg.Wait()

	payload := p.selfPayload()
	got, err := bloom.Decompress(payload)
	if err != nil {
		t.Fatal(err)
	}
	p.mu.Lock()
	same := got.Equal(p.summary.Filter())
	p.mu.Unlock()
	if !same {
		t.Fatal("materialised payload is not the peer's filter")
	}

	have := q.dir.VersionOf(p.id)
	p.node.Receive(q.id, &gossip.Message{Type: gossip.MsgPull, From: q.id, Need: []directory.NeedEntry{{ID: p.id, Have: have}}})
	if ver := q.dir.VersionOf(p.id); ver != p.node.SelfRecord().Ver {
		t.Fatalf("pull left the receiver at %v, publisher is at %v", ver, p.node.SelfRecord().Ver)
	}
	for w := 0; w < writers; w++ {
		for i := 0; i < each; i++ {
			for _, term := range []string{fmt.Sprintf("writer%d", w), fmt.Sprintf("item%d", i), fmt.Sprintf("entry%d", i)} {
				if !q.view.Contains(p.id, term) {
					t.Fatalf("pulled payload misses published term %q", term)
				}
			}
		}
	}
}

// brokerCorpus is a seeded pool of documents over a shared vocabulary, so
// several documents file under the same key at the same broker.
func brokerCorpus(n int) []string {
	rng := rand.New(rand.NewSource(18))
	vocab := strings.Fields("osprey falcon kestrel harrier merlin goshawk buzzard condor " +
		"heron egret bittern plover curlew godwit avocet stilt lapwing dunlin sanderling turnstone")
	out := make([]string, n)
	for i := range out {
		words := make([]string, 10)
		for j := range words {
			words[j] = vocab[rng.Intn(len(vocab))]
		}
		out[i] = fmt.Sprintf(`<doc><title>sighting%d</title>%s</doc>`, i, strings.Join(words, " "))
	}
	return out
}

// brokerContents is what every broker of a community holds, drained:
// broker → key → the snippets filed there, as sorted "id owner keys
// body-length" lines.
func brokerContents(peers []*Peer) map[directory.PeerID]map[string][]string {
	out := make(map[directory.PeerID]map[string][]string)
	for _, p := range peers {
		for _, st := range p.broker.Export() {
			if out[p.id] == nil {
				out[p.id] = make(map[string][]string)
			}
			out[p.id][st.Key] = append(out[p.id][st.Key], fmt.Sprint(st.Sn.ID, st.Sn.Owner, st.Sn.Keys, len(st.Sn.XML)))
		}
	}
	for _, byKey := range out {
		for _, ids := range byKey {
			sort.Strings(ids)
		}
	}
	return out
}

// perKeyContents is the reference routing rule — one put per key to the
// key's ring successor, the whole of what the one-RPC-per-key publish did —
// applied to xmls published at p, in brokerContents' form. Each snippet is
// a link, so its body length is 0. skip names a broker whose puts are lost
// (None for none).
func perKeyContents(p *Peer, xmls []string, skip directory.PeerID) map[directory.PeerID]map[string][]string {
	ring := p.brokerRing()
	out := make(map[directory.PeerID]map[string][]string)
	var a text.Analyzer
	for _, xml := range xmls {
		ad := p.analyzeOne(xml, &a)
		keys := topTerms(ad.freqs, p.cfg.BrokerTopFrac)
		for _, key := range keys {
			_, owner, _ := ring.Successor(chash.Hash(key))
			if owner == skip {
				continue
			}
			if out[owner] == nil {
				out[owner] = make(map[string][]string)
			}
			out[owner][key] = append(out[owner][key], fmt.Sprint(ad.doc.ID, int32(p.id), keys, 0))
		}
	}
	for _, byKey := range out {
		for _, ids := range byKey {
			sort.Strings(ids)
		}
	}
	return out
}

// TestBrokerPublishMatchesPerKeyRouting: Publish (a batch of one) and
// PublishBatch leave every broker holding exactly what one put per key
// would have: a link to each document, with no body.
func TestBrokerPublishMatchesPerKeyRouting(t *testing.T) {
	xmls := brokerCorpus(24)
	for name, publish := range map[string]func(p *Peer){
		"Publish": func(p *Peer) {
			for _, xml := range xmls {
				mustPublish(t, p, xml)
			}
		},
		"PublishBatch": func(p *Peer) {
			if _, err := p.PublishBatch(xmls); err != nil {
				t.Fatal(err)
			}
		},
	} {
		t.Run(name, func(t *testing.T) {
			peers := quietCommunity(t, 4, 0.3)
			want := perKeyContents(peers[1], xmls, directory.None)
			if len(want) != len(peers) {
				t.Fatalf("corpus reaches %d of %d brokers; pick another seed", len(want), len(peers))
			}
			publish(peers[1])
			if got := brokerContents(peers); !reflect.DeepEqual(got, want) {
				t.Fatalf("broker contents differ from per-key routing:\n got %v\nwant %v", got, want)
			}
		})
	}
}

// TestBrokerSnippetCrossesWireOncePerBroker: a snippet with several keys at
// one remote broker is sent there once, not once per key, and BrokerGet
// returns it under each of them — as a link, with no body.
func TestBrokerSnippetCrossesWireOncePerBroker(t *testing.T) {
	peers := quietCommunity(t, 2, 1.0)
	p, q := peers[0], peers[1]
	xml := `<doc>` + strings.Repeat("osprey falcon kestrel harrier merlin goshawk buzzard condor heron egret ", 400) + `</doc>`
	var remote []string
	for key := range perKeyContents(p, []string{xml}, directory.None)[q.id] {
		remote = append(remote, key)
	}
	if len(remote) < 3 {
		t.Fatalf("only %d keys map to the remote broker; the test needs 3", len(remote))
	}
	sent := func() int64 { return p.reg.Snapshot().Counters["transport_tx_bytes_broker_put"] }
	before := sent()
	d, err := p.Publish(xml)
	if err != nil {
		t.Fatal(err)
	}
	got := sent() - before
	var sn broker.Snippet
	for _, key := range remote {
		sns, err := p.tp.BrokerGet(q.id, key)
		if err != nil || len(sns) != 1 || sns[0].ID != d.ID || sns[0].Owner != int32(p.id) || sns[0].XML != "" {
			t.Fatalf("BrokerGet(%q) = %+v, err %v; want one link to %s", key, sns, err, d.ID)
		}
		sn = sns[0]
	}
	// The frame holds the snippet (its id, which crosses as the 16 bytes
	// its 32 hex characters spell, and its keys) and one index byte for
	// each key it is filed under there; a second copy of the snippet,
	// which one put per key would add, costs at least the snippet again.
	snippet := len(sn.ID) / 2
	for _, k := range sn.Keys {
		snippet += len(k)
	}
	once := snippet + len(remote)
	if got < int64(once) || got >= int64(once+snippet) {
		t.Fatalf("%d keys at one broker cost %d bytes on the wire; one copy of the snippet is %d, each more copy %d",
			len(remote), got, once, snippet)
	}
}

// TestBrokerPutBytesIndependentOfBody: a put carries a link, so what a
// publish sends a remote broker does not grow with the document. A document
// under 100 bytes and one over 12 kilobytes, filed under the same keys,
// cost the same put bytes, up to the varints of their frames.
func TestBrokerPutBytesIndependentOfBody(t *testing.T) {
	peers := quietCommunity(t, 2, 1.0)
	p, q := peers[0], peers[1]
	words := "osprey falcon kestrel harrier merlin goshawk buzzard condor heron egret "
	small := `<doc>` + words + `</doc>`
	large := `<doc>` + strings.Repeat(words, 168) + `</doc>`
	if len(small) > 100 || len(large) < 12000 {
		t.Fatalf("documents of %d and %d bytes; the test needs ≤ 100 and ≥ 12 000", len(small), len(large))
	}
	remote := perKeyContents(p, []string{small}, directory.None)[q.id]
	if len(remote) == 0 {
		t.Fatal("no key of the document maps to the remote broker; the test needs one")
	}
	sent := func() int64 { return p.reg.Snapshot().Counters["transport_tx_bytes_broker_put"] }
	var cost [2]int64
	for i, xml := range []string{small, large} {
		before := sent()
		mustPublish(t, p, xml)
		cost[i] = sent() - before
	}
	if cost[0] == 0 || cost[1]-cost[0] > 16 || cost[0]-cost[1] > 16 {
		t.Fatalf("broker puts cost %d bytes for a %d-byte document and %d for a %d-byte one; want equal within 16",
			cost[0], len(small), cost[1], len(large))
	}
}

// TestBrokerNotifyFetchesBodyFromOwner: a subscriber notified through a
// remote broker learns the document's id and owner, and fetching the body
// from that owner returns what was published.
func TestBrokerNotifyFetchesBodyFromOwner(t *testing.T) {
	peers := quietCommunity(t, 3, 1.0)
	pub, brk, sub := peers[0], peers[1], peers[2]
	xml := `<doc><title>sighting</title>osprey falcon kestrel harrier merlin goshawk buzzard condor heron egret</doc>`
	var watched string
	for key := range perKeyContents(pub, []string{xml}, directory.None)[brk.id] {
		if watched == "" || key < watched {
			watched = key
		}
	}
	if watched == "" {
		t.Fatal("peer 1 brokers none of the document's keys; the test needs one")
	}
	got := make(chan search.DocResult, 16)
	cancel := sub.PostPersistentQuery(watched, func(res search.DocResult) { got <- res })
	defer cancel()
	d, err := pub.Publish(xml)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case res := <-got:
		if res.Key != d.ID || res.Peer != pub.id {
			t.Fatalf("notified of %s at peer %d, want %s at %d", res.Key, res.Peer, d.ID, pub.id)
		}
		body, err := sub.FetchDocument(res.Peer, res.Key)
		if err != nil || body != xml {
			t.Fatalf("FetchDocument(%d, %s) = %q, %v; want the published body", res.Peer, res.Key, body, err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no notification reached the subscriber")
	}
}

// TestBrokerServesBodyCarryingPut: a put whose snippet carries a body —
// what a node that files whole documents sends — still decodes, is stored
// with its body, is served by BrokerGet, and is found by SearchAll.
func TestBrokerServesBodyCarryingPut(t *testing.T) {
	peers := quietCommunity(t, 3, 1.0)
	pub, brk, searcher := peers[0], peers[1], peers[2]
	var key string
	for i := 0; key == ""; i++ {
		if _, owner, _ := pub.brokerRing().Successor(chash.Hash(fmt.Sprint("osprey", i))); owner == brk.id {
			key = fmt.Sprint("osprey", i)
		}
	}
	sn := broker.Snippet{ID: "osprey-doc", Owner: int32(pub.id), XML: "<doc>" + key + " sighting</doc>", Keys: []string{key}}
	if err := pub.tp.BrokerPutBatch(brk.id, []transport.KeyedSnippet{{Snippet: sn, Keys: sn.Keys}}, time.Minute); err != nil {
		t.Fatal(err)
	}
	sns, err := searcher.tp.BrokerGet(brk.id, key)
	if err != nil || len(sns) != 1 || !reflect.DeepEqual(sns[0], sn) {
		t.Fatalf("BrokerGet(%q) = %+v, %v; want the stored snippet %+v", key, sns, err, sn)
	}
	docs := searcher.SearchAll(key)
	if len(docs) != 1 || docs[0].Key != sn.ID || docs[0].Peer != pub.id {
		t.Fatalf("SearchAll(%q) = %+v; want the brokered snippet", key, docs)
	}
}

// TestBrokerFailedBatchMarksBrokerOfflineOnce: an unreachable broker costs
// a publish batch one send attempt and one strike — not one per key it
// owns, which would exile it inside one batch — and the other brokers still
// get everything routed to them. A second failed batch is the off-line
// verdict.
func TestBrokerFailedBatchMarksBrokerOfflineOnce(t *testing.T) {
	peers := quietCommunity(t, 4, 0.3)
	p, victim := peers[1], peers[3].id
	xmls := brokerCorpus(24)
	var mu sync.Mutex
	attempts := make(map[directory.PeerID]int)
	p.tp.FateHook = func(to directory.PeerID) (error, bool, time.Duration, bool) {
		mu.Lock()
		defer mu.Unlock()
		attempts[to]++
		if to == victim {
			return errors.New("injected: broker unreachable"), false, 0, false
		}
		return nil, false, 0, false
	}
	want := perKeyContents(p, xmls, victim)
	gen := p.dir.Generation()
	if _, err := p.PublishBatch(xmls); err != nil {
		t.Fatal(err)
	}
	for _, q := range peers {
		if q != p && attempts[q.id] != 1 {
			t.Errorf("broker %d was sent %d frames for one batch, want 1", q.id, attempts[q.id])
		}
	}
	if e, _ := p.dir.Entry(victim); !e.Online {
		t.Error("one failed batch marked its broker off-line")
	}
	if got := brokerContents(peers); !reflect.DeepEqual(got, want) {
		t.Fatalf("surviving brokers' contents differ from per-key routing:\n got %v\nwant %v", got, want)
	}
	if _, err := p.PublishBatch(brokerCorpus(48)[24:]); err != nil {
		t.Fatal(err)
	}
	if e, _ := p.dir.Entry(victim); e.Online {
		t.Error("broker still believed on-line after two failed batches in a row")
	}
	// Two publishes (self upserts) and one off-line flip moved the directory.
	if got := p.dir.Generation() - gen; got != 3 {
		t.Errorf("directory generation moved %d times, want 3", got)
	}
}

// TestBrokerBatchNotifiesWatchersAsPerKey: a watcher is notified once per
// key of a matching snippet put at the broker it watches — what per-key
// puts did — however the puts were framed.
func TestBrokerBatchNotifiesWatchersAsPerKey(t *testing.T) {
	peers := quietCommunity(t, 3, 1.0)
	pub, watcher := peers[0], peers[2]
	xml := `<doc>osprey falcon kestrel harrier merlin goshawk buzzard condor heron egret</doc>`
	byBroker := perKeyContents(pub, []string{xml}, directory.None)
	// Watch, from the third peer, a key that peer 1 brokers.
	var watched string
	for key := range byBroker[peers[1].id] {
		if watched == "" || key < watched {
			watched = key
		}
	}
	if watched == "" || len(byBroker[peers[1].id]) < 2 {
		t.Fatalf("peer 1 brokers %d of the document's keys; the test needs 2", len(byBroker[peers[1].id]))
	}
	watcher.brokerWatch([]string{watched})
	var mu sync.Mutex
	notifies := 0
	peers[1].tp.FateHook = func(to directory.PeerID) (error, bool, time.Duration, bool) {
		mu.Lock()
		defer mu.Unlock()
		if to == watcher.id {
			notifies++
		}
		return nil, false, 0, false
	}
	mustPublish(t, pub, xml)
	mu.Lock()
	defer mu.Unlock()
	if want := len(byBroker[peers[1].id]); notifies != want {
		t.Fatalf("watcher notified %d times for a snippet with %d keys at the broker", notifies, want)
	}
}

// TestBrokerDropsDepartedWatcher: a broker whose directory lists a watcher
// as off-line drops its registration at the next matching put instead of
// sending it a Notify per key, and counts the drop.
func TestBrokerDropsDepartedWatcher(t *testing.T) {
	peers := quietCommunity(t, 3, 1.0)
	pub, broker, watcher := peers[0], peers[1], peers[2]
	xml := `<doc>osprey falcon kestrel harrier merlin goshawk buzzard condor heron egret</doc>`
	var watched string
	for key := range perKeyContents(pub, []string{xml}, directory.None)[broker.id] {
		if watched == "" || key < watched {
			watched = key
		}
	}
	if watched == "" {
		t.Fatal("peer 1 brokers none of the document's keys; the test needs one")
	}
	watcher.brokerWatch([]string{watched})
	broker.dir.MarkOffline(watcher.id, time.Second)
	var mu sync.Mutex
	notifies := 0
	broker.tp.FateHook = func(to directory.PeerID) (error, bool, time.Duration, bool) {
		mu.Lock()
		defer mu.Unlock()
		if to == watcher.id {
			notifies++
		}
		return nil, false, 0, false
	}
	mustPublish(t, pub, xml)
	mu.Lock()
	defer mu.Unlock()
	if notifies != 0 {
		t.Fatalf("departed watcher was sent %d notifications", notifies)
	}
	if got := broker.reg.Snapshot().Counters["broker_watchers_dropped_total"]; got != 1 {
		t.Fatalf("broker_watchers_dropped_total = %d, want 1", got)
	}
	broker.mu.Lock()
	defer broker.mu.Unlock()
	if len(broker.watchers) != 0 {
		t.Fatalf("broker still holds %d registrations", len(broker.watchers))
	}
}

// TestBrokerWatchIgnoresEmptyAndRepeated: a broker keeps neither a watch
// with no keys, which would match every snippet put there, nor a second
// copy of a watch it holds, which would notify its watcher twice per put.
func TestBrokerWatchIgnoresEmptyAndRepeated(t *testing.T) {
	xml := `<doc>osprey falcon kestrel harrier merlin goshawk buzzard condor heron egret</doc>`
	for _, tc := range []struct {
		name  string
		watch func(t *testing.T, watcher *Peer, broker directory.PeerID, key string)
		want  func(keysAtBroker int) int
	}{
		{"empty", func(t *testing.T, w *Peer, b directory.PeerID, _ string) {
			if err := w.tp.BrokerWatch(b, nil); err != nil {
				t.Fatal(err)
			}
		}, func(int) int { return 0 }},
		{"repeated", func(_ *testing.T, w *Peer, _ directory.PeerID, key string) {
			w.brokerWatch([]string{key})
			w.brokerWatch([]string{key})
		}, func(n int) int { return n }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			peers := quietCommunity(t, 3, 1.0)
			pub, broker, watcher := peers[0], peers[1], peers[2]
			keys := perKeyContents(pub, []string{xml}, directory.None)[broker.id]
			var watched string
			for key := range keys {
				if watched == "" || key < watched {
					watched = key
				}
			}
			if watched == "" {
				t.Fatal("peer 1 brokers none of the document's keys; the test needs one")
			}
			tc.watch(t, watcher, broker.id, watched)
			var mu sync.Mutex
			notifies := 0
			broker.tp.FateHook = func(to directory.PeerID) (error, bool, time.Duration, bool) {
				mu.Lock()
				defer mu.Unlock()
				if to == watcher.id {
					notifies++
				}
				return nil, false, 0, false
			}
			mustPublish(t, pub, xml)
			mu.Lock()
			defer mu.Unlock()
			if want := tc.want(len(keys)); notifies != want {
				t.Fatalf("watcher notified %d times, want %d (one registration: one per key at the broker)", notifies, want)
			}
		})
	}
}

// TestRepeatedBrokerPutNotifiesOnce: a broker sent the same snippet for a
// key twice — a retried batch — holds it once and notifies its watcher
// once.
func TestRepeatedBrokerPutNotifiesOnce(t *testing.T) {
	peers := quietCommunity(t, 3, 1.0)
	pub, brk, watcher := peers[0], peers[1], peers[2]
	brk.addWatcher([]string{"osprey"}, watcher.id)
	var mu sync.Mutex
	notifies := 0
	brk.tp.FateHook = func(to directory.PeerID) (error, bool, time.Duration, bool) {
		mu.Lock()
		defer mu.Unlock()
		if to == watcher.id {
			notifies++
		}
		return nil, false, 0, false
	}
	sn := broker.Snippet{ID: "osprey-doc", Owner: int32(pub.id), XML: "<doc>osprey</doc>", Keys: []string{"osprey"}}
	for i := 0; i < 2; i++ {
		if err := pub.tp.BrokerPutBatch(brk.id, []transport.KeyedSnippet{{Snippet: sn, Keys: sn.Keys}}, time.Minute); err != nil {
			t.Fatal(err)
		}
	}
	if got := brk.broker.Get("osprey"); len(got) != 1 {
		t.Fatalf("broker holds %d copies of the snippet, want 1", len(got))
	}
	mu.Lock()
	defer mu.Unlock()
	if notifies != 1 {
		t.Fatalf("watcher notified %d times for one snippet put twice, want 1", notifies)
	}
}
