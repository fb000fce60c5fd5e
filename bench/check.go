package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"

	"planetp"
	"planetp/internal/store"
	"planetp/internal/text"
)

// Correctness gates. Every one runs before any metric is printed; a
// failure ends the run with a non-zero exit and no metrics.

var errGate = errors.New("correctness gate")

// searchReply is the part of POST /v1/search's body the gates read.
type searchReply struct {
	Hits []struct {
		Peer  int32   `json:"peer"`
		Key   string  `json:"key"`
		Score float64 `json:"score"`
	} `json:"hits"`
}

// checkSearchReply asserts that hits are score-descending and that every
// hit's document contains at least one query word according to the
// harness's own copy of the corpus (a stub's canned document, by
// construction, contains the first query term).
func checkSearchReply(body []byte, query []int32, c *corpus) error {
	var r searchReply
	if err := json.Unmarshal(body, &r); err != nil {
		return fmt.Errorf("search reply: %w", err)
	}
	for i, h := range r.Hits {
		if i > 0 && h.Score > r.Hits[i-1].Score {
			return fmt.Errorf("hit %d scores %g after %g: not descending", i, h.Score, r.Hits[i-1].Score)
		}
		if !strings.HasPrefix(h.Key, stubKeyPrefix) && !c.hasAny(h.Key, query) {
			return fmt.Errorf("hit %s (peer %d) contains no query word", h.Key, h.Peer)
		}
	}
	return nil
}

// checkPublishReply asserts the node acknowledged exactly the batch's
// document ids, in order.
func checkPublishReply(body []byte, docs []genDoc) error {
	var r struct {
		IDs []string `json:"ids"`
	}
	if err := json.Unmarshal(body, &r); err != nil {
		return fmt.Errorf("publish reply: %w", err)
	}
	if len(r.IDs) != len(docs) {
		return fmt.Errorf("publish acked %d ids for %d docs", len(r.IDs), len(docs))
	}
	for i, id := range r.IDs {
		if id != docs[i].key {
			return fmt.Errorf("publish id %d is %s, want %s", i, id, docs[i].key)
		}
	}
	return nil
}

// checkVocabulary asserts the generated words pass through the node's
// text pipeline unchanged, so the harness's word ranks and the node's
// index terms name the same things.
func checkVocabulary(sc scale) error {
	for _, i := range []int32{0, 1, 9, int32(sc.fanWords - 1), int32(sc.vocab - 1), int32(sc.vocab + sc.markers - 1), int32(sc.rankVocab - 1)} {
		if got := text.ParseQuery(word(i)); len(got) != 1 || got[0] != word(i) {
			return fmt.Errorf("%w: word %q parses to %v", errGate, word(i), got)
		}
	}
	return nil
}

// checkMarkers asserts each marker document is found, alone, from every
// node.
func checkMarkers(c *cluster, seed int64, sc scale) error {
	docs := preloadDocs(seed, sc)[:sc.markers]
	cl := newHTTPClient(&c.httpBytes)
	defer cl.CloseIdleConnections()
	var buf bytes.Buffer
	for n, url := range c.urls {
		for m, d := range docs {
			o := searchOp(int32(sc.vocab + m))
			status, err := post(cl, url+"/v1/search", o.body, "", &buf)
			if err != nil || status != http.StatusOK {
				return fmt.Errorf("%w: marker %d on node %d: status %d: %v", errGate, m, n, status, err)
			}
			var r searchReply
			if err := json.Unmarshal(buf.Bytes(), &r); err != nil {
				return fmt.Errorf("%w: marker %d on node %d: %v", errGate, m, n, err)
			}
			if len(r.Hits) != 1 || r.Hits[0].Key != d.key {
				return fmt.Errorf("%w: marker %d on node %d found %d hits, want exactly %s", errGate, m, n, len(r.Hits), d.key)
			}
		}
	}
	return nil
}

// checkDurable stops node 0 and asserts that its data directory holds
// exactly the documents node 0 acknowledged: the preloaded ones plus
// acked. It reads the directory through store.Open, as a restarting peer
// does, but does not re-ingest the documents (a fresh NewPeer replays
// them one Publish at a time, ~2 ms each).
func checkDurable(c *cluster, acked []string) error {
	c.peers[0].Stop()
	st, rec, err := store.Open(store.Options{Dir: c.dirs[0]})
	if err != nil {
		return fmt.Errorf("%w: reopening node 0's store: %v", errGate, err)
	}
	defer st.Close()
	want := make(map[string]bool, len(c.nodeDocs[0])+len(acked))
	for _, d := range c.nodeDocs[0] {
		want[d.key] = true
	}
	for _, k := range acked {
		want[k] = true
	}
	var docs []string
	if rec.Snapshot != nil {
		snap, err := planetp.DecodeSnapshot(rec.Snapshot)
		if err != nil {
			return fmt.Errorf("%w: node 0's snapshot: %v", errGate, err)
		}
		docs = snap.Docs
	}
	for _, op := range rec.Ops {
		if op.Kind == store.OpPublish {
			docs = append(docs, op.Data)
		}
	}
	got := make(map[string]bool, len(docs))
	for _, xml := range docs {
		k := docKey(xml)
		if !want[k] {
			return fmt.Errorf("%w: node 0 recovered %s, which it never acknowledged", errGate, k)
		}
		got[k] = true
	}
	if len(got) != len(want) {
		return fmt.Errorf("%w: node 0 recovered %d documents, acknowledged %d", errGate, len(got), len(want))
	}
	return nil
}
