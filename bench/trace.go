package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"planetp/internal/directory"
	"planetp/internal/store"
)

// span is one timed call at a layer boundary. Times are nanoseconds
// since the run's trace epoch. Spans of one request share op_id; parent
// is the id of the span that caused this one (0 = none).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op_id"`
	Node   int    `json:"node"`
	// Agg > 0 marks an aggregate of that many calls too short to record
	// one by one: start is the first call's, end is start plus their
	// summed time, so the span's position inside its parent is not real.
	Agg int64 `json:"agg,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer collects the traced run's spans and the bench-owned decorator
// state. Decorators are installed when the cluster is built and do
// nothing but one atomic load until on is set, so the first (untraced)
// half of a traced run measures the undecorated rate.
type tracer struct {
	epoch time.Time
	on    atomic.Bool
	ids   atomic.Int64

	mu    sync.Mutex
	spans []span
	acks  []ackEvent
	newsE []newsEvent

	fsyncs   atomic.Int64 // File.Sync calls while on
	walBytes atomic.Int64 // bytes written through the store FS while on
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64    { return int64(time.Since(t.epoch)) }
func (t *tracer) newID() int64  { return t.ids.Add(1) }
func (t *tracer) enabled() bool { return t != nil && t.on.Load() }

// add records a finished span, assigning an id when it has none, and
// returns the id.
func (t *tracer) add(s span) int64 {
	if s.ID == 0 {
		s.ID = t.newID()
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s.ID
}

// middleware is the B decorator around Server.Handler(): one span per
// /v1 request, joined to its client span through the X-Bench-Op header
// the bench sets and reads itself.
func (t *tracer) middleware(node int, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		start := t.now()
		h.ServeHTTP(w, r)
		end := t.now()
		name := "serve.search"
		if r.URL.Path != "/v1/search" {
			name = "serve.publish"
		}
		op, _ := strconv.ParseInt(r.Header.Get(opHeader), 10, 64)
		t.add(span{Name: name, Start: start, End: end, Parent: op, Op: op, Node: node})
	})
}

// tracedFS is the B decorator on the store's filesystem seam: it times
// every fsync and counts bytes written.
type tracedFS struct {
	store.FS
	tr   *tracer
	node int
}

func (f tracedFS) Create(name string) (store.File, error) {
	file, err := f.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return tracedFile{File: file, fs: f}, nil
}

func (f tracedFS) OpenAppend(name string) (store.File, error) {
	file, err := f.FS.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	return tracedFile{File: file, fs: f}, nil
}

type tracedFile struct {
	store.File
	fs tracedFS
}

func (f tracedFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	if f.fs.tr.on.Load() {
		f.fs.tr.walBytes.Add(int64(n))
	}
	return n, err
}

func (f tracedFile) Sync() error {
	tr := f.fs.tr
	if !tr.on.Load() {
		return f.File.Sync()
	}
	start := tr.now()
	err := f.File.Sync()
	tr.add(span{Name: "store.fsync", Start: start, End: tr.now(), Node: f.fs.node})
	tr.fsyncs.Add(1)
	return err
}

// ackEvent is a publish acknowledged to a client: node's self version
// right after the reply arrived.
type ackEvent struct {
	at   int64
	node int
	ver  directory.Version
}

// newsEvent is GossipConfig.OnNews firing at node `at`-time for a record
// of node `from`.
type newsEvent struct {
	at   int64
	node int
	from int
	ver  directory.Version
}

func (t *tracer) ack(node int, ver directory.Version) {
	if !t.on.Load() {
		return
	}
	e := ackEvent{at: t.now(), node: node, ver: ver}
	t.mu.Lock()
	t.acks = append(t.acks, e)
	t.mu.Unlock()
}

func (t *tracer) news(node int, rec directory.Record) {
	if !t.on.Load() {
		return
	}
	e := newsEvent{at: t.now(), node: node, from: int(rec.ID), ver: rec.Ver}
	t.mu.Lock()
	t.newsE = append(t.newsE, e)
	t.mu.Unlock()
}

// newsDelays pairs every acknowledged publish with the first OnNews at
// each other node carrying that version or a later one, and returns the
// delays in nanoseconds (news that beat the reply to the client counts
// as 0). Publishes whose news had not arrived when the run ended are
// left out.
func newsDelays(acks []ackEvent, news []newsEvent, nodes int) []int64 {
	sort.Slice(news, func(i, j int) bool { return news[i].at < news[j].at })
	var out []int64
	for _, a := range acks {
		for to := 0; to < nodes; to++ {
			if to == a.node {
				continue
			}
			for _, n := range news {
				if n.node == to && n.from == a.node && !n.ver.Less(a.ver) {
					out = append(out, max(n.at-a.at, 0))
					break
				}
			}
		}
	}
	return out
}

// selfTimes maps span id -> self time: the span's duration minus the
// part of its interval its direct children cover (children clipped to
// the parent, overlaps among children counted once) and minus the full
// length of its aggregate children.
func selfTimes(spans []span) map[int64]int64 {
	children := make(map[int64][]span)
	aggregate := make(map[int64]int64)
	for _, s := range spans {
		switch {
		case s.Parent == 0:
		case s.Agg > 0:
			aggregate[s.Parent] += s.dur()
		default:
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int64]int64, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s.Start, s.End, children[s.ID]) - aggregate[s.ID]
	}
	return out
}

// covered is the length of [start, end) covered by the union of the
// given spans.
func covered(start, end int64, spans []span) int64 {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	var total int64
	at := start
	for _, c := range spans {
		lo, hi := max(c.Start, at), min(c.End, end)
		if hi > lo {
			total += hi - lo
			at = hi
		}
	}
	return total
}

// writeTrace writes the spans as JSON lines to dir/trace-<workload>.jsonl.
func writeTrace(dir, workload string, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "trace-"+workload+".jsonl"))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
