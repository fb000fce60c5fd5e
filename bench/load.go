package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"planetp/internal/metrics"
	"planetp/internal/text"
)

// sample is one completed request. end is relative to the load's base
// time.
type sample struct {
	end     time.Duration
	lat     time.Duration
	publish bool
	ok      bool
	bytes   int // request body length
}

// client is one closed-loop load generator: it waits for each reply
// before sending the next request, over one keep-alive connection per
// node.
type client struct {
	id      int
	gen     opGen
	http    *http.Client
	buf     bytes.Buffer
	an      text.Analyzer
	samples []sample
	acked0  []string // ids of the documents node 0 acknowledged
	gateErr error
}

// replayEvery is the traced run's replay sampling: every 10th traced
// search and every 10th traced publish of each client, starting with the
// first (counted per kind: on mixed_rw a publish is every 20th op, which
// one shared counter would never sample).
const replayEvery = 10

// run sends requests until stop is set. Every reply is checked against
// the harness's copy of the corpus; the first violation is kept and ends
// the client.
func (cl *client) run(c *cluster, base time.Time, stop *atomic.Bool, tr *tracer, rs *replayState) {
	var tracedSearches, tracedPublishes int
	for n := 0; !stop.Load(); n++ {
		o := cl.gen()
		node := (cl.id + n) % len(c.urls)
		path := "/v1/search"
		if o.publish {
			path = "/v1/publish-batch"
			c.corpus.add(o.docs)
		}
		tracing := tr.enabled()
		var opID int64
		header := ""
		if tracing {
			opID = tr.newID()
			header = strconv.FormatInt(opID, 10)
		}
		start := time.Now()
		status, err := post(cl.http, c.urls[node]+path, o.body, header, &cl.buf)
		end := time.Now()
		ok := err == nil && status == http.StatusOK
		cl.samples = append(cl.samples, sample{end: end.Sub(base), lat: end.Sub(start), publish: o.publish, ok: ok, bytes: len(o.body)})
		if !ok {
			continue
		}
		if o.publish {
			if node == 0 {
				for _, d := range o.docs {
					cl.acked0 = append(cl.acked0, d.key)
				}
			}
			err = checkPublishReply(cl.buf.Bytes(), o.docs)
		} else {
			err = checkSearchReply(cl.buf.Bytes(), o.query, c.corpus)
		}
		if err != nil {
			cl.gateErr = fmt.Errorf("%w: node %d %s %s: %v", errGate, node, path, o.body[:min(len(o.body), 80)], err)
			return
		}
		if !tracing {
			continue
		}
		name := "client.search"
		if o.publish {
			name = "client.publish"
			tr.ack(node, c.peers[node].Node().SelfRecord().Ver)
		}
		tr.add(span{Name: name, ID: opID, Op: opID, Node: node, Start: int64(start.Sub(tr.epoch)), End: int64(end.Sub(tr.epoch))})
		if o.publish {
			if tracedPublishes++; tracedPublishes%replayEvery == 1 {
				if err := rs.publish(&cl.an, opID, node, o.docs); err != nil {
					cl.gateErr = fmt.Errorf("publish replay: %w", err)
					return
				}
			}
		} else if tracedSearches++; tracedSearches%replayEvery == 1 {
			rs.search(opID, node, o.text)
		}
	}
}

// reading is the harness's view of the system at one instant: the sum of
// every endpoint's registry, the directories' generations, the bytes on
// the harness's HTTP connections, and the process's CPU and allocator
// counters.
type reading struct {
	at       time.Duration
	node     metrics.Snapshot
	gens     uint64
	http     int64
	cpu      time.Duration
	mallocs  uint64
	gcPause  time.Duration
	fsyncs   int64
	walBytes int64
}

func (c *cluster) read(base time.Time, tr *tracer) reading {
	snaps := make([]metrics.Snapshot, len(c.regs))
	for i, reg := range c.regs {
		snaps[i] = reg.Snapshot()
	}
	r := reading{at: time.Since(base), node: addSnapshots(snaps), http: c.httpBytes.Load()}
	for _, p := range c.peers {
		r.gens += p.Directory().Generation()
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		r.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.mallocs, r.gcPause = ms.Mallocs, time.Duration(ms.PauseTotalNs)
	if tr != nil {
		r.fsyncs, r.walBytes = tr.fsyncs.Load(), tr.walBytes.Load()
	}
	return r
}

// addSnapshots adds counters and histograms name by name (gauges too:
// resident bytes and the like add up across nodes).
func addSnapshots(snaps []metrics.Snapshot) metrics.Snapshot {
	out := metrics.Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]metrics.HistogramSnapshot{},
	}
	for _, s := range snaps {
		for k, v := range s.Counters {
			out.Counters[k] += v
		}
		for k, v := range s.Gauges {
			out.Gauges[k] += v
		}
		for k, h := range s.Histograms {
			acc, ok := out.Histograms[k]
			if !ok {
				out.Histograms[k] = h
				continue
			}
			acc.Count += h.Count
			acc.Sum += h.Sum
			for i := range acc.Counts {
				acc.Counts[i] += h.Counts[i]
			}
			out.Histograms[k] = acc
		}
	}
	return out
}

// leg is one uninterrupted measured stretch: the readings that bracket
// it.
type leg struct {
	from, to reading
}

// phase is the set of legs measured under one condition (tracing off, or
// on).
type phase []leg

func (p phase) dur() time.Duration {
	var d time.Duration
	for _, l := range p {
		d += l.to.at - l.from.at
	}
	return d
}

// delta is what changed over the phase's legs; gauges read as at the end
// of the last leg.
func (p phase) delta() reading {
	var d reading
	snaps := make([]metrics.Snapshot, len(p))
	for i, l := range p {
		snaps[i] = l.to.node.Delta(l.from.node)
		d.at += l.to.at - l.from.at
		d.gens += l.to.gens - l.from.gens
		d.http += l.to.http - l.from.http
		d.cpu += l.to.cpu - l.from.cpu
		d.mallocs += l.to.mallocs - l.from.mallocs
		d.gcPause += l.to.gcPause - l.from.gcPause
		d.fsyncs += l.to.fsyncs - l.from.fsyncs
		d.walBytes += l.to.walBytes - l.from.walBytes
	}
	d.node = addSnapshots(snaps)
	d.node.Gauges = p[len(p)-1].to.node.Gauges
	return d
}

// loadResult is everything a finished load leaves behind.
type loadResult struct {
	nodes   int      // cluster nodes (stubs excluded)
	procs   int      // GOMAXPROCS, shared by generator and nodes
	acked0  []string // ids of the documents node 0 acknowledged
	samples []sample
	ref     []refSample // the reference kernels' timings beside the load
	plain   phase       // tracing off
	traced  phase       // tracing on (empty unless the run is traced)
	heapMB  float64     // live heap when the load ended
}

// numClients is the closed loop's width: no more threads or connections
// than cores.
func numClients() int { return min(runtime.GOMAXPROCS(0), 4) }

// runLoad drives the closed loop: warm-up, then the measured window. A
// traced run splits the window into quarters — off, on, on, off — so
// that a rate drifting over the window (publishing slows as the index
// grows) weighs equally on both conditions.
func runLoad(ctx context.Context, c *cluster, newGen func(client int) opGen, sc scale, measure time.Duration, tr *tracer, rs *replayState) (res *loadResult, err error) {
	ref, err := newReference()
	if err != nil {
		return nil, err
	}
	defer func() {
		if cerr := ref.close(); err == nil && cerr != nil {
			res, err = nil, cerr
		}
	}()
	n := numClients()
	clients := make([]*client, n)
	var stop atomic.Bool
	var wg sync.WaitGroup
	base := time.Now()
	refDone := make(chan struct{})
	refOut := make(chan []refSample, 1)
	go func() { refOut <- ref.watch(base, sc.refEvery, refDone) }()
	for i := range clients {
		clients[i] = &client{id: i, gen: newGen(i), http: newHTTPClient(&c.httpBytes)}
		wg.Add(1)
		go func(cl *client) {
			defer wg.Done()
			defer cl.http.CloseIdleConnections()
			cl.run(c, base, &stop, tr, rs)
		}(clients[i])
	}
	// wait sleeps unless the run is cancelled; after a cancellation the
	// remaining waits return at once and the clients are stopped below.
	wait := func(d time.Duration) {
		select {
		case <-ctx.Done():
		case <-time.After(d):
		}
	}
	wait(sc.warm)
	res = &loadResult{nodes: len(c.peers), procs: runtime.GOMAXPROCS(0)}
	from := c.read(base, tr)
	if tr == nil {
		wait(measure)
		res.plain = phase{{from, c.read(base, tr)}}
	} else {
		for q := 0; q < 4; q++ {
			on := q == 1 || q == 2
			tr.on.Store(on)
			wait(measure / 4)
			to := c.read(base, tr)
			if on {
				res.traced = append(res.traced, leg{from, to})
			} else {
				res.plain = append(res.plain, leg{from, to})
			}
			from = to
		}
		tr.on.Store(false)
	}
	stop.Store(true)
	close(refDone)
	wg.Wait()
	res.ref = <-refOut
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res.heapMB = float64(heapAfterGC().HeapAlloc) / 1e6
	for _, cl := range clients {
		if cl.gateErr != nil {
			return nil, cl.gateErr
		}
		res.samples = append(res.samples, cl.samples...)
		res.acked0 = append(res.acked0, cl.acked0...)
	}
	return res, nil
}

// within returns the samples that completed inside one of the phase's
// legs.
func within(samples []sample, p phase) []sample {
	var out []sample
	for _, s := range samples {
		for _, l := range p {
			if s.end >= l.from.at && s.end < l.to.at {
				out = append(out, s)
				break
			}
		}
	}
	return out
}
