// Package transport is PlanetP's live network layer: framed messages over
// TCP that carry gossip (one-way), search RPCs, brokerage operations, and
// document fetches between peers. It implements gossip.Env, so the exact
// protocol engine that runs in the simulator runs over real sockets here.
//
// The wire model is a persistent framed stream: every RPC — including the
// protocol's one-way sends, which receive a small KindAck receipt — is one
// request frame and one response frame on a long-lived connection (see
// frame.go for the codec), bounded by a per-exchange deadline. The client
// side pools idle connections per peer address (see pool.go), so sustained
// gossip and query fan-out amortize the dial round-trip across thousands
// of exchanges; a reused conn that proves dead under an RPC is
// transparently re-dialed once, but only when delivery provably did not
// happen.
//
// The transport holds no opinion on whether a peer is reachable: one send
// is one attempt, and its error goes to the caller. gossip.Node turns
// those outcomes into the off-line verdict (DESIGN §4d).
package transport

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"planetp/internal/broker"
	"planetp/internal/directory"
	"planetp/internal/gossip"
	"planetp/internal/metrics"
	"planetp/internal/replica"
	"planetp/internal/search"
)

// Kind tags an envelope; it is the frame's kind byte.
type Kind uint8

// Envelope kinds.
const (
	// KindGossip carries a one-way gossip message.
	KindGossip Kind = iota
	// KindQuery asks the target to run a local query; KindQueryResp
	// answers.
	KindQuery
	// KindBrokerPut stores snippets at the target's broker: Puts, each
	// snippet once with the keys to file it under.
	KindBrokerPut
	// KindBrokerGet fetches snippets for a key; answered by
	// KindSnippets.
	KindBrokerGet
	// KindBrokerWatch registers a persistent-query watch at the
	// target's broker; matches come back as KindNotify one-ways.
	KindBrokerWatch
	// KindNotify delivers a matched snippet to a watcher.
	KindNotify
	// KindGetDoc fetches a document body by key; answered by KindDoc.
	KindGetDoc
	// KindRecord requests the target's self record (bootstrap);
	// answered by KindRecordResp.
	KindRecord
	// KindProxySearch asks the target to run a full ranked search on
	// the requester's behalf (the paper's proxy-search accommodation
	// for bandwidth-limited peers); answered by KindProxyResp.
	KindProxySearch

	// Response kinds.
	KindQueryResp
	KindSnippets
	KindDoc
	KindRecordResp
	KindProxyResp

	// KindPeerExchange requests a bounded random sample of the target's
	// known-on-line directory records (bootstrap discovery); answered by
	// KindPeers. New kinds append here so existing kind bytes keep their
	// meaning.
	KindPeerExchange
	KindPeers

	// KindReplicaPut pushes a replica of a hot document to a
	// ring-responsible peer (one-way, best effort — the hoarding loop
	// repairs what a lost push misses).
	KindReplicaPut
	// KindReplicaPurge tells a replica holder the origin removed (or
	// superseded) a document (one-way).
	KindReplicaPurge
	// KindHotDocs asks a peer for its hottest served documents (the
	// hoard exchange); answered by KindHotList.
	KindHotDocs
	KindHotList

	// KindAck is the server's receipt for a one-way envelope. On a
	// pooled stream a sender cannot tell a delivered oneway from one
	// written into a dead connection without it; the ack closes that gap
	// and keeps offline detection (send failures drive suspicion)
	// truthful under connection reuse.
	KindAck

	numKinds
)

// String implements fmt.Stringer; the names also suffix the per-kind
// byte counters (transport_tx_bytes_<kind>).
func (k Kind) String() string {
	switch k {
	case KindGossip:
		return "gossip"
	case KindQuery:
		return "query"
	case KindBrokerPut:
		return "broker_put"
	case KindBrokerGet:
		return "broker_get"
	case KindBrokerWatch:
		return "broker_watch"
	case KindNotify:
		return "notify"
	case KindGetDoc:
		return "get_doc"
	case KindRecord:
		return "record"
	case KindProxySearch:
		return "proxy_search"
	case KindQueryResp:
		return "query_resp"
	case KindSnippets:
		return "snippets"
	case KindDoc:
		return "doc"
	case KindRecordResp:
		return "record_resp"
	case KindProxyResp:
		return "proxy_resp"
	case KindPeerExchange:
		return "peer_exchange"
	case KindPeers:
		return "peers"
	case KindReplicaPut:
		return "replica_put"
	case KindReplicaPurge:
		return "replica_purge"
	case KindHotDocs:
		return "hot_docs"
	case KindHotList:
		return "hot_list"
	case KindAck:
		return "ack"
	}
	return "unknown"
}

// Envelope is one frame in memory. A frame carries only the fields its
// Kind uses (frame.go, codec.body); the rest are zero on receipt. From is
// carried by KindGossip and KindBrokerWatch, the kinds whose receiver
// reads it; Err, when set, makes the frame an error reply carrying nothing
// else.
type Envelope struct {
	Kind Kind
	From directory.PeerID

	Gossip  *gossip.Message
	Terms   []string
	All     bool
	K       int
	Docs    []search.DocResult
	Scored  []search.ScoredDoc
	Snippet *broker.Snippet
	Snips   []broker.Snippet
	Discard time.Duration
	Key     string
	XML     string
	Found   bool
	Record  *directory.Record
	Records []directory.Record
	Err     string
	// Origin/Epoch identify the publishing incarnation of a pushed or
	// purged replica; Hot carries a hoard exchange's advertisement.
	Origin directory.PeerID
	Epoch  uint32
	Hot    []replica.HotDoc
	// Puts is a KindBrokerPut's content (Discard applies to all of it).
	Puts []KeyedSnippet
	// N and Nt, with K, are a ranked KindQuery's rank header
	// (search.RankQuery); K == 0 — a frame without one — asks for every
	// match.
	N  int
	Nt []int
}

// KeyedSnippet is one snippet of a KindBrokerPut frame with the keys the
// receiving broker files it under — those of the snippet's keys it owns.
type KeyedSnippet struct {
	Snippet broker.Snippet
	Keys    []string
}

// Handler is the application side of the transport (implemented by
// core.Peer).
type Handler interface {
	// HandleGossip delivers a gossip message.
	HandleGossip(from directory.PeerID, m *gossip.Message)
	// HandleQuery runs a local query (all = conjunctive).
	HandleQuery(terms []string, all bool) []search.DocResult
	// HandleBrokerPut stores a brokered snippet locally under key.
	HandleBrokerPut(key string, sn broker.Snippet, discard time.Duration)
	// HandleBrokerGet returns local snippets for key.
	HandleBrokerGet(key string) []broker.Snippet
	// HandleBrokerWatch registers a remote watcher.
	HandleBrokerWatch(keys []string, watcher directory.PeerID)
	// HandleNotify delivers a matched snippet to this (watching) peer.
	HandleNotify(sn broker.Snippet)
	// HandleGetDoc returns a stored document's XML.
	HandleGetDoc(key string) (string, bool)
	// HandleProxySearch runs a ranked search on behalf of a
	// bandwidth-limited requester.
	HandleProxySearch(terms []string, k int) []search.ScoredDoc
	// HandlePeerExchange returns a random sample of at most max
	// known-on-line directory records (bootstrap discovery).
	HandlePeerExchange(max int) []directory.Record
	// HandleReplicaPut offers this peer a replica of a hot document
	// published by origin at epoch (best-effort push replication).
	HandleReplicaPut(key, xml string, origin directory.PeerID, epoch uint32)
	// HandleReplicaPurge tells this peer the origin removed (or
	// superseded) a document it may hold a replica of.
	HandleReplicaPurge(key string, origin directory.PeerID, epoch uint32)
	// HandleHotDocs returns up to max of this peer's hottest served
	// documents (the hoard exchange).
	HandleHotDocs(max int) []replica.HotDoc
	// SelfRecord returns the peer's current record (bootstrap).
	SelfRecord() directory.Record
}

// RankingHandler is the optional Handler extension that answers a ranked
// query with the peer's rq.K best documents, scored where they are held.
type RankingHandler interface {
	HandleRankedQuery(terms []string, rq search.RankQuery) []search.DocResult
}

// Resolver maps peer ids to dialable addresses (the directory's Addr
// field).
type Resolver func(id directory.PeerID) (string, bool)

// Transport is one peer's network endpoint.
type Transport struct {
	id      directory.PeerID
	ln      net.Listener
	handler Handler
	ranker  RankingHandler // handler, when it ranks; else nil
	resolve Resolver
	start   time.Time
	// rng is handed out via Rand() for the gossip node's exclusive,
	// externally synchronized use; transport internals must not touch it.
	rng *rand.Rand

	// intervalCh wakes the gossip loop when the node's interval
	// changes.
	intervalCh chan time.Duration

	mu        sync.Mutex
	closed    bool
	accepting bool
	sessions  map[net.Conn]struct{}
	wg        sync.WaitGroup

	pool *connPool

	// Deadlines and pool bounds, set once in NewDeferred; fields only so
	// in-package tests can shorten them.
	//
	// dialTimeout bounds connection attempts; rpcTimeout a whole
	// request/response exchange (encode, server work, decode) once the
	// connection is up.
	dialTimeout, rpcTimeout time.Duration
	// serveTimeout bounds one inbound request on the server side, so a
	// client that connects and stalls cannot pin a handler goroutine
	// forever; serveIdleTimeout how long an inbound session may sit
	// between requests before the server hangs up (the client pool's
	// staleness probe absorbs the hangup without losing an RPC).
	serveTimeout, serveIdleTimeout time.Duration
	// poolConns caps the idle connections retained per peer address
	// (checkout prefers the most recently used); poolMaxIdle caps them
	// across all addresses (beyond it the longest-idle conn is evicted,
	// whoever owns it); poolIdle is how long an unused pooled conn survives
	// before the reaper closes it.
	poolConns, poolMaxIdle int
	poolIdle               time.Duration

	// DialHook, when non-nil, replaces TCP dialing for peer-addressed
	// sends (fault injection; see internal/faultnet). Set before use;
	// not synchronized.
	DialHook DialHook
	// FateHook, when non-nil, is consulted once per peer-addressed send
	// attempt, before the pool is touched — the per-message fault seam
	// for pooled streams, where most sends never dial (see
	// faultnet.Plan.SendFate). Set before use; not synchronized.
	FateHook FateHook
	// BytesSent/BytesRecv count real encoded bytes (approximate:
	// counted at the net.Conn boundary). Read with atomic.LoadInt64.
	BytesSent, BytesRecv int64

	m tpMetrics
}

// tpMetrics holds the transport's registry instruments, resolved once at
// construction (all nil — a no-op — when no registry is supplied).
type tpMetrics struct {
	dials        *metrics.Counter
	dialFailures *metrics.Counter
	timeouts     *metrics.Counter
	rpcLatencyUS *metrics.Histogram

	// Pool instrumentation: reuse/misses give the connection-reuse
	// ratio; stale counts conns discarded at checkout or invalidation;
	// redials counts transparent re-dials after a reused conn died
	// mid-RPC; evicted/reaped count cap- and idle-driven closes.
	poolReuse     *metrics.Counter
	poolMisses    *metrics.Counter
	poolStale     *metrics.Counter
	poolRedials   *metrics.Counter
	poolEvicted   *metrics.Counter
	poolReaped    *metrics.Counter
	poolIdleConns *metrics.Gauge

	txBytes [numKinds]*metrics.Counter
	rxBytes [numKinds]*metrics.Counter
}

func newTpMetrics(r *metrics.Registry) tpMetrics {
	m := tpMetrics{
		dials:        r.Counter("transport_dials_total"),
		dialFailures: r.Counter("transport_dial_failures_total"),
		timeouts:     r.Counter("transport_timeouts_total"),
		rpcLatencyUS: r.Histogram("transport_rpc_latency_us",
			[]int64{100, 500, 1000, 5000, 10000, 50000, 100000, 500000, 1000000}),

		poolReuse:     r.Counter("transport_pool_reuse_total"),
		poolMisses:    r.Counter("transport_pool_misses_total"),
		poolStale:     r.Counter("transport_pool_stale_total"),
		poolRedials:   r.Counter("transport_pool_redials_total"),
		poolEvicted:   r.Counter("transport_pool_evicted_total"),
		poolReaped:    r.Counter("transport_pool_reaped_total"),
		poolIdleConns: r.Gauge("transport_pool_idle_conns"),
	}
	for k := Kind(0); k < numKinds; k++ {
		m.txBytes[k] = r.Counter("transport_tx_bytes_" + k.String())
		m.rxBytes[k] = r.Counter("transport_rx_bytes_" + k.String())
	}
	return m
}

// countTimeout records err in the timeout counter when it is a deadline
// expiry.
func (t *Transport) countTimeout(err error) {
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.m.timeouts.Inc()
	}
}

// countingConn counts bytes crossing a net.Conn so the transport can
// attribute real wire volume to an envelope kind. On a pooled stream the
// conn outlives many exchanges, so take drains per-exchange deltas
// instead of the conn being read once at close.
type countingConn struct {
	net.Conn
	sent, recv           int64
	takenSent, takenRecv int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.recv += int64(n)
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.sent += int64(n)
	return n, err
}

// take returns the bytes transferred since the previous take — the
// current exchange's share of the stream.
func (c *countingConn) take() (sent, recv int64) {
	sent, recv = c.sent-c.takenSent, c.recv-c.takenRecv
	c.takenSent, c.takenRecv = c.sent, c.recv
	return sent, recv
}

// account charges one exchange's byte delta to the transport totals and
// the per-kind counters. kind is the request kind; responses (and acks)
// are charged to the same kind — the exchange that caused them.
func (t *Transport) account(kind Kind, sent, recv int64) {
	atomic.AddInt64(&t.BytesSent, sent)
	atomic.AddInt64(&t.BytesRecv, recv)
	if kind < numKinds {
		t.m.txBytes[kind].Add(sent)
		t.m.rxBytes[kind].Add(recv)
	}
}

// New starts listening on listenAddr ("" or "127.0.0.1:0" for an
// ephemeral port). reg, when non-nil, receives the transport's metrics
// (transport_* names); nil disables instrumentation.
func New(id directory.PeerID, listenAddr string, handler Handler, resolve Resolver, seed int64, reg *metrics.Registry) (*Transport, error) {
	t, err := NewDeferred(id, listenAddr, handler, resolve, seed, reg)
	if err != nil {
		return nil, err
	}
	t.StartAccepting()
	return t, nil
}

// NewDeferred binds the listener like New but does not serve inbound
// requests until StartAccepting. A peer under construction needs this:
// its handler's dependencies (the gossip node in particular) are wired
// only after the transport exists — because the self record embeds the
// bound address — and a join request racing that window would hit them
// half-built. The port is still reserved immediately, so remote dials
// queue in the accept backlog rather than failing.
func NewDeferred(id directory.PeerID, listenAddr string, handler Handler, resolve Resolver, seed int64, reg *metrics.Registry) (*Transport, error) {
	if listenAddr == "" {
		listenAddr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", listenAddr)
	if err != nil {
		return nil, fmt.Errorf("transport: %w", err)
	}
	t := &Transport{
		id: id, ln: ln, handler: handler, resolve: resolve,
		start:            time.Now(),
		rng:              rand.New(rand.NewSource(seed)),
		intervalCh:       make(chan time.Duration, 4),
		sessions:         make(map[net.Conn]struct{}),
		dialTimeout:      2 * time.Second,
		rpcTimeout:       10 * time.Second,
		serveTimeout:     30 * time.Second,
		serveIdleTimeout: 2 * time.Minute,
		// A peer's working set of correspondents per gossip round is
		// small, so a handful of conns per address and a bounded global
		// budget cover the hot paths.
		poolConns:   4,
		poolMaxIdle: 128,
		poolIdle:    time.Minute,
		m:           newTpMetrics(reg),
	}
	t.ranker, _ = handler.(RankingHandler)
	t.pool = newConnPool(t)
	return t, nil
}

// StartAccepting begins serving inbound connections. Idempotent, and a
// no-op after Close — so an aborted construction can Close a deferred
// transport without leaking the accept loop.
func (t *Transport) StartAccepting() {
	t.mu.Lock()
	if t.accepting || t.closed {
		t.mu.Unlock()
		return
	}
	t.accepting = true
	t.wg.Add(1)
	t.mu.Unlock()
	go t.acceptLoop()
}

// Addr returns the bound listen address.
func (t *Transport) Addr() string { return t.ln.Addr().String() }

// Close shuts the endpoint down: the listener stops, live inbound
// sessions are severed (their goroutines unblock on the closed conn), the
// client pool drains, and every server goroutine is awaited.
func (t *Transport) Close() {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	t.closed = true
	open := make([]net.Conn, 0, len(t.sessions))
	for c := range t.sessions {
		open = append(open, c)
	}
	t.mu.Unlock()
	t.ln.Close()
	for _, c := range open {
		c.Close()
	}
	t.pool.closeAll()
	t.wg.Wait()
}

// IntervalCh exposes interval-change wakeups for the gossip driver loop.
func (t *Transport) IntervalCh() <-chan time.Duration { return t.intervalCh }

// --- gossip.Env ---

// Now implements gossip.Env as monotonic time since transport start.
func (t *Transport) Now() time.Duration { return time.Since(t.start) }

// Rand implements gossip.Env.
func (t *Transport) Rand() *rand.Rand { return t.rng }

// IntervalChanged implements gossip.Env.
func (t *Transport) IntervalChanged(d time.Duration) {
	select {
	case t.intervalCh <- d:
	default:
	}
}

// Send implements gossip.Env: one-way delivery of a gossip message.
func (t *Transport) Send(to directory.PeerID, m *gossip.Message) error {
	return t.oneway(to, &Envelope{Kind: KindGossip, From: t.id, Gossip: m})
}

// --- client operations ---

// RemoteError is an application-level error returned by a live peer
// (e.g. "unknown kind"): the peer answered, it just said no. The stream
// it arrived on is intact and goes back to the pool.
type RemoteError struct{ Msg string }

func (e *RemoteError) Error() string { return e.Msg }

// DialHook overrides connection establishment for peer-addressed sends —
// the seam internal/faultnet mounts to inject dial failures, partitions,
// black holes, and delays under the real framed TCP stack. addr is the
// resolved address; a nil hook dials TCP directly.
type DialHook func(to directory.PeerID, addr string, timeout time.Duration) (net.Conn, error)

// FateHook decides one send attempt's injected fate (see
// faultnet.Plan.SendFate): err fails the attempt outright (counted like a
// refused dial); drop loses the message after an apparently clean send;
// delay stalls before transmission; kill tears the connection carrying the
// exchange.
type FateHook func(to directory.PeerID) (err error, drop bool, delay time.Duration, kill bool)

// dialPeer connects to a resolved peer address, through DialHook when one
// is mounted.
func (t *Transport) dialPeer(to directory.PeerID, addr string) (net.Conn, error) {
	if t.DialHook != nil {
		t.m.dials.Inc()
		conn, err := t.DialHook(to, addr, t.dialTimeout)
		if err != nil {
			t.m.dialFailures.Inc()
			t.countTimeout(err)
			return nil, err
		}
		return conn, nil
	}
	return t.dialAddr(addr)
}

// dialAddr connects to a raw address, counting the attempt and its
// outcome.
func (t *Transport) dialAddr(addr string) (net.Conn, error) {
	t.m.dials.Inc()
	conn, err := net.DialTimeout("tcp", addr, t.dialTimeout)
	if err != nil {
		t.m.dialFailures.Inc()
		t.countTimeout(err)
		return nil, err
	}
	return conn, nil
}

// oneway sends an envelope and waits for the server's ack.
func (t *Transport) oneway(to directory.PeerID, env *Envelope) error {
	_, err := t.roundTrip(to, env, true)
	return err
}

// call sends an envelope and reads one reply.
func (t *Transport) call(to directory.PeerID, env *Envelope) (*Envelope, error) {
	return t.roundTrip(to, env, false)
}

// callAddr is like call but dials a raw address (bootstrap, before the
// peer is in the directory). Conns pool under the raw address like any
// other.
func (t *Transport) callAddr(addr string, env *Envelope) (*Envelope, error) {
	return t.exchangePooled(addr, func() (net.Conn, error) { return t.dialAddr(addr) }, env, false, false)
}

// roundTrip is one peer-addressed send attempt: resolve, consult the
// fault seam, then run the exchange over a pooled conn.
func (t *Transport) roundTrip(to directory.PeerID, env *Envelope, oneway bool) (*Envelope, error) {
	addr, ok := t.resolve(to)
	if !ok || addr == "" {
		t.m.dialFailures.Inc()
		return nil, fmt.Errorf("transport: no address for peer %d", to)
	}
	kill := false
	if t.FateHook != nil {
		ferr, drop, delay, k := t.FateHook(to)
		if ferr != nil {
			// Injected dial failure / partition: account it exactly
			// like a refused dial.
			t.m.dials.Inc()
			t.m.dialFailures.Inc()
			t.countTimeout(ferr)
			return nil, ferr
		}
		if delay > 0 {
			time.Sleep(delay)
		}
		if drop {
			// The message is lost after a clean send: oneways succeed
			// from the sender's view, calls never hear back.
			if oneway {
				return nil, nil
			}
			return nil, fmt.Errorf("faultnet: response from peer %d dropped", to)
		}
		kill = k
	}
	t.pool.noteAddr(to, addr)
	return t.exchangePooled(addr, func() (net.Conn, error) { return t.dialPeer(to, addr) }, env, oneway, kill)
}

// exchangePooled runs one framed RPC against addr over a pooled conn,
// dialing on a pool miss. A reused conn that fails under the RPC is
// closed and — only when delivery provably did not happen (see
// pconn.undelivered) — transparently re-dialed once; all other failures
// surface to the caller. kill injects a
// conn death just before the exchange (faultnet's ConnKill fate).
func (t *Transport) exchangePooled(addr string, dial func() (net.Conn, error), env *Envelope, oneway, kill bool) (*Envelope, error) {
	pc, reused := t.pool.get(addr), true
	if pc == nil {
		conn, err := dial()
		if err != nil {
			return nil, err
		}
		t.m.poolMisses.Inc()
		pc, reused = newPconn(conn, addr), false
	}
	if kill {
		pc.conn.Close()
	}
	resp, err := t.exchangeOn(pc, env, oneway)
	if err == nil {
		t.pool.put(pc)
		return resp, nil
	}
	if isRemote(err) {
		// The peer answered; the stream is intact and reusable.
		t.pool.put(pc)
		return nil, err
	}
	pc.conn.Close()
	if !reused || !pc.undelivered(oneway) {
		return nil, err
	}
	// The conn was healthy when pooled but dead under this RPC, and the
	// request cannot have taken effect: re-dial once, invisibly to the
	// caller.
	t.m.poolRedials.Inc()
	conn, derr := dial()
	if derr != nil {
		return nil, derr
	}
	pc = newPconn(conn, addr)
	resp, err = t.exchangeOn(pc, env, oneway)
	if err != nil {
		if isRemote(err) {
			t.pool.put(pc)
		} else {
			pc.conn.Close()
		}
		return nil, err
	}
	t.pool.put(pc)
	return resp, nil
}

// isRemote reports whether err is the peer answering with an application
// error — a healthy exchange as far as the wire is concerned.
func isRemote(err error) bool {
	var re *RemoteError
	return errors.As(err, &re)
}

// exchangeOn runs one request/response frame on a pooled conn: arm the
// per-exchange deadline, write the request, read the reply (an ack,
// for oneways). Byte deltas and latency are recorded per exchange.
func (t *Transport) exchangeOn(pc *pconn, env *Envelope, oneway bool) (*Envelope, error) {
	start := time.Now()
	pc.beginExchange()
	defer func() {
		sent, recv := pc.cc.take()
		t.account(env.Kind, sent, recv)
		t.m.rpcLatencyUS.Observe(time.Since(start).Microseconds())
	}()
	_ = pc.conn.SetDeadline(time.Now().Add(t.rpcTimeout))
	if err := pc.writeFrame(env); err != nil {
		t.countTimeout(err)
		return nil, err
	}
	pc.wroteReq = true
	var resp Envelope
	if err := pc.readFrame(&resp); err != nil {
		t.countTimeout(err)
		return nil, err
	}
	_ = pc.conn.SetDeadline(time.Time{})
	if resp.Err != "" {
		return nil, &RemoteError{Msg: resp.Err}
	}
	if oneway {
		return nil, nil
	}
	return &resp, nil
}

// Query runs a search RPC against a peer: every document matching any of
// terms, or all of them.
func (t *Transport) Query(to directory.PeerID, terms []string, all bool) ([]search.DocResult, error) {
	return t.query(to, &Envelope{Kind: KindQuery, Terms: terms, All: all})
}

// QueryRanked asks a peer for its rq.K best documents for terms under
// equation 2; the frame carries rq as its rank header.
func (t *Transport) QueryRanked(to directory.PeerID, terms []string, rq search.RankQuery) ([]search.DocResult, error) {
	return t.query(to, &Envelope{Kind: KindQuery, Terms: terms, K: rq.K, N: rq.N, Nt: rq.Nt})
}

func (t *Transport) query(to directory.PeerID, env *Envelope) ([]search.DocResult, error) {
	resp, err := t.call(to, env)
	if err != nil {
		return nil, err
	}
	return resp.Docs, nil
}

// BrokerPut stores a snippet under key at the owning peer's broker: a
// BrokerPutBatch of one.
func (t *Transport) BrokerPut(to directory.PeerID, key string, sn broker.Snippet, discard time.Duration) error {
	return t.BrokerPutBatch(to, []KeyedSnippet{{Snippet: sn, Keys: []string{key}}}, discard)
}

// BrokerPutBatch stores every snippet of puts, under each of its keys, at
// one peer's broker in a single frame.
func (t *Transport) BrokerPutBatch(to directory.PeerID, puts []KeyedSnippet, discard time.Duration) error {
	return t.oneway(to, &Envelope{Kind: KindBrokerPut, Puts: puts, Discard: discard})
}

// BrokerGet fetches live snippets for key from a broker.
func (t *Transport) BrokerGet(to directory.PeerID, key string) ([]broker.Snippet, error) {
	resp, err := t.call(to, &Envelope{Kind: KindBrokerGet, Key: key})
	if err != nil {
		return nil, err
	}
	return resp.Snips, nil
}

// BrokerWatch registers this peer as a watcher for keys at a broker.
func (t *Transport) BrokerWatch(to directory.PeerID, keys []string) error {
	return t.oneway(to, &Envelope{Kind: KindBrokerWatch, From: t.id, Terms: keys})
}

// Notify delivers a matched snippet to a watcher.
func (t *Transport) Notify(to directory.PeerID, sn broker.Snippet) error {
	return t.oneway(to, &Envelope{Kind: KindNotify, Snippet: &sn})
}

// ErrDocNotFound reports that the remote peer answered the fetch but
// does not hold the document — a definitive miss (stale filter bit,
// purged replica), distinct from a transport failure where the peer may
// well still hold it. Callers resolving replicas failover differently on
// the two: a miss is a contact and moves on to the next candidate, an
// unreachable peer takes a strike.
var ErrDocNotFound = errors.New("document not found")

// GetDoc fetches a document body from a peer.
func (t *Transport) GetDoc(to directory.PeerID, key string) (string, error) {
	resp, err := t.call(to, &Envelope{Kind: KindGetDoc, Key: key})
	if err != nil {
		return "", err
	}
	if !resp.Found {
		return "", fmt.Errorf("transport: document %s on peer %d: %w", key, to, ErrDocNotFound)
	}
	return resp.XML, nil
}

// ReplicaPut pushes a replica of a hot document to a chosen holder
// (one-way, best effort: the holder may refuse silently if the epoch is
// stale or its budget disagrees).
func (t *Transport) ReplicaPut(to directory.PeerID, key, xml string, origin directory.PeerID, epoch uint32) error {
	return t.oneway(to, &Envelope{Kind: KindReplicaPut, Key: key, XML: xml, Origin: origin, Epoch: epoch})
}

// ReplicaPurge tells a holder that the origin removed the document at
// epoch; the holder drops its replica and records a death certificate.
func (t *Transport) ReplicaPurge(to directory.PeerID, key string, origin directory.PeerID, epoch uint32) error {
	return t.oneway(to, &Envelope{Kind: KindReplicaPurge, Key: key, Origin: origin, Epoch: epoch})
}

// HotDocs asks a peer for its hottest documents (hoarding pull): key,
// origin, epoch and current popularity score of up to max docs.
func (t *Transport) HotDocs(to directory.PeerID, max int) ([]replica.HotDoc, error) {
	resp, err := t.call(to, &Envelope{Kind: KindHotDocs, K: max})
	if err != nil {
		return nil, err
	}
	return resp.Hot, nil
}

// ProxySearch asks a better-connected peer to run the whole ranked
// search and return the top-k results.
func (t *Transport) ProxySearch(to directory.PeerID, terms []string, k int) ([]search.ScoredDoc, error) {
	resp, err := t.call(to, &Envelope{Kind: KindProxySearch, Terms: terms, K: k})
	if err != nil {
		return nil, err
	}
	return resp.Scored, nil
}

// FetchRecord asks an address for its peer's current self record
// (bootstrap).
func (t *Transport) FetchRecord(addr string) (directory.Record, error) {
	resp, err := t.callAddr(addr, &Envelope{Kind: KindRecord})
	if err != nil {
		return directory.Record{}, err
	}
	if resp.Record == nil {
		return directory.Record{}, errors.New("transport: empty record response")
	}
	return *resp.Record, nil
}

// --- server side ---

func (t *Transport) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			return // listener closed
		}
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			conn.Close()
			return
		}
		t.sessions[conn] = struct{}{}
		t.wg.Add(1)
		t.mu.Unlock()
		go func() {
			defer t.wg.Done()
			t.serve(conn)
		}()
	}
}

// serve handles one inbound session: a loop of request/response frames on
// a persistent stream. Between requests the conn may idle up to
// serveIdleTimeout, which also bounds reading the request; each accepted
// request gets serveTimeout to finish. The session ends when the client
// hangs up (or its pool reaps the conn), the idle deadline fires, a frame
// fails to decode, or a response fails to write.
func (t *Transport) serve(conn net.Conn) {
	defer func() {
		conn.Close()
		t.mu.Lock()
		delete(t.sessions, conn)
		t.mu.Unlock()
	}()
	cc := &countingConn{Conn: conn}
	fc := newFrameConn(cc)
	for {
		_ = conn.SetReadDeadline(time.Now().Add(t.serveIdleTimeout))
		var env Envelope
		if err := fc.readFrame(&env); err != nil {
			// End of session — client gone, idle expiry, or garbage.
			// Stray bytes still land in the totals (kind unknown, so
			// no per-kind charge).
			sent, recv := cc.take()
			atomic.AddInt64(&t.BytesSent, sent)
			atomic.AddInt64(&t.BytesRecv, recv)
			return
		}
		_ = conn.SetDeadline(time.Now().Add(t.serveTimeout))
		resp := t.dispatch(&env)
		err := fc.writeFrame(&resp)
		sent, recv := cc.take()
		t.account(env.Kind, sent, recv)
		if err != nil {
			t.countTimeout(err)
			return
		}
		_ = conn.SetWriteDeadline(time.Time{})
	}
}

// dispatch handles one decoded request and returns exactly one response
// frame — oneway kinds get a KindAck receipt, so a pooled sender can tell
// a delivered envelope from one written into a dead conn.
func (t *Transport) dispatch(env *Envelope) Envelope {
	ack := Envelope{Kind: KindAck}
	switch env.Kind {
	case KindGossip:
		if env.Gossip != nil {
			t.handler.HandleGossip(env.From, env.Gossip)
		}
		return ack
	case KindQuery:
		return Envelope{Kind: KindQueryResp, Docs: t.answerQuery(env)}
	case KindBrokerPut:
		for _, put := range env.Puts {
			for _, key := range put.Keys {
				t.handler.HandleBrokerPut(key, put.Snippet, env.Discard)
			}
		}
		return ack
	case KindBrokerGet:
		return Envelope{Kind: KindSnippets, Snips: t.handler.HandleBrokerGet(env.Key)}
	case KindBrokerWatch:
		t.handler.HandleBrokerWatch(env.Terms, env.From)
		return ack
	case KindNotify:
		if env.Snippet != nil {
			t.handler.HandleNotify(*env.Snippet)
		}
		return ack
	case KindGetDoc:
		xml, found := t.handler.HandleGetDoc(env.Key)
		return Envelope{Kind: KindDoc, XML: xml, Found: found}
	case KindRecord:
		rec := t.handler.SelfRecord()
		return Envelope{Kind: KindRecordResp, Record: &rec}
	case KindProxySearch:
		return Envelope{Kind: KindProxyResp, Scored: t.handler.HandleProxySearch(env.Terms, env.K)}
	case KindPeerExchange:
		return Envelope{Kind: KindPeers, Records: t.handler.HandlePeerExchange(clampExchange(env.K))}
	case KindReplicaPut:
		t.handler.HandleReplicaPut(env.Key, env.XML, env.Origin, env.Epoch)
		return ack
	case KindReplicaPurge:
		t.handler.HandleReplicaPurge(env.Key, env.Origin, env.Epoch)
		return ack
	case KindHotDocs:
		return Envelope{Kind: KindHotList, Hot: t.handler.HandleHotDocs(clampExchange(env.K))}
	default:
		return Envelope{Kind: env.Kind, Err: "unknown kind"}
	}
}

// answerQuery runs a KindQuery: the full list for a frame without a rank
// header (conjunctive queries, older searchers), else the handler's K best.
func (t *Transport) answerQuery(env *Envelope) []search.DocResult {
	if env.All || env.K <= 0 {
		return t.handler.HandleQuery(env.Terms, env.All)
	}
	rq := search.RankQuery{K: env.K, N: env.N, Nt: env.Nt}
	if t.ranker != nil {
		return t.ranker.HandleRankedQuery(env.Terms, rq)
	}
	// Fall-back for a Handler that does not rank (the bench's stubs):
	// delete with the bench's pin on Handler, ROADMAP 1(a).
	docs := t.handler.HandleQuery(env.Terms, false)
	if len(docs) > rq.K {
		docs = search.TopDocs(docs, env.Terms, rq)
	}
	return docs
}
