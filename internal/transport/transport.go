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
// of exchanges; an exchange whose reused conn proves dead under it is
// re-sent once on a fresh dial (see exchangePooled).
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
	"slices"
	"sync"
	"time"

	"planetp/internal/broker"
	"planetp/internal/directory"
	"planetp/internal/gossip"
	"planetp/internal/metrics"
	"planetp/internal/search"
)

// Kind tags an envelope; it is the frame's kind byte.
type Kind uint8

// Envelope kinds. Every request kind is idempotent at its receiver: the
// transport delivers at least once, re-sending a request whose reused conn
// died under it before any reply byte arrived (exchangePooled), so a
// request the peer already handled may arrive again. The call kinds are
// reads; each oneway kind's note says why a repeat changes nothing.
const (
	// KindGossip carries a one-way gossip message. Idempotent: a record
	// not newer than the held one is refused, and a repeated ack does not
	// advance a rumor's retirement.
	KindGossip Kind = iota
	// KindQuery asks the target to run a local query; KindQueryResp
	// answers.
	KindQuery
	// KindBrokerPut stores snippets at the target's broker: Puts, each
	// snippet once with the keys to file it under. Idempotent: a repeated
	// put refreshes the snippet in place and notifies no watcher again.
	KindBrokerPut
	// KindBrokerGet fetches snippets for a key; answered by
	// KindSnippets.
	KindBrokerGet
	// KindBrokerWatch registers a persistent-query watch at the
	// target's broker; matches come back as KindNotify one-ways.
	// Idempotent: an exact repeat of a held watch is not kept.
	KindBrokerWatch
	// KindNotify delivers a matched snippet to a watcher. Idempotent: a
	// persistent query fires once per document key.
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
	// repairs what a lost push misses). Idempotent: an offer not newer
	// than the held copy is refused.
	KindReplicaPut
	// KindReplicaPurge tells a replica holder the origin removed (or
	// superseded) a document (one-way). Idempotent: a repeat finds the
	// replica gone and the death certificate held, and logs nothing.
	KindReplicaPurge
	// Bytes 18 and 19 are reserved: they were the hoard pull's request
	// and reply, retired when every holder came to push. A request of a
	// node that still sends one gets the "unknown kind" error reply.
	_
	_

	// KindAck is the server's receipt for a one-way envelope. On a
	// pooled stream a sender cannot tell a delivered oneway from one
	// written into a dead connection without it; the ack closes that gap
	// and keeps offline detection (send failures drive suspicion)
	// truthful under connection reuse.
	KindAck

	numKinds
)

// String implements fmt.Stringer; the names also suffix the per-kind
// byte counters: transport_{tx,rx}_bytes_<kind> for the exchanges a peer
// starts, transport_{tx,rx}_bytes_served_<kind> for those it answers. A
// kind byte this code does not know is "unknown"; so are the bytes of a
// frame whose kind was never decoded (plain, not served).
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
	Hits    []search.Hit
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
	// purged replica.
	Origin directory.PeerID
	Epoch  uint32
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
// Each of Keys must be one of Snippet.Keys: the frame names it by its
// index there.
type KeyedSnippet struct {
	Snippet broker.Snippet
	Keys    []string
}

// Handler is the application side of the transport (implemented by
// core.Peer). Every method must be idempotent: the transport may deliver a
// request twice (see the Kind constants), and handling the repeat must
// change nothing the first delivery did not.
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
	// SelfRecord returns the peer's current record (bootstrap).
	SelfRecord() directory.Record
}

// RankingHandler is the optional Handler extension that answers a ranked
// query with the peer's rq.K best documents, scored where they are held:
// rows in the columns of rq.Scorer(terms).
type RankingHandler interface {
	HandleRankedQuery(terms []string, rq search.RankQuery) []search.Hit
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

	// Deadlines, pool bounds and the dialer, set once in NewDeferred;
	// fields only so in-package tests can shorten or wrap them.
	//
	// dialTimeout bounds connection attempts; rpcTimeout a whole
	// request/response exchange (encode, server work, decode) once the
	// connection is up.
	dialTimeout, rpcTimeout time.Duration
	// serveTimeout bounds one inbound request on the server side, so a
	// client that connects and stalls cannot pin a handler goroutine
	// forever; serveIdleTimeout how long an inbound session may sit
	// between requests before the server hangs up (the client's next
	// exchange on that conn fails with no reply byte and is re-sent on a
	// fresh dial).
	serveTimeout, serveIdleTimeout time.Duration
	// poolConns caps the idle connections retained per peer address
	// (checkout prefers the most recently used); poolMaxIdle caps them
	// across all addresses (beyond it the longest-idle conn is evicted,
	// whoever owns it); poolIdle is how long an unused pooled conn survives
	// before the reaper closes it.
	poolConns, poolMaxIdle int
	poolIdle               time.Duration
	// dial opens a TCP connection to addr within timeout.
	dial func(addr string, timeout time.Duration) (net.Conn, error)

	// FateHook, when non-nil, is consulted once per peer-addressed send
	// attempt, before the pool is touched — the per-message fault seam
	// for pooled streams, where most sends never dial (see
	// faultnet.Plan.SendFate). Set before use; not synchronized.
	FateHook FateHook

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
	// ratio; stale counts idle conns retired beside one that failed under
	// an exchange (and any found desynced at checkout); redials counts
	// exchanges re-sent on a fresh dial after their reused conn died;
	// evicted/reaped count cap- and idle-driven closes.
	poolReuse     *metrics.Counter
	poolMisses    *metrics.Counter
	poolStale     *metrics.Counter
	poolRedials   *metrics.Counter
	poolEvicted   *metrics.Counter
	poolReaped    *metrics.Counter
	poolIdleConns *metrics.Gauge

	// initiated counts the exchanges this peer starts, by request kind;
	// served those it answers, so a reply (an ack included) it writes is
	// never charged as a request of that kind sent.
	initiated, served byteCounters
}

// byteCounters are the per-kind byte counters of one side of exchanges,
// the starting or the answering one, indexed by request kind; numKinds is
// "unknown".
type byteCounters struct {
	tx, rx [numKinds + 1]*metrics.Counter
}

func newByteCounters(r *metrics.Registry, infix string) byteCounters {
	var b byteCounters
	for k := Kind(0); k <= numKinds; k++ {
		b.tx[k] = r.Counter("transport_tx_bytes_" + infix + k.String())
		b.rx[k] = r.Counter("transport_rx_bytes_" + infix + k.String())
	}
	return b
}

// add charges one exchange's byte delta (measured at the net.Conn
// boundary) to its request kind; kinds past the known ones are charged to
// "unknown".
func (b *byteCounters) add(kind Kind, sent, recv int64) {
	kind = min(kind, numKinds)
	b.tx[kind].Add(sent)
	b.rx[kind].Add(recv)
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

		initiated: newByteCounters(r, ""),
		served:    newByteCounters(r, "served_"),
	}
	return m
}

// isTimeout reports whether err is a deadline expiry.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// countTimeout records err in the timeout counter when it is a deadline
// expiry.
func (t *Transport) countTimeout(err error) {
	if isTimeout(err) {
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
		dial: func(addr string, timeout time.Duration) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, timeout)
		},
		m: newTpMetrics(reg),
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

// FateHook decides one send attempt's injected fate (see
// faultnet.Plan.SendFate): err fails the attempt outright (counted like a
// refused dial); drop loses the message after an apparently clean send;
// delay stalls before transmission; kill tears the connection carrying the
// exchange.
type FateHook func(to directory.PeerID) (err error, drop bool, delay time.Duration, kill bool)

// dialAddr connects to an address, counting the attempt and its outcome.
func (t *Transport) dialAddr(addr string) (net.Conn, error) {
	t.m.dials.Inc()
	conn, err := t.dial(addr, t.dialTimeout)
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
	return t.exchangePooled(addr, env, false, false)
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
	return t.exchangePooled(addr, env, oneway, kill)
}

// exchangePooled runs one framed RPC against addr over a pooled conn,
// dialing on a pool miss. The request is encoded before any conn is taken,
// so one that fails to encode (ErrEncode) touches none. A conn that fails
// under the exchange is closed with every idle conn pooled beside it
// (connPool.retire). One rule, whatever the kind, decides a re-dial: an
// exchange on a reused conn that failed before any reply byte arrived, and
// not by its deadline expiring, is re-sent once with the same request
// bytes on a fresh dial. The request may have been handled already; every
// kind is idempotent at its receiver (see Kind), so the repeat is
// harmless. A timed-out exchange is not re-sent, so no caller waits twice
// the deadline. All other failures surface to the caller. kill injects a
// conn death just before the exchange (faultnet's ConnKill fate).
func (t *Transport) exchangePooled(addr string, env *Envelope, oneway, kill bool) (*Envelope, error) {
	req, err := encodeFrame(env)
	defer freeFrame(req)
	if err != nil {
		return nil, err
	}
	pc := t.pool.get(addr)
	for attempt := 0; ; attempt++ {
		reused := pc != nil
		if !reused {
			conn, err := t.dialAddr(addr)
			if err != nil {
				return nil, err
			}
			if attempt == 0 {
				t.m.poolMisses.Inc()
			}
			pc = newPconn(conn, addr)
		}
		if kill && attempt == 0 {
			pc.conn.Close()
		}
		resp, err := t.exchangeOn(pc, env.Kind, *req, oneway)
		if err == nil || isRemote(err) {
			// A reply, or the peer's own refusal: the stream is intact
			// and reusable.
			t.pool.put(pc)
			return resp, err
		}
		pc.conn.Close()
		t.pool.retire(addr)
		if !reused || pc.gotRespByte() || isTimeout(err) {
			return nil, err
		}
		t.m.poolRedials.Inc()
		pc = nil
	}
}

// isRemote reports whether err is the peer answering with an application
// error — a healthy exchange as far as the wire is concerned.
func isRemote(err error) bool {
	var re *RemoteError
	return errors.As(err, &re)
}

// exchangeOn runs one request/response frame on a pooled conn: arm the
// per-exchange deadline, write the encoded request, read the reply (an
// ack, for oneways). Byte deltas, charged to the request's kind, and
// latency are recorded per exchange.
func (t *Transport) exchangeOn(pc *pconn, kind Kind, req []byte, oneway bool) (*Envelope, error) {
	start := time.Now()
	pc.beginExchange()
	defer func() {
		sent, recv := pc.cc.take()
		t.m.initiated.add(kind, sent, recv)
		t.m.rpcLatencyUS.Observe(time.Since(start).Microseconds())
	}()
	_ = pc.conn.SetDeadline(time.Now().Add(t.rpcTimeout))
	if _, err := pc.w.Write(req); err != nil {
		t.countTimeout(err)
		return nil, err
	}
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
// terms, or all of them, each with the frequencies of the terms it holds.
// The peer's documents are its own, so each names to as its holder.
func (t *Transport) Query(to directory.PeerID, terms []string, all bool) ([]search.DocResult, error) {
	hits, err := t.query(to, &Envelope{Kind: KindQuery, Terms: terms, All: all})
	if err != nil || len(hits) == 0 {
		return nil, err
	}
	cols := columns(terms)
	docs := make([]search.DocResult, len(hits))
	for i, h := range hits {
		if len(h.Freqs) != len(cols) {
			return nil, fmt.Errorf("transport: peer %d answered %d terms with rows of %d: %w", to, len(cols), len(h.Freqs), errFrame)
		}
		var tf map[string]int
		for j, f := range h.Freqs {
			if f > 0 {
				if tf == nil {
					tf = make(map[string]int, len(cols))
				}
				tf[cols[j]] = int(f)
			}
		}
		docs[i] = search.DocResult{Peer: to, Key: h.Key, TermFreqs: tf, DocLen: h.DocLen}
	}
	return docs, nil
}

// QueryRanked asks a peer for its rq.K best documents for terms under
// equation 2; the frame carries rq as its rank header. The rows are in the
// columns of rq.Scorer(terms), if the peer answered as asked.
func (t *Transport) QueryRanked(to directory.PeerID, terms []string, rq search.RankQuery) ([]search.Hit, error) {
	return t.query(to, &Envelope{Kind: KindQuery, Terms: terms, K: rq.K, N: rq.N, Nt: rq.Nt})
}

func (t *Transport) query(to directory.PeerID, env *Envelope) ([]search.Hit, error) {
	resp, err := t.call(to, env)
	if err != nil {
		return nil, err
	}
	return resp.Hits, nil
}

// BrokerPut stores a snippet under key at the owning peer's broker: a
// BrokerPutBatch of one. key must be one of sn.Keys, or the put fails to
// encode.
func (t *Transport) BrokerPut(to directory.PeerID, key string, sn broker.Snippet, discard time.Duration) error {
	return t.BrokerPutBatch(to, []KeyedSnippet{{Snippet: sn, Keys: []string{key}}}, discard)
}

// BrokerPutBatch stores every snippet of puts, under each of its keys, at
// one peer's broker in a single frame. A put filing a snippet under a key
// that is not among the snippet's own Keys fails to encode, and nothing is
// sent.
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
			// Stray bytes, part of no exchange, are charged to the
			// plain "unknown" counters.
			sent, recv := cc.take()
			t.m.initiated.add(numKinds, sent, recv)
			return
		}
		_ = conn.SetDeadline(time.Now().Add(t.serveTimeout))
		resp := t.dispatch(&env)
		err := fc.writeFrame(&resp)
		sent, recv := cc.take()
		t.m.served.add(env.Kind, sent, recv)
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
		return Envelope{Kind: KindQueryResp, Hits: t.answerQuery(env)}
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
	default:
		return Envelope{Kind: env.Kind, Err: "unknown kind"}
	}
}

// answerQuery runs a KindQuery: the full list for a frame without a rank
// header (conjunctive queries, the bench's replay), else the handler's K
// best. Either way the answer is rows: a full list's in the columns of
// every term the frame names, a ranked one's in those its header weighs.
func (t *Transport) answerQuery(env *Envelope) []search.Hit {
	if env.All || env.K <= 0 {
		return search.Rows(t.handler.HandleQuery(env.Terms, env.All), columns(env.Terms))
	}
	rq := search.RankQuery{K: env.K, N: env.N, Nt: env.Nt}
	if t.ranker != nil {
		return t.ranker.HandleRankedQuery(env.Terms, rq)
	}
	// Fall-back for a Handler that does not rank (the bench's stubs):
	// delete with the bench's pin on Handler, ROADMAP 1(a). An answer of
	// at most K needs no scores.
	docs := t.handler.HandleQuery(env.Terms, false)
	if len(docs) <= rq.K {
		return search.Rows(docs, columns(env.Terms[:min(len(env.Terms), len(env.Nt))]))
	}
	sc := rq.Scorer(env.Terms)
	top := sc.TopK(rq.K)
	for _, h := range search.Rows(docs, sc.Terms) {
		if score := sc.Score(h.Freqs, h.DocLen); top.Admits(score) {
			top.Insert(score, h.Key, h.Freqs, h.DocLen)
		}
	}
	return top.Hits()
}

// columns are a query reply's columns for terms: the distinct terms,
// sorted, as search.RankQuery.Scorer orders them.
func columns(terms []string) []string {
	cols := slices.Clone(terms)
	slices.Sort(cols)
	return slices.Compact(cols)
}
