// Package serve is PlanetP's serving tier: a JSON-over-HTTP API fronting
// a live core.Peer, in the "every peer is a web server" style. Each node
// serves its local index and the gossiped global directory to real
// clients:
//
//	POST /v1/search         ranked TFxIPF search
//	POST /v1/publish        publish one XML document
//	POST /v1/publish-batch  publish many documents as one ingest batch
//	GET  /v1/doc/{id}       fetch a document body (local or remote owner)
//	GET  /v1/peers          the directory replica
//	GET  /healthz           liveness + drain status (never sheds)
//	GET  /debug/metrics     the metrics registry as JSON; with
//	                        ?format=prometheus, as Prometheus text 0.0.4
//	GET  /debug/pprof/      net/http/pprof: the index, profile (CPU),
//	                        heap, goroutine and trace
//
// The tier is built to degrade loudly instead of collapsing:
//
//   - Admission control. A fixed-size in-flight slot pool bounds
//     concurrent request work. When the pool is full, requests are shed
//     immediately with 429 and a Retry-After hint — the goroutine count,
//     memory, and queue delay stay bounded no matter the offered load,
//     and every request receives a response.
//
//   - Result caching. Search responses are memoized keyed on (query
//     terms, options) and stamped with directory.Generation(), exactly
//     like the query engine's IPF cache: any publish, membership change,
//     or on/off-line flip moves the generation, and a lookup at the new
//     generation misses every older entry, so a hit can never serve
//     results staler than the node's own view.
//
//   - Graceful drain. Shutdown stops accepting new requests (everything
//     new gets 503, /healthz flips to draining), waits for in-flight
//     requests under a deadline, and returns — after which the caller
//     stops the peer, folding the durable snapshot. No request is
//     abandoned mid-write.
//
// Every route records a latency histogram, and shed/error/cache
// counters plus an in-flight gauge land in the peer's metrics registry
// under serve_* names.
package serve

import (
	"context"
	"net"
	"net/http"
	"net/http/pprof"
	"sync/atomic"
	"time"

	"planetp/internal/core"
	"planetp/internal/metrics"
)

// The serving tier's fixed bounds.
const (
	// retryAfter is the Retry-After hint, in seconds, sent with 429
	// responses.
	retryAfter = "1"
	// cacheEntries bounds the search result cache.
	cacheEntries = 1024
	// defaultK is the top-k used by searches that do not specify one.
	defaultK = 10
	// maxBatch bounds documents per publish-batch request.
	maxBatch = 1024
	// maxBodyBytes bounds request bodies.
	maxBodyBytes = 8 << 20
)

// Config tunes the serving tier. The zero value takes the defaults noted
// on each field.
type Config struct {
	// MaxInFlight bounds concurrently admitted requests across all /v1
	// routes; beyond it requests are shed with 429 (default 256).
	MaxInFlight int
}

// serveLatencyBounds are the microsecond buckets for per-route
// serve_*_latency_us histograms: spanning sub-millisecond local hits to
// multi-second degraded fan-outs.
var serveLatencyBounds = []int64{
	100, 250, 500, 1000, 2500, 5000, 10000, 25000, 50000,
	100000, 250000, 500000, 1000000, 2500000, 5000000,
}

// Server serves the HTTP API for one peer.
type Server struct {
	peer  *core.Peer
	reg   *metrics.Registry
	cache *resultCache

	// slots is the admission semaphore; draining rejects new work
	// before it reaches the pool.
	slots    chan struct{}
	draining atomic.Bool
	httpSrv  *http.Server

	// Instruments are resolved once; handlers do atomic adds only.
	inflight    *metrics.Gauge
	shed        *metrics.Counter
	requests    *metrics.Counter
	errors      *metrics.Counter
	cacheHits   *metrics.Counter
	cacheMisses *metrics.Counter

	// testHook, when set, runs inside every admitted request while its
	// slot is held — a seam for saturating the pool deterministically
	// in tests.
	testHook func(route string)
}

// New builds a server over peer. Metrics go to the peer's registry.
func New(peer *core.Peer, cfg Config) *Server {
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 256
	}
	reg := peer.Metrics()
	s := &Server{
		peer:        peer,
		reg:         reg,
		cache:       newResultCache(),
		slots:       make(chan struct{}, cfg.MaxInFlight),
		inflight:    reg.Gauge("serve_inflight_requests"),
		shed:        reg.Counter("serve_shed_total"),
		requests:    reg.Counter("serve_requests_total"),
		errors:      reg.Counter("serve_errors_total"),
		cacheHits:   reg.Counter("serve_cache_hits_total"),
		cacheMisses: reg.Counter("serve_cache_misses_total"),
	}
	return s
}

// Handler returns the full route mux (the /v1 API, /healthz,
// /debug/metrics — JSON, or Prometheus text with ?format=prometheus — and
// /debug/pprof/), ready to mount on any listener.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/search", s.admit("search", s.handleSearch))
	mux.HandleFunc("POST /v1/publish", s.admit("publish", s.handlePublish))
	mux.HandleFunc("POST /v1/publish-batch", s.admit("publish_batch", s.handlePublishBatch))
	mux.HandleFunc("GET /v1/doc/{id}", s.admit("doc", s.handleDoc))
	mux.HandleFunc("GET /v1/peers", s.admit("peers", s.handlePeers))
	// Liveness, metrics and profiles bypass admission: they must answer
	// exactly when the node is saturated or draining — that is what they
	// are for.
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /debug/metrics", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("format") == "prometheus" {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4")
			s.reg.Snapshot().WritePrometheus(w)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		s.reg.WriteJSON(w)
	})
	// The profiles are registered here, not through net/http/pprof's
	// DefaultServeMux, which nothing serves.
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	mux.Handle("GET /debug/pprof/heap", pprof.Handler("heap"))
	mux.Handle("GET /debug/pprof/goroutine", pprof.Handler("goroutine"))
	return mux
}

// Serve accepts connections on ln until Shutdown. It always returns a
// non-nil error; after Shutdown the error is http.ErrServerClosed.
func (s *Server) Serve(ln net.Listener) error {
	s.httpSrv = &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	return s.httpSrv.Serve(ln)
}

// Shutdown drains the server: new requests are rejected with 503
// immediately, in-flight requests get until the context's deadline to
// finish, then the listener closes. Safe to call without Serve (it then
// only flips the draining flag). The caller stops the peer afterwards —
// draining first means no request can race the peer's final snapshot.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	if s.httpSrv == nil {
		return nil
	}
	return s.httpSrv.Shutdown(ctx)
}

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// InFlight returns the number of currently admitted requests.
func (s *Server) InFlight() int { return len(s.slots) }

// admit wraps a /v1 handler with the admission-control and
// instrumentation envelope: draining → 503; pool full → 429 +
// Retry-After; admitted → per-route counter, in-flight gauge, latency
// histogram. Rejections are instant — no queueing — so under overload
// the node's response time for shed requests stays flat while admitted
// requests keep their normal latency.
func (s *Server) admit(route string, h http.HandlerFunc) http.HandlerFunc {
	routeReqs := s.reg.Counter("serve_" + route + "_requests_total")
	hist := s.reg.Histogram("serve_"+route+"_latency_us", serveLatencyBounds)
	return func(w http.ResponseWriter, r *http.Request) {
		s.requests.Inc()
		routeReqs.Inc()
		if s.draining.Load() {
			writeError(w, http.StatusServiceUnavailable, "draining")
			return
		}
		select {
		case s.slots <- struct{}{}:
		default:
			s.shed.Inc()
			w.Header().Set("Retry-After", retryAfter)
			writeError(w, http.StatusTooManyRequests, "overloaded: in-flight limit reached")
			return
		}
		s.inflight.Add(1)
		defer func() {
			s.inflight.Add(-1)
			<-s.slots
		}()
		if s.testHook != nil {
			s.testHook(route)
		}
		r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
		start := time.Now()
		h(w, r)
		hist.Observe(time.Since(start).Microseconds())
	}
}
