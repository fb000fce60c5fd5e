package serve

import (
	"encoding/json"
	"errors"
	"net/http"
	"strconv"

	"planetp/internal/core"
	"planetp/internal/directory"
	"planetp/internal/doc"
)

// --- wire types ---

// SearchRequest asks for a ranked TFxIPF search.
type SearchRequest struct {
	// Query is the raw query string (plain words or tag:word).
	Query string `json:"query"`
	// K is the number of documents wanted (default Config.DefaultK, at
	// most maxK).
	K int `json:"k,omitempty"`
	// NoCache bypasses the result cache for this request.
	NoCache bool `json:"no_cache,omitempty"`
}

// SearchHit is one ranked result.
type SearchHit struct {
	Peer  int32   `json:"peer"`
	Key   string  `json:"key"`
	Score float64 `json:"score"`
}

// SearchStats reports what the search cost. DocsRetrieved counts the
// documents received from the contacted peers — at most k from each — not
// the documents matching the query.
type SearchStats struct {
	PeersRanked    int  `json:"peers_ranked"`
	PeersContacted int  `json:"peers_contacted"`
	DocsRetrieved  int  `json:"docs_retrieved"`
	StoppedEarly   bool `json:"stopped_early"`
}

// SearchResponse is the body of POST /v1/search. Generation is the
// directory mutation generation the answer was computed at — two
// responses with equal generations were served from the same view.
type SearchResponse struct {
	Hits       []SearchHit `json:"hits"`
	Stats      SearchStats `json:"stats"`
	Generation uint64      `json:"generation"`
}

// PublishRequest carries one XML document.
type PublishRequest struct {
	XML string `json:"xml"`
}

// PublishResponse reports the published document id.
type PublishResponse struct {
	ID string `json:"id"`
}

// PublishBatchRequest carries many documents for one atomic ingest batch.
type PublishBatchRequest struct {
	XMLs []string `json:"xmls"`
}

// PublishBatchResponse reports the index-aligned document ids.
type PublishBatchResponse struct {
	IDs []string `json:"ids"`
}

// DocResponse is the body of GET /v1/doc/{id}.
type DocResponse struct {
	Peer int32  `json:"peer"`
	ID   string `json:"id"`
	XML  string `json:"xml"`
}

// PeerInfo is one directory entry.
type PeerInfo struct {
	ID     int32  `json:"id"`
	Addr   string `json:"addr,omitempty"`
	Online bool   `json:"online"`
	Ver    string `json:"ver"`
	Class  string `json:"class"`
}

// PeersResponse is the body of GET /v1/peers.
type PeersResponse struct {
	Self       int32      `json:"self"`
	Known      int        `json:"known"`
	Online     int        `json:"online"`
	Generation uint64     `json:"generation"`
	Peers      []PeerInfo `json:"peers"`
}

// HealthResponse is the body of GET /healthz.
type HealthResponse struct {
	Status     string `json:"status"` // "ok" or "draining"
	ID         int32  `json:"id"`
	Name       string `json:"name"`
	Docs       int    `json:"docs"`
	Known      int    `json:"known"`
	Online     int    `json:"online"`
	Generation uint64 `json:"generation"`
	InFlight   int    `json:"in_flight"`
}

// ErrorResponse is the body of every non-2xx response.
type ErrorResponse struct {
	Error string `json:"error"`
}

// --- helpers ---

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, ErrorResponse{Error: msg})
}

// decode parses a JSON request body, mapping oversized bodies to 413 and
// malformed ones to 400. It reports whether decoding succeeded (on
// failure the response has been written).
func (s *Server) decode(w http.ResponseWriter, r *http.Request, v any) bool {
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.errors.Inc()
			writeError(w, http.StatusRequestEntityTooLarge,
				"request body exceeds "+strconv.FormatInt(tooBig.Limit, 10)+" bytes")
			return false
		}
		s.errors.Inc()
		writeError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return false
	}
	return true
}

// --- handlers ---

// maxK bounds the k a request may ask for: k comes from outside, and the
// response and every contacted peer's reply grow with it.
const maxK = 10000

// handleSearch serves POST /v1/search through the generation-stamped
// result cache. The generation is read BEFORE the search runs: if a
// publish lands mid-search and moves it, put() drops the entry rather
// than caching a response that may straddle two views.
func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	var req SearchRequest
	if !s.decode(w, r, &req) {
		return
	}
	terms := core.Terms(req.Query)
	if len(terms) == 0 {
		s.errors.Inc()
		writeError(w, http.StatusBadRequest, "query has no searchable terms")
		return
	}
	k := req.K
	if k > maxK {
		s.errors.Inc()
		writeError(w, http.StatusBadRequest, "k exceeds "+strconv.Itoa(maxK))
		return
	}
	if k <= 0 {
		k = s.cfg.DefaultK
	}
	gen := s.peer.Directory().Generation()
	key := searchCacheKey(terms, k)
	if !req.NoCache {
		if body, ok := s.cache.get(gen, key); ok {
			s.cacheHits.Inc()
			w.Header().Set("Content-Type", "application/json")
			w.Header().Set("X-Planetp-Cache", "hit")
			w.Write(body)
			return
		}
		s.cacheMisses.Inc()
	}
	docs, st := s.peer.Search(req.Query, k)
	resp := SearchResponse{
		Hits: make([]SearchHit, len(docs)),
		Stats: SearchStats{
			PeersRanked:    st.PeersRanked,
			PeersContacted: st.PeersContacted,
			DocsRetrieved:  st.DocsRetrieved,
			StoppedEarly:   st.StoppedEarly,
		},
		Generation: gen,
	}
	for i, d := range docs {
		resp.Hits[i] = SearchHit{Peer: int32(d.Peer), Key: d.Key, Score: d.Score}
	}
	body, err := json.Marshal(resp)
	if err != nil {
		s.errors.Inc()
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	body = append(body, '\n')
	verdict := "bypass"
	if !req.NoCache {
		s.cache.put(gen, key, body)
		verdict = "miss"
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Planetp-Cache", verdict)
	w.Write(body)
}

// handlePublish serves POST /v1/publish.
func (s *Server) handlePublish(w http.ResponseWriter, r *http.Request) {
	var req PublishRequest
	if !s.decode(w, r, &req) {
		return
	}
	d, err := s.peer.Publish(req.XML)
	if err != nil {
		s.writePublishError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, PublishResponse{ID: d.ID})
}

// handlePublishBatch serves POST /v1/publish-batch: the whole batch is
// one atomic ingest step (one WAL commit, one index pass, one gossiped
// filter diff).
func (s *Server) handlePublishBatch(w http.ResponseWriter, r *http.Request) {
	var req PublishBatchRequest
	if !s.decode(w, r, &req) {
		return
	}
	if len(req.XMLs) == 0 {
		s.errors.Inc()
		writeError(w, http.StatusBadRequest, "empty batch")
		return
	}
	if len(req.XMLs) > s.cfg.MaxBatch {
		s.errors.Inc()
		writeError(w, http.StatusRequestEntityTooLarge,
			"batch of "+strconv.Itoa(len(req.XMLs))+" exceeds the "+strconv.Itoa(s.cfg.MaxBatch)+"-document limit")
		return
	}
	docs, err := s.peer.PublishBatch(req.XMLs)
	if err != nil {
		s.writePublishError(w, err)
		return
	}
	resp := PublishBatchResponse{IDs: make([]string, len(docs))}
	for i, d := range docs {
		resp.IDs[i] = d.ID
	}
	writeJSON(w, http.StatusOK, resp)
}

// writePublishError maps ingest failures: un-indexable input is the
// caller's fault (400); anything else (a WAL append failure on a sick
// disk) is the node's (500).
func (s *Server) writePublishError(w http.ResponseWriter, err error) {
	s.errors.Inc()
	if errors.Is(err, core.ErrNoTerms) {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	writeError(w, http.StatusInternalServerError, err.Error())
}

// handleDoc serves GET /v1/doc/{id}: the document body from any live
// holder. Without ?peer=N the node resolves the holder itself — local
// store, local replicas, then every peer whose gossiped filter announces
// the document, ranked by directory liveness with failover — so the
// fetch succeeds as long as ANY replica is up; 404 means no live holder
// at all. With ?peer=N the fetch goes to exactly that peer (debugging
// and tests pin a holder).
func (s *Server) handleDoc(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var (
		holder directory.PeerID
		xml    string
		err    error
	)
	if pv := r.URL.Query().Get("peer"); pv != "" {
		n, aerr := strconv.Atoi(pv)
		if aerr != nil {
			s.errors.Inc()
			writeError(w, http.StatusBadRequest, "bad peer id: "+pv)
			return
		}
		holder = directory.PeerID(n)
		xml, err = s.peer.FetchDocument(holder, id)
	} else {
		xml, holder, err = s.peer.ResolveDocument(id)
	}
	if err != nil {
		s.errors.Inc()
		if errors.Is(err, doc.ErrNotFound) {
			writeError(w, http.StatusNotFound, err.Error())
			return
		}
		// A holder exists but none were reachable (or the pinned peer
		// failed us) — a gateway-style error, not this node's.
		writeError(w, http.StatusBadGateway, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, DocResponse{Peer: int32(holder), ID: id, XML: xml})
}

// handlePeers serves GET /v1/peers: the node's directory replica.
func (s *Server) handlePeers(w http.ResponseWriter, r *http.Request) {
	dir := s.peer.Directory()
	resp := PeersResponse{
		Self:       int32(s.peer.ID()),
		Known:      dir.NumKnown(),
		Online:     dir.NumOnline(),
		Generation: dir.Generation(),
	}
	for _, pid := range dir.KnownIDs() {
		e, ok := dir.Entry(pid)
		if !ok {
			continue
		}
		rec, _ := dir.Get(pid)
		class := "fast"
		if e.Class == directory.Slow {
			class = "slow"
		}
		resp.Peers = append(resp.Peers, PeerInfo{
			ID: int32(pid), Addr: rec.Addr, Online: e.Online,
			Ver: e.Ver.String(), Class: class,
		})
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleHealthz answers even when the node is saturated (it bypasses
// admission): 200 while serving, 503 once draining — load balancers
// stop routing here while in-flight requests finish.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	dir := s.peer.Directory()
	resp := HealthResponse{
		Status:     "ok",
		ID:         int32(s.peer.ID()),
		Name:       s.peer.Name(),
		Docs:       s.peer.LocalDocs(),
		Known:      dir.NumKnown(),
		Online:     dir.NumOnline(),
		Generation: dir.Generation(),
		InFlight:   s.InFlight(),
	}
	status := http.StatusOK
	if s.draining.Load() {
		resp.Status = "draining"
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, resp)
}
