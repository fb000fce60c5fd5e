// Package planetp is a peer-to-peer content search and retrieval
// infrastructure for communities sharing large sets of text documents —
// a from-scratch Go implementation of PlanetP (Cuenca-Acuna, Peery,
// Martin, Nguyen; Rutgers DCS-TR-487 / HPDC 2003).
//
// Every member replicates a global directory — the membership list plus
// one compressed Bloom filter per peer summarizing that peer's inverted
// index — maintained by randomized gossiping (rumor mongering, periodic
// anti-entropy, and the paper's partial anti-entropy). Queries run
// entirely against the local replica: Bloom filters select candidate
// peers, the TFxIPF ranking orders them, and an adaptive stopping
// heuristic bounds how many are contacted. An optional consistent-hashing
// information brokerage makes brand-new content findable before gossip
// converges.
//
// Quick start:
//
//	alice, _ := planetp.NewPeer(planetp.Config{ID: 0, Capacity: 8})
//	bob, _ := planetp.NewPeer(planetp.Config{ID: 1, Capacity: 8})
//	bob.Join(alice.Addr())
//	alice.Start()
//	bob.Start()
//	alice.Publish(`<paper>epidemic algorithms for replicated databases</paper>`)
//	// ... once gossip converges ...
//	docs, _ := bob.Search("epidemic replicated", 10)
//
// Bulk ingest goes through Peer.PublishBatch (and FS.PublishFiles for
// PFS): a batch is analyzed on all cores, committed to the write-ahead
// log as one append with one fsync, and gossiped as a single filter
// update — publishing N documents costs one summarization instead of N.
//
// The internal packages contain the substrates (Bloom filters, Golomb
// coding, the text pipeline, the gossip engine, the discrete-event
// simulator used for the paper's experiments); this package re-exports
// the supported surface.
package planetp

import (
	"planetp/internal/core"
	"planetp/internal/directory"
	"planetp/internal/doc"
	"planetp/internal/gossip"
	"planetp/internal/metrics"
	"planetp/internal/pfs"
	"planetp/internal/search"
	"planetp/internal/serve"
)

// Peer is a live PlanetP community member.
type Peer = core.Peer

// Config describes a peer.
type Config = core.Config

// PeerID identifies a community member.
type PeerID = directory.PeerID

// Class is a connectivity class for bandwidth-aware gossiping.
type Class = directory.Class

// Connectivity classes.
const (
	Fast = directory.Fast
	Slow = directory.Slow
)

// GossipConfig tunes the gossiping protocol (zero values take the
// paper's defaults: 30 s base interval, 60 s max, 10 piggybacked rumor
// ids; anti-entropy every 10th round and the rest of Table 2 are fixed).
type GossipConfig = gossip.Config

// BootstrapConfig names the seeds Peer.JoinSeeds rotates through.
type BootstrapConfig = core.BootstrapConfig

// Document is a parsed published XML document.
type Document = doc.Document

// Resolver fetches linked external files during indexing.
type Resolver = doc.Resolver

// ResolverFunc adapts a function to Resolver.
type ResolverFunc = doc.ResolverFunc

// DocResult is one document returned by a search.
type DocResult = search.DocResult

// ScoredDoc is a ranked search hit.
type ScoredDoc = search.ScoredDoc

// SearchStats reports what a search cost.
type SearchStats = search.Stats

// FS is the PFS semantic file system over a peer.
type FS = pfs.FS

// DirEntry is one file in a semantic directory.
type DirEntry = pfs.Entry

// SemanticDir is a query-defined directory.
type SemanticDir = pfs.Dir

// Snapshot is the payload of the snapshot file a durable peer
// (Config.DataDir) folds its write-ahead log into.
type Snapshot = core.Snapshot

// RecoverySummary reports what a durable peer (Config.DataDir) restored
// at startup; see Peer.Recovery.
type RecoverySummary = core.RecoverySummary

// MetricsRegistry collects a peer's counters, gauges, and histograms
// across every layer; Peer.Metrics() returns one (never nil). A nil
// registry is safe everywhere and disables instrumentation.
type MetricsRegistry = metrics.Registry

// MetricsSnapshot is a point-in-time copy of a registry's values.
type MetricsSnapshot = metrics.Snapshot

// NewMetricsRegistry creates an empty metrics registry (for sharing one
// across peers, or for passing into Config.Metrics explicitly).
func NewMetricsRegistry() *MetricsRegistry { return metrics.NewRegistry() }

// NewPeer constructs (but does not start) a peer.
func NewPeer(cfg Config) (*Peer, error) { return core.NewPeer(cfg) }

// DecodeSnapshot parses a snapshot payload read back from a data
// directory (internal/store's Recovery.Snapshot).
func DecodeSnapshot(data []byte) (Snapshot, error) { return core.DecodeSnapshot(data) }

// NewFS mounts a PFS semantic file system over a peer.
func NewFS(p *Peer) (*FS, error) { return pfs.New(p) }

// Terms runs PlanetP's text pipeline (tokenize, stop words, Porter stem)
// over a raw query or document string.
func Terms(s string) []string { return core.Terms(s) }

// Server is the HTTP serving tier over a peer: the JSON /v1 search and
// publish API with bounded admission control, a generation-stamped
// result cache, and graceful drain. See internal/serve for the route
// list and the shedding/caching contracts.
type Server = serve.Server

// ServeConfig tunes the serving tier's in-flight limit. The zero value
// takes the default.
type ServeConfig = serve.Config

// ErrNoTerms reports a published document with no indexable terms.
var ErrNoTerms = core.ErrNoTerms

// NewServer builds the HTTP serving tier over a peer. Mount
// Server.Handler on any mux, or use Server.Serve/Shutdown for the
// admission-controlled listener with graceful drain.
func NewServer(p *Peer, cfg ServeConfig) *Server { return serve.New(p, cfg) }
