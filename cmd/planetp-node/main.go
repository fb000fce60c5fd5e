// Command planetp-node runs a live PlanetP peer: a gossiping community
// member that fronts its local index and the replicated global directory
// with a JSON-over-HTTP serving API ("every peer is a web server"), plus
// an optional interactive shell. Multiple instances on one machine (or
// LAN) form a community.
//
//	# first member, API on :8081
//	planetp-node -id 0 -capacity 16 -gossip 127.0.0.1:7001 -listen 127.0.0.1:8081
//	# subsequent members: any one live seed address is enough — with
//	# -min-peers the node pulls peer-exchange samples until its directory
//	# sees the whole community
//	planetp-node -id 1 -capacity 16 -gossip 127.0.0.1:7002 -listen 127.0.0.1:8082 \
//	    -seeds 127.0.0.1:7001 -min-peers 16
//
// Flags:
//
//	-id N             peer id (unique, < capacity)
//	-capacity N       community id-space size (default 64)
//	-listen ADDR      HTTP API address; serves POST /v1/search,
//	                  POST /v1/publish, POST /v1/publish-batch,
//	                  GET /v1/doc/{id}, GET /v1/peers, GET /healthz, and
//	                  GET /debug/metrics on one mux ("" = no API)
//	-gossip ADDR      gossip transport address ("" = ephemeral loopback)
//	-seeds ADDRS      comma-separated gossip addresses of existing members;
//	                  tried in rotation with capped exponential backoff
//	                  until one answers (fatal only when all are exhausted)
//	-min-peers N      keep pulling peer-exchange samples from contacts
//	                  until the directory sees at least N members on-line
//	                  (0 = no discovery; rely on gossip alone)
//	-name S           peer name
//	-interval D       base gossip interval T_g (default 30s)
//	-slow             mark this peer modem-class
//	-structured       index terms scoped by XML element (tag:word queries)
//	-data DIR         durable data directory (one WAL + snapshots for own
//	                  documents and hoarded replicas; recovers on restart)
//	-headless         no interactive shell; run until SIGINT/SIGTERM
//	-max-inflight N   admission limit: concurrent API requests before
//	                  shedding with 429 (default 256)
//	-drain-timeout D  how long SIGTERM waits for in-flight API requests
//	                  (default 10s)
//	-filter-cache N   byte budget for decoded peer Bloom filters in the
//	                  query engine's probe cache, each held in the
//	                  smaller of its two forms (0 = 64 MiB default,
//	                  negative = minimal working set)
//	-replicas K       replicate hot documents to K peers total (owner +
//	                  K-1 ring successors); 0 or 1 disables replication
//	-hoard-budget N   byte budget for hoarded replicas (0 = 64 MiB
//	                  default); least-popular replicas are evicted first
//
// Shell commands (omit -headless):
//
//	publish <xml...>      publish an XML snippet
//	file <path>           publish a local file through PFS
//	search <k> <query>    ranked TFxIPF search
//	all <query>           exhaustive conjunctive search
//	watch <query>         persistent query (prints matches as they appear)
//	mkdir <query>         PFS semantic directory
//	ls <query>            list a semantic directory
//	get <peer> <key>      fetch a document body
//	proxy <k> <query>     delegate a ranked search to a fast peer
//	peers                 show the directory
//	stats                 gossip statistics
//	metrics               dump the metrics registry as JSON
//	quit
//
// Shutdown is graceful in every mode: SIGINT/SIGTERM (or quit) first
// drains the API — new requests get 503, in-flight ones finish under
// -drain-timeout — and then stops the peer, folding the final durable
// snapshot when -data is set. A kill -9 loses at most the last unsynced
// WAL append, which recovery truncates and reports at the next start.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"planetp"
)

func main() {
	id := flag.Int("id", 0, "peer id (unique, < capacity)")
	capacity := flag.Int("capacity", 64, "community id-space size")
	listen := flag.String("listen", "127.0.0.1:0", "HTTP API address serving /v1/* and /debug/metrics (\"\" = no API)")
	gossipAddr := flag.String("gossip", "127.0.0.1:0", "gossip transport listen address")
	seeds := flag.String("seeds", "", "comma-separated gossip addresses of existing members to bootstrap from")
	minPeers := flag.Int("min-peers", 0, "pull peer-exchange samples until the directory sees this many members on-line (0 = gossip only)")
	name := flag.String("name", "", "peer name")
	interval := flag.Duration("interval", 30*time.Second, "base gossip interval (T_g)")
	slow := flag.Bool("slow", false, "mark this peer modem-class for bandwidth-aware gossip")
	structured := flag.Bool("structured", false, "index terms scoped by XML element (tag:word queries)")
	data := flag.String("data", "", "durable data directory (WAL + snapshots; recovers on restart)")
	headless := flag.Bool("headless", false, "no interactive shell; serve until SIGINT/SIGTERM")
	maxInflight := flag.Int("max-inflight", 256, "concurrent API requests admitted before shedding with 429")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "SIGTERM wait for in-flight API requests")
	filterCache := flag.Int64("filter-cache", 0, "byte budget for decoded peer Bloom filters in the query engine's probe cache, least recently probed evicted first (0 = 64 MiB default, negative = minimal working set)")
	replicas := flag.Int("replicas", 0, "replicate hot documents to this many peers total (0 or 1 = off)")
	hoardBudget := flag.Int64("hoard-budget", 0, "byte budget for hoarded replicas (0 = 64 MiB default)")
	flag.Parse()

	class := planetp.Fast
	if *slow {
		class = planetp.Slow
	}
	// With a durable data dir the store drives incarnation numbers (the
	// recovered epoch + 1 supersedes the dead incarnation); without one,
	// fall back to a timestamp epoch.
	epoch := uint32(time.Now().Unix() & 0x7fffffff)
	if *data != "" {
		epoch = 0
	}
	peer, err := planetp.NewPeer(planetp.Config{
		ID:         planetp.PeerID(*id),
		Name:       *name,
		ListenAddr: *gossipAddr,
		Capacity:   *capacity,
		Class:      class,
		Gossip: planetp.GossipConfig{
			BaseInterval: *interval, MaxInterval: 2 * *interval,
			DiscoverMin: *minPeers,
		},
		Seed:              time.Now().UnixNano(),
		BrokerTopFrac:     0.10,
		BrokerDiscard:     10 * time.Minute,
		StructuredIndex:   *structured,
		Epoch:             epoch,
		DataDir:           *data,
		FilterCacheBudget: *filterCache,
		Replicas:          *replicas,
		HoardBudget:       *hoardBudget,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *data != "" {
		fmt.Println(peer.Recovery())
	}

	fs, err := planetp.NewFS(peer)
	if err != nil {
		peer.Stop()
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	// Bootstrap: rotate through every seed address with capped exponential
	// backoff between passes (a rolling cluster boot may have some seeds
	// not yet bound); fatal only when the whole list is exhausted.
	var seedList []string
	for _, s := range strings.Split(*seeds, ",") {
		if s = strings.TrimSpace(s); s != "" {
			seedList = append(seedList, s)
		}
	}
	if len(seedList) > 0 {
		if err := peer.JoinSeeds(planetp.BootstrapConfig{Seeds: seedList}); err != nil {
			peer.Stop()
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	peer.Start()
	fmt.Printf("%s gossiping on %s (id %d)\n", peer.Name(), peer.Addr(), peer.ID())

	// The serving tier: one mux carries the /v1 API, /healthz, and
	// /debug/metrics.
	var server *planetp.Server
	if *listen != "" {
		server = planetp.NewServer(peer, planetp.ServeConfig{MaxInFlight: *maxInflight})
		ln, err := net.Listen("tcp", *listen)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("api on http://%s/v1 (metrics at /debug/metrics)\n", ln.Addr())
		go func() {
			if err := server.Serve(ln); err != nil && err != http.ErrServerClosed {
				fmt.Fprintln(os.Stderr, "api server:", err)
			}
		}()
	}

	// shutdown drains the API (stop accepting, finish in-flight under
	// the deadline), then stops the peer — which folds the final
	// durable snapshot — then closes the PFS mount. Idempotent: the
	// signal handler and the shell's quit path share it.
	var shutdownOnce sync.Once
	shutdown := func() {
		shutdownOnce.Do(func() {
			if server != nil {
				ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
				defer cancel()
				if err := server.Shutdown(ctx); err != nil {
					fmt.Fprintln(os.Stderr, "drain:", err)
				}
			}
			fs.Close()
			peer.Stop()
		})
	}

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	if *headless {
		s := <-sigs
		fmt.Printf("%v: draining and shutting down\n", s)
		shutdown()
		return
	}
	go func() {
		s := <-sigs
		fmt.Printf("\n%v: draining and shutting down\n", s)
		shutdown()
		os.Exit(0)
	}()
	defer shutdown()

	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for {
		fmt.Print("planetp> ")
		if !sc.Scan() {
			return
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		cmd, rest, _ := strings.Cut(line, " ")
		rest = strings.TrimSpace(rest)
		switch cmd {
		case "quit", "exit":
			return
		case "publish":
			d, err := peer.Publish(rest)
			report(err, func() { fmt.Printf("published %s\n", d.ID) })
		case "file":
			d, err := fs.PublishFile(rest)
			report(err, func() { fmt.Printf("published %s as %s\n", rest, d.ID) })
		case "search":
			kStr, q, _ := strings.Cut(rest, " ")
			k, err := strconv.Atoi(kStr)
			if err != nil || q == "" {
				fmt.Println("usage: search <k> <query>")
				continue
			}
			docs, st := peer.Search(q, k)
			fmt.Printf("%d results (contacted %d/%d peers, stopped early: %v)\n",
				len(docs), st.PeersContacted, st.PeersRanked, st.StoppedEarly)
			for _, d := range docs {
				fmt.Printf("  %.4f  peer %d  %s\n", d.Score, d.Peer, d.Key)
			}
		case "all":
			docs := peer.SearchAll(rest)
			fmt.Printf("%d results\n", len(docs))
			for _, d := range docs {
				fmt.Printf("  peer %d  %s\n", d.Peer, d.Key)
			}
		case "watch":
			q := rest
			peer.PostPersistentQuery(q, func(d planetp.DocResult) {
				fmt.Printf("\n[watch %q] new match: peer %d %s\nplanetp> ", q, d.Peer, d.Key)
			})
			fmt.Printf("watching %q\n", q)
		case "mkdir":
			fs.MkDir(rest)
			fmt.Printf("directory %q created\n", rest)
		case "ls":
			for _, e := range fs.MkDir(rest).Open() {
				fmt.Printf("  %-30s %s\n", e.Name, e.URL)
			}
		case "proxy":
			kStr, q, _ := strings.Cut(rest, " ")
			k, err := strconv.Atoi(kStr)
			if err != nil || q == "" {
				fmt.Println("usage: proxy <k> <query>")
				continue
			}
			proxy, ok := peer.PickProxy()
			if !ok {
				fmt.Println("no fast peer available to proxy through")
				continue
			}
			docs, err := peer.SearchVia(proxy, q, k)
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			fmt.Printf("%d results via proxy %d\n", len(docs), proxy)
			for _, d := range docs {
				fmt.Printf("  %.4f  peer %d  %s\n", d.Score, d.Peer, d.Key)
			}
		case "get":
			pStr, key, _ := strings.Cut(rest, " ")
			pid, err := strconv.Atoi(pStr)
			if err != nil || key == "" {
				fmt.Println("usage: get <peer> <key>")
				continue
			}
			xml, err := peer.FetchDocument(planetp.PeerID(pid), key)
			report(err, func() { fmt.Println(xml) })
		case "peers":
			dir := peer.Directory()
			fmt.Printf("known %d, online %d\n", dir.NumKnown(), dir.NumOnline())
			for _, pid := range dir.KnownIDs() {
				e, _ := dir.Entry(pid)
				rec, _ := dir.Get(pid)
				status := "online"
				if !e.Online {
					status = "offline"
				}
				fmt.Printf("  %3d  v%-8s %-7s %s\n", pid, e.Ver, status, rec.Addr)
			}
		case "stats":
			st := peer.Node().Stats()
			fmt.Printf("rounds=%d rumors=%d ae=%d pulls=%d news=%d interval=%v\n",
				st.Rounds, st.RumorsSent, st.AERequests, st.PullsSent,
				st.NewsLearned, peer.Node().Interval())
		case "metrics":
			if err := peer.Metrics().WriteJSON(os.Stdout); err != nil {
				fmt.Println("error:", err)
			}
			fmt.Println()
		default:
			fmt.Println("commands: publish file search all proxy watch mkdir ls get peers stats metrics quit")
		}
	}
}

func report(err error, ok func()) {
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	ok()
}
