#!/bin/sh
# check.sh — the repo's pre-merge gate: vet, build, and race-enabled
# tests for every package, repeats of the concurrent ones, the
# live-cluster smokes, the benchmark's workloads at a short window and a
# fuzz smoke. Run from anywhere inside the repo.
set -eu

cd "$(dirname "$0")/.."
tmp="${TMPDIR:-/tmp}"

# serve_cluster_run DIR NODES RATE DURATION EXTRA...: build the node and
# load-generator binaries, boot NODES gossiping API nodes under DIR, and
# drive planetp-loadgen at RATE req/s for DURATION (EXTRA flags appended).
# Nodes are torn down (SIGTERM, i.e. graceful drain) on exit.
serve_cluster_run() {
	dir="$1" nodes="$2" rate="$3" dur="$4"
	shift 4
	rm -rf "$dir" && mkdir -p "$dir"
	go build -o "$dir/planetp-node" ./cmd/planetp-node
	go build -o "$dir/planetp-loadgen" ./cmd/planetp-loadgen
	targets="" join=""
	i=0
	while [ "$i" -lt "$nodes" ]; do
		# Fixed ports below the ephemeral range (net.ipv4.ip_local_port_range
		# starts at 32768) so the bind can't collide with a transient
		# outbound socket.
		gport=$((17200 + i)) hport=$((17300 + i))
		# shellcheck disable=SC2086
		"$dir/planetp-node" -id "$i" -capacity 16 \
			-gossip "127.0.0.1:$gport" -listen "127.0.0.1:$hport" \
			-interval 250ms -headless $join -data "$dir/d$i" \
			>"$dir/n$i.log" 2>&1 &
		echo $! >>"$dir/pids"
		if [ -z "$join" ]; then join="-seeds 127.0.0.1:$gport"; fi
		targets="${targets:+$targets,}127.0.0.1:$hport"
		i=$((i + 1))
	done
	trap 'kill $(cat "'"$dir"'/pids") 2>/dev/null || true' EXIT
	"$dir/planetp-loadgen" -targets "$targets" -wait 10s \
		-rate "$rate" -duration "$dur" "$@"
	kill $(cat "$dir/pids") 2>/dev/null || true
	wait 2>/dev/null || true
	trap - EXIT
}

# assembly_smoke DIR NODES: boot NODES real nodes where only node 0 has a
# listening address and every other node gets nothing but that one seed
# address (-seeds + -min-peers). Polls every node's /v1/peers until the
# whole cluster self-assembles: every node reports known==online==NODES
# and all nodes hold the identical id/ver/online view (i.e. zero stale
# incarnation records anywhere).
assembly_smoke() {
	dir="$1" nodes="$2"
	rm -rf "$dir" && mkdir -p "$dir"
	go build -o "$dir/planetp-node" ./cmd/planetp-node
	i=0
	while [ "$i" -lt "$nodes" ]; do
		gport=$((17400 + i)) hport=$((17500 + i))
		seeds=""
		if [ "$i" -gt 0 ]; then seeds="-seeds 127.0.0.1:17400 -min-peers $nodes"; fi
		# shellcheck disable=SC2086
		"$dir/planetp-node" -id "$i" -capacity 16 \
			-gossip "127.0.0.1:$gport" -listen "127.0.0.1:$hport" \
			-interval 250ms -headless $seeds \
			>"$dir/n$i.log" 2>&1 &
		echo $! >>"$dir/pids"
		i=$((i + 1))
	done
	trap 'kill $(cat "'"$dir"'/pids") 2>/dev/null || true' EXIT
	deadline=$(($(date +%s) + 30))
	assembled=""
	while [ "$(date +%s)" -lt "$deadline" ] && [ -z "$assembled" ]; do
		sleep 0.5
		view="" good=1 i=0
		while [ "$i" -lt "$nodes" ]; do
			body="$(curl -sf "http://127.0.0.1:$((17500 + i))/v1/peers")" || { good=0; break; }
			case "$body" in
			*"\"known\":$nodes,\"online\":$nodes"*) ;;
			*) good=0; break ;;
			esac
			# Strip the per-node fields; what remains (the peers array with
			# id/online/ver for every member) must be identical on all nodes.
			stripped="$(printf '%s' "$body" | sed 's/"self":[0-9]*//;s/"generation":[0-9]*//')"
			if [ -z "$view" ]; then view="$stripped"; fi
			if [ "$stripped" != "$view" ]; then good=0; break; fi
			i=$((i + 1))
		done
		if [ "$good" = 1 ]; then assembled=1; fi
	done
	# Connection-reuse guard: by convergence the gossip mesh has run many
	# rounds, and with the pooled transport the overwhelming share of
	# those sends must have reused a pooled conn rather than dialed.
	# Require reuse > misses (ratio above 0.5) on node 0 after two more
	# seconds of steady-state gossip.
	reuse="" miss="" reuse_ok=""
	if [ -n "$assembled" ]; then
		sleep 2
		m="$(curl -sf "http://127.0.0.1:17500/debug/metrics" || true)"
		reuse="$(printf '%s\n' "$m" | sed -n 's/.*"transport_pool_reuse_total": *\([0-9][0-9]*\).*/\1/p' | head -n 1)"
		miss="$(printf '%s\n' "$m" | sed -n 's/.*"transport_pool_misses_total": *\([0-9][0-9]*\).*/\1/p' | head -n 1)"
		if [ -n "$reuse" ] && [ -n "$miss" ] && [ "$reuse" -gt "$miss" ]; then
			reuse_ok=1
		fi
	fi
	kill $(cat "$dir/pids") 2>/dev/null || true
	wait 2>/dev/null || true
	trap - EXIT
	if [ -z "$assembled" ]; then
		echo "assembly smoke FAILED: cluster did not converge in 30s" >&2
		tail -n 5 "$dir"/n*.log >&2 || true
		exit 1
	fi
	if [ -z "$reuse_ok" ]; then
		echo "assembly smoke FAILED: pool reuse ratio below floor (reuse=${reuse:-?} misses=${miss:-?})" >&2
		exit 1
	fi
	echo "   pool reuse guard: reuse=$reuse misses=$miss"
}

# replication_smoke DIR: boot 4 durable nodes (-data) with -replicas 3,
# publish two documents at node 1, heat them with fetches until the hoard
# loop pushes replicas onto other nodes, then SIGKILL a *holder*, restart
# it on the same directory and require GET /v1/doc/{id}?peer=<holder> to
# answer 200 from the replica it recovered (no adoption counted in the new
# incarnation); finally kill node 1, the origin, outright (SIGKILL — no
# graceful handoff) and verify GET /v1/doc/{id} on node 0 still answers
# 200 from a replica.
replication_smoke() {
	dir="$1"
	rm -rf "$dir" && mkdir -p "$dir"
	go build -o "$dir/planetp-node" ./cmd/planetp-node
	# start_node I SEEDS...: node I on its fixed ports and its own data
	# directory; its pid lands in $dir/pid$I.
	start_node() {
		n="$1"
		shift
		"$dir/planetp-node" -id "$n" -capacity 16 \
			-gossip "127.0.0.1:$((17600 + n))" -listen "127.0.0.1:$((17700 + n))" \
			-interval 250ms -replicas 3 -headless -data "$dir/d$n" "$@" \
			>>"$dir/n$n.log" 2>&1 &
		echo $! >"$dir/pid$n"
	}
	start_node 0
	for i in 1 2 3; do start_node "$i" -seeds 127.0.0.1:17600; done
	trap 'kill $(cat "'"$dir"'"/pid?) 2>/dev/null || true' EXIT
	rsfail() {
		echo "replication smoke FAILED: $1" >&2
		tail -n 5 "$dir"/n*.log >&2 || true
		exit 1
	}
	deadline=$(($(date +%s) + 30))
	until curl -sf "http://127.0.0.1:17700/v1/peers" | grep -q '"online":4'; do
		[ "$(date +%s)" -lt "$deadline" ] || rsfail "cluster did not form"
		sleep 0.5
	done
	ids=""
	for word in alpha bravo; do
		id="$(curl -sf -X POST "http://127.0.0.1:17701/v1/publish" \
			-d '{"xml":"<doc><title>replication smoke '"$word"'</title><body>hoarded content '"$word"'</body></doc>"}' |
			sed 's/.*"id":"\([^"]*\)".*/\1/')"
		[ -n "$id" ] || rsfail "publish of $word returned no id"
		ids="$ids $id"
	done
	# Heat each document through node 0's resolver: every successful fetch
	# is a popularity hit at the serving holder, and once a document is hot
	# the next hoard tick replicates it.
	for id in $ids; do
		hits=0
		deadline=$(($(date +%s) + 30))
		while [ "$hits" -lt 24 ]; do
			if curl -sf "http://127.0.0.1:17700/v1/doc/$id" >/dev/null; then
				hits=$((hits + 1))
			else
				sleep 0.25
			fi
			[ "$(date +%s)" -lt "$deadline" ] || rsfail "doc $id never became fetchable"
		done
	done
	# Wait until some node other than the origin answers a pinned fetch —
	# i.e. actually holds a replica. Remember the last document's holder.
	holder="" held=""
	for id in $ids; do
		deadline=$(($(date +%s) + 30))
		replicated=""
		while [ -z "$replicated" ]; do
			for p in 0 2 3; do
				if curl -sf "http://127.0.0.1:17700/v1/doc/$id?peer=$p" >/dev/null; then
					replicated=1 holder="$p" held="$id"
					break
				fi
			done
			if [ -z "$replicated" ]; then
				[ "$(date +%s)" -lt "$deadline" ] || rsfail "doc $id never replicated off its origin"
				sleep 0.5
			fi
		done
	done
	# The holder dies without warning and restarts on its directory: it
	# must serve the replica again from what it recovered. A peer that had
	# lost it could re-adopt it from the origin's next push, so also
	# require that the new incarnation has counted no adoption.
	kill -9 "$(cat "$dir/pid$holder")" 2>/dev/null || true
	sleep 0.2
	start_node "$holder" -seeds 127.0.0.1:17601
	hurl="http://127.0.0.1:$((17700 + holder))"
	deadline=$(($(date +%s) + 15))
	until curl -sf "$hurl/v1/doc/$held?peer=$holder" >/dev/null; do
		[ "$(date +%s)" -lt "$deadline" ] || rsfail "holder $holder did not serve replica $held after its restart"
		sleep 0.1
	done
	adopts="$(curl -sf "$hurl/debug/metrics" | sed -n 's/.*"replica_adopts_total": *\([0-9][0-9]*\).*/\1/p' | head -n 1)"
	[ "${adopts:-0}" -eq 0 ] || rsfail "holder $holder re-adopted ($adopts) instead of recovering replica $held"
	echo "   holder $holder recovered replica $held from its data directory"
	kill -9 "$(cat "$dir/pid1")" 2>/dev/null || true
	# The origin is gone without warning; the hot documents must still
	# resolve through a surviving replica.
	for id in $ids; do
		deadline=$(($(date +%s) + 15))
		served=""
		while [ -z "$served" ]; do
			if curl -sf "http://127.0.0.1:17700/v1/doc/$id" >/dev/null; then
				served=1
				break
			fi
			[ "$(date +%s)" -lt "$deadline" ] || rsfail "doc $id lost with its origin"
			sleep 0.5
		done
	done
	kill $(cat "$dir"/pid?) 2>/dev/null || true
	wait 2>/dev/null || true
	trap - EXIT
}

echo "== go vet ./..."
go vet ./...

# The paired runner (scripts/pairs.sh) is run by hand and takes minutes;
# its syntax is checked on every run.
echo "== bash -n scripts/pairs.sh"
bash -n scripts/pairs.sh

echo "== go build ./..."
go build ./...

echo "== go test -race ./..."
go test -race ./...

# The benchmark is a module of its own (planetp/bench) that imports
# internal/*; the root ./... does not descend into it, so an internal API
# change that breaks it must fail here, not at the next benchmark run.
echo "== benchmark module (cd bench && go vet ./... && go test ./...)"
(cd bench && go vet ./... && go test ./...)

# The suite above runs every test once, TestNothingDormant (deleted
# mechanisms stay deleted, DESIGN §4c, §4d, §4f, §4i, §4k) and the
# simulated ledgers (cmd/gossipsim's TestGolden holds BENCH_churn.json and
# BENCH_replication.json byte for byte) among them. What follows repeats
# the concurrent ones, because one pass of a race is one interleaving: the
# one fsync racing a snapshot, ranked queries racing publishes and removes
# off the peer mutex (§4f) and resuming one memoized walk beside them (§4c),
# the filter sweep racing Upsert/MarkOffline
# (§4c, §4i), sends building the own payload beside publishes, which
# must cover the version they leave with, and the pooled transport's
# recovery paths (pool, torn conns, restarts, encode failures, re-dials;
# §4k).
echo "== concurrent contracts, repeated"
go test -race -count=10 -run 'TestSnapshotRacesAppends' ./internal/store/
go test -race -count=10 -run 'TestConcurrentQueriesPublishesRemoves|TestTopKMemoConcurrentExtenders' ./internal/core/
go test -race -count=5 -run 'TestSweepMatchesPerPeerProbes' ./internal/core/
go test -race -count=10 -run 'TestConcurrentPublishPayloadCoversVersion' ./internal/core/
go test -race -count=5 -run 'Pool|Torn|Restart|Encode|Redial' ./internal/transport/

# The hot paths' benchmarks, once each, so they keep compiling and running:
# the ranked top-k kernel, cold and resumed from the memo, batch indexing,
# the filter sweep and Compact probe, and the frame codec's RPCs.
echo "== benchmarks compile and run (50x each)"
go test -run '^$' -bench 'BenchmarkLocalQueryRanked$|BenchmarkLocalQueryRankedTies$|BenchmarkLocalQueryRankedAppend$' -benchtime 50x ./internal/core/ >/dev/null
go test -run '^$' -bench 'BenchmarkIndexAddBatch$' -benchtime 50x ./internal/index/ >/dev/null
go test -run '^$' -bench 'BenchmarkSweep1023$' -benchtime 50x ./internal/filtercache/ >/dev/null
go test -run '^$' -bench 'BenchmarkCompactProbe$' -benchtime 50x ./internal/bloom/ >/dev/null
go test -run '^$' -bench 'BenchmarkQueryRPC$|BenchmarkGossipRecordsRPC$' -benchtime 50x ./internal/transport/ >/dev/null

# Serving-tier smoke: boot a real 2-node cluster and drive it for ~2s —
# proves the node binary, the HTTP API, and the load generator still work
# end to end (loadgen exits non-zero if no request succeeds).
echo "== serving-tier smoke (2 nodes, 2s load)"
serve_cluster_run "$tmp"/planetp-serve-smoke 2 100 2s -publish-frac 0.05 \
	-preload 64 >/dev/null
echo "   serve smoke OK"

# Self-assembly smoke: a 4-node cluster boots from a single seed address
# (peer-exchange discovery fills in the rest) and converges to a uniform
# view with zero stale incarnation records.
echo "== self-assembly smoke (4 nodes, one seed address)"
assembly_smoke "$tmp"/planetp-assembly-smoke 4
echo "   assembly smoke OK"

# Replication smoke: a durable 4-node cluster with -replicas 3 hoards two
# hot documents; a holder is SIGKILLed and serves its replica again from
# its data directory; then the origin dies without warning (SIGKILL) and
# both documents still answer 200 through surviving replicas.
echo "== replication smoke (4 nodes -replicas 3 -data, kill a holder, kill the origin)"
replication_smoke "$tmp"/planetp-replication-smoke
echo "   replication smoke OK"

# Benchmark determinism pass: two interleaved sets of the one workload
# whose numbers are simulated; the program fails if they do not repeat.
echo "== benchmark determinism (bench/run.sh -workload gossip_sim -repeat 2)"
bash bench/run.sh -workload gossip_sim -repeat 2 >/dev/null

# The benchmark's own command over every workload, with a short window: a
# failed op, a failed durability check or a node that does not stop fails
# the run, which the smoke scale of bench's TestSmoke does not reach.
echo "== full benchmark, every workload (bench/run.sh -seconds 1)"
bash bench/run.sh -seconds 1 >"$tmp/planetp-bench.out" || {
	cat "$tmp/planetp-bench.out"
	echo "bench/run.sh exited non-zero" >&2
	exit 1
}
# Of its numbers one holds still at this window: search_fanout publishes
# nothing, so its wire bytes per op are HTTP, query frames and a quiet
# directory's gossip. With ids crossing as their bytes (DESIGN §4k) it
# reads 1 335-1 342 B on a 2-CPU host; the ceiling is 3 % above that.
wire_ceiling=1380
wire="$(awk '$1 == "search_fanout" && $2 == "wire_bytes_per_op" { print $3; exit }' "$tmp/planetp-bench.out")"
awk -v w="${wire:-0}" -v max="$wire_ceiling" 'BEGIN { exit !(w > 0 && w <= max) }' || {
	echo "search_fanout wire_bytes_per_op ${wire:-missing} B exceeds its ceiling of $wire_ceiling B" >&2
	exit 1
}
echo "   search_fanout wire_bytes_per_op $wire B (ceiling $wire_ceiling B)"
rm -f "$tmp/planetp-bench.out"

# Fuzz smoke: run every fuzz target briefly. The targets are listed per
# package (`go test -list`), so a new one is fuzzed without editing this
# file. Go allows only one -fuzz pattern per invocation, so iterate target
# by target; -run='^$' skips the unit tests already covered above.
FUZZTIME="${FUZZTIME:-5s}"
echo "== fuzz smoke (${FUZZTIME} per target)"
go test -list '^Fuzz' ./... |
	awk '/^Fuzz/ { t = t " " $1 } /^ok / { if (t != "") print $2 t; t = "" }' >"$tmp/planetp-fuzz-targets"
fuzzed=0
while read -r pkg targets; do
	for f in $targets; do
		go test -run='^$' -fuzz="^$f\$" -fuzztime="$FUZZTIME" "$pkg" </dev/null
		fuzzed=$((fuzzed + 1))
	done
done <"$tmp/planetp-fuzz-targets"
rm -f "$tmp/planetp-fuzz-targets"
[ "$fuzzed" -gt 0 ] || { echo "no fuzz targets found" >&2; exit 1; }
echo "   $fuzzed fuzz targets ran"

# Size: the internal/ + cmd/ non-test line count ROADMAP and CHANGES.md
# quote, then the packages the last simplification touched.
lines() { find "$@" -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l; }
echo "== non-test lines, internal/ + cmd/: $(lines internal cmd)"
for pkg in internal/faultnet internal/transport internal/search \
	internal/index internal/core internal/gossipsim; do
	echo "   $pkg: $(lines "$pkg")"
done

echo "== OK"
