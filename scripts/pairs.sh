#!/usr/bin/env bash
# pairs.sh — paired benchmark runs of this checkout against a git ref.
#
#   scripts/pairs.sh -against REF -pairs N -workload W [-seconds S] [-seed S0] [-out FILE]
#
# Checks REF out with `git worktree add` under a temp dir, builds each
# side's own bench/ once, then runs N pairs of W: both sides of pair i use
# seed S0+i, and which side runs first alternates from pair to pair (the
# first run of a pair has been seen to move ops more than a change does).
# It prints, for each end-to-end metric of BENCHMARK.json, each side's
# median and IQR and how many pairs the change won, and writes one JSON
# file (default pairs-W.json). An existing FILE written by this script is
# kept, with W's entry added or replaced, so one file can hold a ledger of
# several workloads. The worktree is removed however the script ends.
#
# The change side is this checkout's working tree as it is. Each side runs
# from its own checkout with its data directory under the temp dir (set
# TMPDIR to choose its file system). Needs git, go and python3.
set -euo pipefail

ref="" pairs=10 workload="" seconds=10 seed0=1 out=""
while [ $# -gt 0 ]; do
	case "$1" in
	-against) ref="$2" ;;
	-pairs) pairs="$2" ;;
	-workload) workload="$2" ;;
	-seconds) seconds="$2" ;;
	-seed) seed0="$2" ;;
	-out) out="$2" ;;
	*)
		echo "pairs.sh: unknown argument $1" >&2
		exit 2
		;;
	esac
	shift 2
done
if [ -z "$ref" ] || [ -z "$workload" ] || ! [ "$pairs" -ge 1 ] 2>/dev/null; then
	echo "usage: scripts/pairs.sh -against REF -pairs N -workload W [-seconds S] [-seed S0] [-out FILE]" >&2
	exit 2
fi

root=$(cd "$(dirname "$0")/.." && pwd)
out=${out:-$root/pairs-$workload.json}
case "$out" in /*) ;; *) out="$PWD/$out" ;; esac
refsha=$(git -C "$root" rev-parse --verify "$ref^{commit}")
changesha=$(git -C "$root" describe --always --dirty --abbrev=12)
tmp=$(mktemp -d "${TMPDIR:-/tmp}/pairs.XXXXXX")
cleanup() {
	git -C "$root" worktree remove --force "$tmp/ref" >/dev/null 2>&1 || true
	git -C "$root" worktree prune
	rm -rf "$tmp"
}
trap cleanup EXIT
trap 'exit 130' INT TERM

git -C "$root" worktree add --detach --quiet "$tmp/ref" "$refsha"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off GOTELEMETRY=off
for side in ref change; do
	dir="$tmp/ref"
	[ "$side" = change ] && dir="$root"
	echo "# building $side bench from $dir"
	(cd "$dir/bench" && go build -o "$tmp/bench-$side" .)
done

mkdir -p "$tmp/runs"
run() { # run SIDE PAIR SEED
	dir="$tmp/ref"
	[ "$1" = change ] && dir="$root"
	rm -rf "$tmp/out"
	(cd "$dir" && "$tmp/bench-$1" -workload "$workload" -seed "$3" -seconds "$seconds" \
		-datadir "$tmp/out" -out "$tmp/runs/$1-$2.json") >"$tmp/runs/$1-$2.log"
	sed -n "s/^$workload /# $1 pair $2: /p" "$tmp/runs/$1-$2.log"
}
i=0
while [ "$i" -lt "$pairs" ]; do
	seed=$((seed0 + i))
	if [ $((i % 2)) -eq 0 ]; then
		run ref "$i" "$seed"
		run change "$i" "$seed"
	else
		run change "$i" "$seed"
		run ref "$i" "$seed"
	fi
	i=$((i + 1))
done

python3 - "$root/BENCHMARK.json" "$tmp/runs" "$out" "$workload" "$pairs" "$seconds" "$seed0" "$ref" "$refsha" "$changesha" <<'EOF'
import json, os, platform, statistics, sys

spec, runs, out, workload, pairs, seconds, seed0, ref, refsha, changesha = sys.argv[1:]
pairs, seconds, seed0 = int(pairs), int(seconds), int(seed0)
metrics = json.load(open(spec))["end_to_end"]

def load(side, i):
    # The run's one-line JSON object (its stdout's last line) holds the
    # verdict; the report file the environment.
    line = open(os.path.join(runs, f"{side}-{i}.log")).read().strip().splitlines()[-1]
    run = json.loads(line)
    env = json.load(open(os.path.join(runs, f"{side}-{i}.json")))["environment"]
    return {"correct": run["correct"], "attempted": run["attempted"], "failed": run["failed"],
            "metrics": {k: v["value"] for k, v in run["metrics"].items()}}, env

sides = {"ref": [], "change": []}
env = None
for i in range(pairs):
    for side in sides:
        run, env = load(side, i)
        run["first"] = (side == "ref") == (i % 2 == 0)
        sides[side].append(run)

def summary(xs):
    q = statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else [xs[0]] * 3
    return {"median": statistics.median(xs), "q1": q[0], "q3": q[2], "iqr": q[2] - q[0]}

rows = {}
for m in metrics:
    name, lower = m["name"], m["better"] == "lower"
    a = [r["metrics"].get(name) for r in sides["ref"]]
    b = [r["metrics"].get(name) for r in sides["change"]]
    if None in a or None in b:
        continue
    ra, rb = summary(a), summary(b)
    wins = sum((y < x) if lower else (y > x) for x, y in zip(a, b))
    delta = rb["median"] - ra["median"]
    rel = delta / ra["median"] if ra["median"] else 0.0
    worse = rel > 0 if lower else rel < 0
    rows[name] = {"better": m["better"], "bound": m["bound"], "ref": ra, "change": rb,
                  "wins": wins, "pairs": pairs, "delta_pct": 100 * rel,
                  "beyond_ref_iqr": abs(delta) > ra["iqr"],
                  "worse_beyond_bound": worse and abs(rel) > m["bound"]}

entry = {"workload": workload, "pairs": pairs, "seconds": seconds, "seeds": [seed0 + i for i in range(pairs)],
         "all_correct": all(r["correct"] for s in sides.values() for r in s),
         "failed_ops": {s: sum(r["failed"] for r in rs) for s, rs in sides.items()},
         "metrics": rows, "runs": sides}
doc = {}
if os.path.exists(out):
    doc = json.load(open(out))
doc.update({"against": ref, "against_commit": refsha, "change": changesha,
            "environment": env, "host": platform.node()})
doc["workloads"] = [w for w in doc.get("workloads", []) if w["workload"] != workload] + [entry]
with open(out, "w") as f:
    json.dump(doc, f, indent=1)
    f.write("\n")

print(f"# {workload}: {pairs} pairs, ref {refsha[:12]} vs change {changesha}, all correct: {entry['all_correct']}, failed ops {entry['failed_ops']}")
print(f"{'metric':<18} {'ref median':>12} {'ref IQR':>10} {'change median':>14} {'change IQR':>11} {'delta':>8} {'wins':>6}")
for name, r in rows.items():
    flag = " WORSE-THAN-BOUND" if r["worse_beyond_bound"] else (" beyond-IQR" if r["beyond_ref_iqr"] else "")
    print(f"{name:<18} {r['ref']['median']:>12.4g} {r['ref']['iqr']:>10.3g} {r['change']['median']:>14.4g} "
          f"{r['change']['iqr']:>11.3g} {r['delta_pct']:>+7.1f}% {r['wins']:>3}/{pairs}{flag}")
print(f"# wrote {out}")
EOF
