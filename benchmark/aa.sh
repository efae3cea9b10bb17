#!/usr/bin/env bash
# A/A check of the benchmark against itself: the same code, run twice.
#
#   benchmark/aa.sh N            two sets of N (>= 10) suite runs at seed 77
#   benchmark/aa.sh N sweep      two sets of N runs, run i at seed i — what the
#                                PR driver does with N = 10
#
# N is at least 10: with five values `statistics.quantiles` puts the third
# quartile halfway to the maximum, so one run caught by a neighbour sets the
# spread (both five-run attempts on the reference box failed that way).
#
# Builds once, then runs every workload N times per set (untraced, plus one
# traced run per set for the exact counts), and prints a markdown report:
# per (workload, end-to-end metric) the median, quartiles, spread (IQR /
# median) and largest relative deviation of each set, and how far the
# second set's median is worse than the first's. A spread above the
# metric's bound in ../BENCHMARK.json means this host cannot resolve that
# metric on that workload: the cell is reported as UNRESOLVED and the script
# fails, as it does on a drift above the bound (the set-up time's spread is
# reported but, as in the driver, not gated) and — at a fixed seed — on any
# count or digest that differs between any two runs.
#
# The committed AA.md is this script's output on the reference box.
set -euo pipefail

N=${1:?usage: aa.sh N [sweep]}
MODE=${2:-fixed}
if [ "$N" -lt 10 ]; then
    echo "aa.sh: N must be at least 10" >&2
    exit 2
fi
cd "$(dirname "$0")/.."
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
BIN="${CARGO_TARGET_DIR:-benchmark/target}/release/vns-benchmark"

python3 - "$N" "$MODE" "$BIN" <<'PY'
import json, statistics, subprocess, sys

n, mode, binary = int(sys.argv[1]), sys.argv[2], sys.argv[3]
contract = json.load(open("BENCHMARK.json"))
workloads = [w["name"] for w in contract["workloads"]]
e2e = {m["name"]: m for m in contract["end_to_end"]}
seconds = str(contract["run_seconds"])


def run(workload, seed, trace):
    out = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed), "--seconds", seconds, "--trace", str(trace)],
        capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed} trace {trace}: exit {out.returncode}\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} checks failed")
    exact = [l for l in lines if l.startswith(("count ", "digest "))]
    return {k: v["value"] for k, v in result["metrics"].items()}, exact


def worse(metric, first, second):
    """How much worse `second` is than `first`, as a share of `first`."""
    sign = 1 if e2e[metric]["better"] == "lower" else -1
    return sign * (second - first) / first


failures = []
sets = {}
exact_seen = {}
for label in ("A", "B"):
    for i in range(n):
        seed = i + 1 if mode == "sweep" else 77
        for w in workloads:
            metrics, exact = run(w, seed, 0)
            sets.setdefault((label, w), []).append(metrics)
            # Counts and digests are functions of (workload, seed) alone.
            first = exact_seen.setdefault((w, seed), exact)
            if first != exact:
                failures.append(f"{w} seed {seed}: counts or digest differ between runs")
        print(f"set {label} run {i + 1}/{n} done", file=sys.stderr, flush=True)
    for w in workloads:
        _, exact = run(w, 77, 1)
        # A traced run reports the same counts and the same digest.
        untraced = exact_seen.get((w, 77))
        if untraced is not None and untraced != exact:
            failures.append(f"{w}: traced run's counts or digest differ from the untraced run's")

what = f"seeds 1..{n}" if mode == "sweep" else "seed 77"
print(f"# A/A: two sets of {n} runs per workload, {what}, {seconds} s per run\n")
print("Same build, same code, nothing changed between the sets. `spread` is the distance between the")
print("first and third quartile as a share of the median (`statistics.quantiles(values, n=4)`);")
print("`max dev` is the largest deviation from the median; `B vs A` is how much worse set B's median")
print("is than set A's (negative = better). A spread above the bound means the host could not resolve")
print("the metric (UNRESOLVED); that, or a drift above the bound, fails the script. `setup_s` is gated")
print("on drift only.\n")
for w in workloads:
    print(f"## {w}\n")
    print("| metric | unit | bound | A median | A q1..q3 | A spread | A max dev | B median | B spread | B vs A |")
    print("|---|---|---|---|---|---|---|---|---|---|")
    for name, meta in e2e.items():
        cells = []
        medians = []
        for label in ("A", "B"):
            values = [r[name] for r in sets[(label, w)]]
            q1, _, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            spread = (q3 - q1) / med
            maxdev = max(abs(v - med) for v in values) / med
            medians.append(med)
            if name != "setup_s" and spread > meta["bound"]:
                failures.append(f"{w} {name}: UNRESOLVED — set {label} spread {spread:.1%} exceeds bound {meta['bound']:.0%}")
            if label == "A":
                cells += [f"{med:.6g}", f"{q1:.6g}..{q3:.6g}", f"{spread:.2%}", f"{maxdev:.2%}"]
            else:
                cells += [f"{med:.6g}", f"{spread:.2%}"]
        drift = worse(name, medians[0], medians[1])
        if drift > meta["bound"]:
            failures.append(f"{w} {name}: set B is {drift:.1%} worse than set A, bound {meta['bound']:.0%}")
        print(f"| {name} | {meta['unit']} | {meta['bound']:.0%} | " + " | ".join(cells) + f" | {drift:+.2%} |")
    print()
if mode != "sweep" and not failures:
    print("Every `count` line and every `digest` line was identical across all "
          f"{2 * n} untraced runs and both traced runs of each workload.\n")
print("Result: " + ("PASS — `\"claim\": null`, this report claims no gain." if not failures else "FAIL"))
for f in failures:
    print(f"- {f}")
sys.exit(1 if failures else 0)
PY
