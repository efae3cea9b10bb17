#!/usr/bin/env python3
"""Compare a fresh perf-smoke ledger against the committed baseline.

Usage: check_perf_smoke.py BASELINE.json CANDIDATE.json [MAX_RATIO]

Both files are `vns-bench` BENCH_campaigns.json ledgers from the same
command and scale. Wall time is normalised by thread count (cost =
total_wall_s * threads) so a runner with a different --threads setting
still compares; the check fails when the candidate costs more than
MAX_RATIO (default 1.25) times the baseline. CI wall clocks are noisy, so
the threshold is deliberately loose — this catches order-of-magnitude
regressions (e.g. losing the fast path), not percent-level drift.

Beyond wall clock, the packet-replay experiments (fig9, jitter) also get
a packets_per_s floor: per-thread replay throughput must stay above
PPS_FLOOR_FRACTION (0.6) of the baseline's. Wall time alone would let a
packet-engine regression hide behind a faster world build; the throughput
floor pins the batch fast path itself.

The service-plane experiment (steady-state) gets the same treatment on
units_per_s (calls per second): its bill is per-call set-up, not packet
replay, so neither the wall ceiling nor a packets/s floor would notice a
per-flow cost (a calibration integral, a copied schedule) creeping back
into channel construction. Per-thread calls/s must stay above
UNITS_FLOOR_FRACTION (0.6) of the baseline's.
"""

import json
import sys

# Experiments whose packets_per_s is a meaningful engine-throughput
# signal (dominated by packet replay, not world builds or reductions).
PPS_GUARDED = ("fig9", "jitter")
PPS_FLOOR_FRACTION = 0.6

# Experiments whose units_per_s is the signal: per-unit (per-call) set-up
# cost dominates, so work units per second is what a regression moves.
UNITS_GUARDED = ("steady-state",)
UNITS_FLOOR_FRACTION = 0.6

# Per-row wall ceiling for scale-sweep rungs: a single rung of the
# scale-curve ledger (world build or verify at one scale) may not cost
# more than this multiple of the same rung in the baseline. The whole-
# ledger ratio would let a blowup at the largest scale hide behind fast
# small rungs; this pins each scale individually.
SCALE_ROW_GUARDED = ("scale-build", "scale-verify")
SCALE_ROW_MAX_RATIO = 2.0


def load(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def row_key(ledger, e):
    """Rows are keyed (name, scale); old-schema rows without a per-row
    scale inherit the ledger-level one."""
    return (e["name"], e.get("scale", ledger.get("scale")))


def main():
    if len(sys.argv) < 3:
        sys.exit(__doc__)
    baseline = load(sys.argv[1])
    candidate = load(sys.argv[2])
    max_ratio = float(sys.argv[3]) if len(sys.argv) > 3 else 1.25

    for key in ("cmd", "seed", "scale"):
        if baseline.get(key) != candidate.get(key):
            sys.exit(
                f"ledgers are not comparable: {key} differs "
                f"({baseline.get(key)!r} vs {candidate.get(key)!r})"
            )

    base_cost = baseline["total_wall_s"] * max(baseline["threads"], 1)
    cand_cost = candidate["total_wall_s"] * max(candidate["threads"], 1)
    ratio = cand_cost / base_cost if base_cost > 0 else float("inf")

    print(
        f"baseline: {baseline['total_wall_s']:.1f}s x {baseline['threads']} threads"
        f" = {base_cost:.1f} thread-seconds"
    )
    print(
        f"candidate: {candidate['total_wall_s']:.1f}s x {candidate['threads']} threads"
        f" = {cand_cost:.1f} thread-seconds"
    )
    print(f"ratio: {ratio:.2f} (limit {max_ratio:.2f})")

    slowest = sorted(
        candidate["experiments"], key=lambda e: e["wall_s"], reverse=True
    )[:5]
    for e in slowest:
        print(
            f"  {e['name']}: {e['wall_s']:.1f}s, {e['packets']} packets"
            f" ({e['packets_per_s']:.0f}/s)"
        )

    failures = []
    if ratio > max_ratio:
        failures.append(f"wall cost {ratio:.2f} > {max_ratio:.2f}")

    base_by_key = {row_key(baseline, e): e for e in baseline["experiments"]}
    cand_by_key = {row_key(candidate, e): e for e in candidate["experiments"]}
    # Per-thread throughput floors: packets/s on the replay experiments,
    # units/s on the per-call one.
    for guarded, field, fraction, unit in (
        (PPS_GUARDED, "packets_per_s", PPS_FLOOR_FRACTION, "pkts"),
        (UNITS_GUARDED, "units_per_s", UNITS_FLOOR_FRACTION, "units"),
    ):
        for key, base_row in base_by_key.items():
            name, scale = key
            if name not in guarded or key not in cand_by_key:
                continue
            base_rate = base_row[field] / max(baseline["threads"], 1)
            cand_rate = cand_by_key[key][field] / max(candidate["threads"], 1)
            floor = fraction * base_rate
            status = "OK" if cand_rate >= floor else "FAIL"
            print(
                f"  {name} (scale {scale}) throughput: {cand_rate:,.0f} {unit}/s/thread"
                f" (floor {floor:,.0f}, baseline {base_rate:,.0f}) {status}"
            )
            if cand_rate < floor:
                failures.append(
                    f"{name} {field} {cand_rate:,.0f} below floor {floor:,.0f}"
                )

    # Per-scale wall ceiling on scale-sweep rungs.
    for key, base_row in sorted(base_by_key.items(), key=lambda kv: str(kv[0])):
        name, scale = key
        if name not in SCALE_ROW_GUARDED or key not in cand_by_key:
            continue
        base_cost = base_row["wall_s"] * max(baseline["threads"], 1)
        cand_cost = cand_by_key[key]["wall_s"] * max(candidate["threads"], 1)
        row_ratio = cand_cost / base_cost if base_cost > 0 else float("inf")
        status = "OK" if row_ratio <= SCALE_ROW_MAX_RATIO else "FAIL"
        print(
            f"  {name} scale {scale}: {cand_cost:.1f} thread-seconds"
            f" (baseline {base_cost:.1f}, ratio {row_ratio:.2f},"
            f" limit {SCALE_ROW_MAX_RATIO:.2f}) {status}"
        )
        if row_ratio > SCALE_ROW_MAX_RATIO:
            failures.append(
                f"{name} at scale {scale} wall ratio"
                f" {row_ratio:.2f} > {SCALE_ROW_MAX_RATIO:.2f}"
            )

    if failures:
        sys.exit("perf smoke FAILED: " + "; ".join(failures))
    print("perf smoke OK")


if __name__ == "__main__":
    main()
