#!/usr/bin/env python3
"""Compare a fresh scale-curve table against the committed baseline.

Usage: check_scale_curve.py BASELINE.txt CANDIDATE.txt

Both files are `vns-bench scale-curve` outputs. The world at every rung
is a pure function of (seed, scale) — thread count and machine speed must
not move it — so the deterministic columns (ases, prefixes, sessions,
conv_msgs, rounds, and the walked RIB census: adj_in entries, the adj_out
fingerprints the Adj-RIB-Out rows hold — a stale or duplicated row entry
shows here — and the distinct attr_sets allocations behind the RIBs, which
are shared by provenance and so follow from the message history alone,
the convergence's work counters: reselects and neighbour visits, and the
(source, destination) pairs the data-plane stage walked, fwd_pairs, so a
walk that drops a source or a destination fails on any host) are compared
EXACTLY, and every rung must report `pass` from both verifier stages. The exact conv_msgs match doubles as the message ceiling:
convergence cost cannot creep past the committed curve unnoticed. Peak RSS
has a ceiling of its own: a rung may not exceed RSS_CEILING x the committed value (VmHWM is
allocator- and kernel-dependent but repeats within ~1 % at a seed on one
box; by-value attributes or nested per-prefix maps cost 2.8-3x), so the RIB
layout cannot regress unnoticed either. Wall clock is machine-dependent
and is not compared here (the CI job's timeout is the wall ceiling).
"""

import sys

# Deterministic columns, by header name.
EXACT = (
    "scale",
    "ases",
    "prefixes",
    "sessions",
    "conv_msgs",
    "rounds",
    "adj_in",
    "adj_out",
    "attr_sets",
    "reselects",
    "visits",
    "fwd_pairs",
)

# A rung's peak_rss_mib may reach this multiple of the committed value.
RSS_CEILING = 1.25


def parse(path):
    """Returns {scale: {column: value}} for the table body."""
    with open(path, encoding="utf-8") as f:
        lines = [l.rstrip("\n") for l in f if l.strip()]
    header = None
    rows = {}
    for line in lines:
        cols = line.split()
        if cols[0] == "scale":
            header = cols
            missing = [c for c in EXACT + ("peak_rss_mib",) if c not in header]
            if missing:
                sys.exit(f"{path}: no {', '.join(missing)} column (an older vns-bench wrote it?)")
            continue
        if header is None or not cols[0][0].isdigit():
            continue
        row = dict(zip(header, cols))
        rows[row["scale"]] = row
    if not rows:
        sys.exit(f"{path}: no scale-curve rows found")
    return rows


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    baseline = parse(sys.argv[1])
    candidate = parse(sys.argv[2])

    if set(baseline) != set(candidate):
        sys.exit(
            "scale rungs differ: baseline "
            f"{sorted(baseline)} vs candidate {sorted(candidate)}"
        )

    failures = []
    for scale in sorted(baseline, key=float):
        b, c = baseline[scale], candidate[scale]
        for col in EXACT:
            if b[col] != c[col]:
                failures.append(
                    f"scale {scale}: {col} {c[col]} != baseline {b[col]}"
                )
        rss, rss_base = float(c["peak_rss_mib"]), float(b["peak_rss_mib"])
        if rss > RSS_CEILING * rss_base:
            failures.append(
                f"scale {scale}: peak_rss_mib {rss:.1f} > "
                f"{RSS_CEILING} x baseline {rss_base:.1f}"
            )
        if c.get("verdict") != "pass":
            failures.append(f"scale {scale}: verifier verdict {c.get('verdict')!r}")
        print(
            f"scale {scale}: {c['ases']} ASes, {c['prefixes']} prefixes, "
            f"{c['sessions']} sessions, {c['conv_msgs']} msgs / "
            f"{c['rounds']} rounds, {c['adj_in']} Adj-RIB-In / {c['adj_out']} "
            f"Adj-RIB-Out entries on {c['attr_sets']} attribute sets, "
            f"{rss:.0f} MiB, {c.get('verdict')}"
        )

    if failures:
        sys.exit("scale curve FAILED: " + "; ".join(failures))
    print(
        "scale curve OK: deterministic columns match the baseline exactly, "
        f"peak RSS within {RSS_CEILING} x"
    )


if __name__ == "__main__":
    main()
