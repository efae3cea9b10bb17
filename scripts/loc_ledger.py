#!/usr/bin/env python3
"""Write the per-crate Rust line ledger.

Usage: loc_ledger.py [OUT]        (default: LOC.txt at the repo root)

One row per workspace crate (plus the root `vns` package): lines of `*.rs`
under `src/`, and under `tests/` + `benches/` (+ `examples/` for the root
package). Unit tests inside `src/` count as `src` — the ledger tracks where
code lives, not what it is for. "Least code" is a ROADMAP aim; this makes it
a committed number: CI regenerates the file and `cmp`s it, so every PR that
moves a count has to restate it.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def rust_lines(*dirs):
    total = 0
    for d in dirs:
        for f in sorted(d.rglob("*.rs")):
            with open(f, encoding="utf-8") as fh:
                total += sum(1 for _ in fh)
    return total


def main():
    out = Path(sys.argv[1]) if len(sys.argv) > 1 else ROOT / "LOC.txt"
    rows = [
        (c.name, rust_lines(c / "src"), rust_lines(c / "tests", c / "benches"))
        for c in sorted((ROOT / "crates").iterdir())
        if (c / "Cargo.toml").exists()
    ]
    rows.append(
        ("vns (root)", rust_lines(ROOT / "src"), rust_lines(ROOT / "tests", ROOT / "examples"))
    )
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    lines = [
        "# Rust lines per crate: scripts/loc_ledger.py regenerates, CI cmp's.",
        f"{'crate':<12} {'src':>7} {'tests+benches':>14}",
    ]
    lines += [f"{name:<12} {src:>7} {tests:>14}" for name, src, tests in rows]
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
