#!/usr/bin/env python3
"""Write the panic census: every `unwrap` / `expect` / `panic!` /
`unreachable!` / `assert!` / `assert_eq!` / `assert_ne!` site in non-test
code under `crates/*/src`.

Usage: panic_audit.py [OUT]      (default: PANIC_AUDIT.txt at the repo root)

Non-test code is what `pub_audit.py`'s `non_test_code` keeps: comments,
string literals and `#[cfg(test)]` items are blanked. `debug_assert*!`
sites are not counted (release builds drop them), nor are `unwrap_or*`
and friends, which cannot panic.

After a header with the total and the count per crate, each line is
`<file> <Type::fn> <kind>` (`<fn>` for a free function, `-` outside any
function), with ` xN` when that function holds N sites of that kind. Lines
name functions rather than line numbers, so an edit elsewhere in a file
leaves the census as it was. CI regenerates the file and `cmp`s it, as it
does `PUB_AUDIT.txt`, so a PR that adds or removes a site restates it.
"""

import re
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from pub_audit import IMPL, ROOT, item_end, non_test_code, rust_files  # noqa: E402

SITE = re.compile(
    r"\.\s*(unwrap)\s*\(\s*\)"
    r"|\.\s*(expect)\s*\("
    r"|(?<![\w.])(panic|unreachable|assert|assert_eq|assert_ne)\s*!"
)
FN = re.compile(r"\bfn\s+(\w+)")


def spans(code, pattern, name):
    """`(start, end, name)` of each item `pattern` opens that has a body."""
    out = []
    for m in pattern.finditer(code):
        brace = code.find("{", m.end())
        semi = code.find(";", m.end())
        if brace < 0 or (0 <= semi < brace):
            continue
        out.append((brace, item_end(code, brace), name(m)))
    return out


def owner(pos, fns, impls):
    """The innermost function around `pos`, qualified by its `impl` type."""
    around = [(s, e, n) for (s, e, n) in fns if s < pos < e]
    if not around:
        return "-"
    start, _, fn = max(around)
    types = [t for (s, e, t) in impls if s < start < e]
    return f"{types[-1]}::{fn}" if types else fn


def sites(path):
    code = non_test_code(path)
    fns = spans(code, FN, lambda m: m.group(1))
    impls = spans(code, IMPL, lambda m: m.group(1).split("::")[-1])
    for m in SITE.finditer(code):
        kind = next(g for g in m.groups() if g)
        kind = kind if kind in ("unwrap", "expect") else kind + "!"
        yield owner(m.start(), fns, impls), kind


def main():
    out = Path(sys.argv[1]) if len(sys.argv) > 1 else ROOT / "PANIC_AUDIT.txt"
    crates = sorted(c for c in (ROOT / "crates").iterdir() if (c / "Cargo.toml").exists())
    counts = Counter()
    per_crate = Counter()
    for crate in crates:
        for f in rust_files(crate / "src"):
            for fn, kind in sites(f):
                counts[(str(f.relative_to(ROOT)), fn, kind)] += 1
                per_crate[crate.name] += 1
    ranked = sorted(per_crate.items(), key=lambda cn: (-cn[1], cn[0]))
    by_crate = ", ".join(f"{c} {n}" for c, n in ranked)
    lines = [
        "# unwrap / expect / panic! / unreachable! / assert*! sites in non-test code under"
        " crates/*/src: scripts/panic_audit.py regenerates, CI cmp's.",
        f"# {sum(per_crate.values())} sites: {by_crate}",
        *(
            f"{f} {fn} {kind}" + (f" x{n}" if n > 1 else "")
            for (f, fn, kind), n in sorted(counts.items())
        ),
    ]
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
