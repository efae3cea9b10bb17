#!/usr/bin/env python3
"""Check that one call site picks each convergence engine, and that one
door reconverges a deployed world.

Usage: engine_sites.py

Outside `crates/bgp`, non-test code under `crates/*/src` may drive a
`BgpNet` in two places only: `Vns::reconverge` calls `.net.run(` (every
change after the build reconverges through it) and `Internet::converge`
calls `run_sharded(` (every build converges through it). `Vns::reconverge`
itself is called from `Vns::apply` only, the one place a fault, a
management action or an attack is staged and reconverged. Any other call
is printed with its location and the script exits 1, so choosing an
engine stays a one-line change and every change is counted the same way.

The scan is textual, like pub_audit.py, whose stripping of comments,
string literals and `#[cfg(test)]` items it reuses; a call is attributed
to the last `fn` declared before it.
"""

import re
import sys

from pub_audit import ROOT, non_test_code

# Call pattern -> the one (file, enclosing fn) allowed to make it.
SITES = {
    r"\.net\s*\.\s*run\s*\(": ("crates/core/src/service.rs", "reconverge"),
    r"\brun_sharded\s*\(": ("crates/topo/src/internet.rs", "converge"),
    r"\.reconverge\s*\(": ("crates/core/src/change.rs", "apply"),
}


def main():
    stray = []
    for path in sorted(ROOT.glob("crates/*/src/**/*.rs")):
        rel = path.relative_to(ROOT).as_posix()
        if rel.startswith("crates/bgp/"):
            continue
        code = non_test_code(path)
        for pattern, site in SITES.items():
            for m in re.finditer(pattern, code):
                fns = re.findall(r"\bfn\s+(\w+)", code[: m.start()])
                where = (rel, fns[-1] if fns else None)
                if where != site:
                    line = code.count("\n", 0, m.start()) + 1
                    stray.append(f"{rel}:{line} (fn {where[1]}): only {site[1]} may call this")
    for s in stray:
        print(s)
    return 1 if stray else 0


if __name__ == "__main__":
    sys.exit(main())
