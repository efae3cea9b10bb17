#!/usr/bin/env python3
"""Write the public-surface audit: every `pub fn` under `crates/*/src` that
nothing but test code calls.

Usage: pub_audit.py [OUT]        (default: PUB_AUDIT.txt at the repo root)

A caller is any reference outside test code: `crates/*/src` and
`crates/*/benches` (the defining crate included), `benchmark/src`,
`examples/` and the root `src/`. Test code is `tests/` directories and
every item under `#[cfg(test)]`. Comments and string literals are ignored.

The scan is textual, not a type check. A function counts as called when
its name appears as a method call (`.name(`), a path (`::name`), a free
call (`name(`) or a function value (`map(name)`) anywhere in that code, so
two functions that share a name share their callers: the audit can miss an
unused function, and lists a candidate only when no code outside tests
names it at all. Each line is `<file> <Type::name>` (or `<file> <name>`
for a free function); CI regenerates the file and `cmp`s it, as it does
`LOC.txt`, so a PR that adds or removes an entry restates it.
"""

import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def strip_comments_and_strings(src):
    """`src` with comments and string/char literals blanked (newlines kept)."""
    out = []
    i, n = 0, len(src)
    while i < n:
        c = src[i]
        if src.startswith("//", i):
            j = src.find("\n", i)
            j = n if j < 0 else j
            out.append(" " * (j - i))
            i = j
        elif src.startswith("/*", i):
            depth, j = 1, i + 2
            while j < n and depth:
                if src.startswith("/*", j):
                    depth, j = depth + 1, j + 2
                elif src.startswith("*/", j):
                    depth, j = depth - 1, j + 2
                else:
                    j += 1
            out.append(re.sub(r"[^\n]", " ", src[i:j]))
            i = j
        elif c == "r" and re.match(r'r#*"', src[i:]) and not re.match(r"\w", src[i - 1 : i] or " "):
            hashes = re.match(r"r(#*)\"", src[i:]).group(1)
            end = src.find('"' + hashes, i + len(hashes) + 2)
            j = n if end < 0 else end + 1 + len(hashes)
            out.append(re.sub(r"[^\n]", " ", src[i:j]))
            i = j
        elif c == '"':
            j = i + 1
            while j < n and src[j] != '"':
                j += 2 if src[j] == "\\" else 1
            j += 1
            out.append(re.sub(r"[^\n]", " ", src[i:j]))
            i = j
        elif c == "'":
            # A char literal ('x', '\n', '\u{..}'), else a lifetime.
            m = re.match(r"'(\\u\{[0-9a-fA-F]+\}|\\.|[^\\'])'", src[i:])
            if m:
                out.append(" " * len(m.group(0)))
                i += len(m.group(0))
            else:
                out.append(c)
                i += 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def item_end(code, start):
    """Index just past the item starting at `start`: its `;`, or the brace
    that closes its first `{` block."""
    depth = 0
    for j in range(start, len(code)):
        if code[j] == ";" and depth == 0:
            return j + 1
        if code[j] == "{":
            depth += 1
        elif code[j] == "}":
            depth -= 1
            if depth == 0:
                return j + 1
    return len(code)


def strip_cfg_test(code):
    """`code` with every `#[cfg(test)]` item blanked (newlines kept)."""
    while True:
        m = re.search(r"#\[cfg\(test\)\]", code)
        if not m:
            return code
        end = item_end(code, m.end())
        code = code[: m.start()] + re.sub(r"[^\n]", " ", code[m.start() : end]) + code[end:]


def non_test_code(path):
    return strip_cfg_test(strip_comments_and_strings(path.read_text(encoding="utf-8")))


IMPL = re.compile(r"\bimpl\b(?:\s*<[^{]*?>)?\s+(?:[^{;]*?\bfor\s+)?([A-Za-z_][\w:]*)")
PUB_FN = re.compile(r"\bpub\s+(?:const\s+)?(?:async\s+)?(?:unsafe\s+)?fn\s+(\w+)")


def pub_fns(path, code):
    """`(qualified name, bare name)` of each `pub fn` in `code`, qualified
    by the type of the `impl` block around it."""
    impls = []  # (start, end, type)
    for m in IMPL.finditer(code):
        brace = code.find("{", m.end())
        semi = code.find(";", m.end())
        if brace < 0 or (0 <= semi < brace):
            continue
        impls.append((brace, item_end(code, brace), m.group(1).split("::")[-1]))
    found = []
    for m in PUB_FN.finditer(code):
        owner = [t for (s, e, t) in impls if s < m.start() < e]
        name = m.group(1)
        found.append((f"{owner[-1]}::{name}" if owner else name, name))
    return found


def referenced(name, corpus, aliases):
    """Whether code in `corpus` names the function `name`, directly or
    through a `use … name as alias` whose alias it names."""
    n = re.escape(name)
    turbofish = r"(?:\s*::\s*<[^;{}]*?>)?"
    patterns = [
        rf"\.\s*{n}{turbofish}\s*\(",  # method call
        rf"::\s*{n}\b",  # path: call, value or re-export
        rf"(?<![\w.:])(?<!fn\s){n}{turbofish}\s*\(",  # free call
        rf"[(,]\s*{n}\s*[),]",  # function value
    ]
    if any(re.search(p, corpus) for p in patterns):
        return True
    return any(referenced(alias, corpus, {}) for alias in aliases.get(name, ()))


def use_aliases(corpus):
    """`name -> [alias]` for every `name as alias` in a `use` item."""
    aliases = {}
    for item in re.findall(r"\buse\b[^;]*;", corpus):
        for name, alias in re.findall(r"\b(\w+)\s+as\s+(\w+)", item):
            aliases.setdefault(name, []).append(alias)
    return aliases


def rust_files(*dirs):
    return [f for d in dirs if d.exists() for f in sorted(d.rglob("*.rs"))]


def main():
    out = Path(sys.argv[1]) if len(sys.argv) > 1 else ROOT / "PUB_AUDIT.txt"
    crates = sorted(c for c in (ROOT / "crates").iterdir() if (c / "Cargo.toml").exists())
    sources = rust_files(*(c / "src" for c in crates))
    callers = sources + rust_files(
        *(c / "benches" for c in crates),
        ROOT / "benchmark" / "src",
        ROOT / "examples",
        ROOT / "src",
    )
    code = {f: non_test_code(f) for f in callers}
    corpus = "\n".join(code.values())
    aliases = use_aliases(corpus)
    unused = []
    for f in sources:
        for qualified, name in pub_fns(f, code[f]):
            # The definition itself is `fn name(`, which no pattern matches.
            if not referenced(name, corpus, aliases):
                unused.append(f"{f.relative_to(ROOT)} {qualified}")
    lines = [
        "# pub fns under crates/*/src that only tests call: scripts/pub_audit.py regenerates, CI cmp's.",
        *sorted(unused),
    ]
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
