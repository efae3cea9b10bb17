#!/usr/bin/env python3
"""Check that the prose docs name only code that exists.

Usage: doc_names.py

Every backticked `Path::item` in README.md, DESIGN.md and EXPERIMENTS.md
must name a `fn`, type, field, variant, constant or module declared in Rust
code under `crates/` or `benchmark/src`: `item` must be a member of the
scope its qualifier names (a struct's fields, an enum's variants, the
associated items of a type's `impl` and `trait` blocks, a module's items
and re-exports). A crate is named by its package name (`vns_core`) or its
directory (`core`). Paths rooted in `std`, `rand` or `proptest`, and paths
on the std types in `STD_NAMES`, are not checked. Each stale name is
printed as `<doc>:<line>: <path>` and the script exits 1, so a PR that
deletes or renames an item fixes the docs that name it.

The scan is textual, like pub_audit.py, whose comment and string stripping
it reuses.
"""

import re
import sys
from collections import defaultdict

from pub_audit import ROOT, item_end, strip_comments_and_strings

DOCS = ["README.md", "DESIGN.md", "EXPERIMENTS.md"]

# Roots and std types whose paths the docs may name freely.
STD_ROOTS = {"std", "alloc", "rand", "proptest"}
STD_NAMES = {
    "Arc", "Rc", "Box", "Vec", "String", "Option", "Result", "Cell", "RefCell",
    "Mutex", "RwLock", "BTreeMap", "BTreeSet", "HashMap", "HashSet", "Ordering",
    "Duration", "Instant", "Iterator", "AtomicU64", "AtomicUsize", "SmallRng",
}

ITEM = re.compile(r"\b(?:fn|struct|enum|union|trait|type|const|static|mod)\s+(\w+)")
ADT = re.compile(r"\b(struct|enum|union)\s+(\w+)")
IMPL = re.compile(r"\bimpl\b(?:\s*<[^{]*?>)?\s+(?:[^{;]*?\bfor\s+)?([A-Za-z_][\w:]*)")
TRAIT = re.compile(r"\btrait\s+(\w+)")
ASSOC = re.compile(r"\b(?:fn|const|type)\s+(\w+)")
USE = re.compile(r"\buse\b([^;]*);")


def top_level_entries(body):
    """`body` (the text between an item's braces) split at its top-level
    commas."""
    entries, depth, start = [], 0, 0
    for i, c in enumerate(body):
        if c in "([{" or (c == "<" and body[i - 1 : i] != "-"):
            depth += 1
        elif c in ")]}" or (c == ">" and body[i - 1 : i] != "-"):
            depth -= 1
        elif c == "," and depth == 0:
            entries.append(body[start:i])
            start = i + 1
    entries.append(body[start:])
    return entries


def bare(entry):
    """An entry with its attributes and visibility taken off."""
    entry = re.sub(r"#\[[^\]]*\]", " ", entry)
    return re.sub(r"^\s*pub(?:\s*\([^)]*\))?\s+", "", entry.strip())


def members_of_fields(body, scopes, name):
    for entry in top_level_entries(body):
        m = re.match(r"(\w+)\s*:(?!:)", bare(entry))
        if m:
            scopes[name].add(m.group(1))


def scan(code, scopes):
    """Adds every type's and trait's members found in `code` to `scopes`."""
    for m in ADT.finditer(code):
        kind, name = m.groups()
        rest = code[m.end() :]
        brace = re.match(r"[^{;(]*\{", rest)
        if not brace:
            continue
        start = m.end() + brace.end() - 1
        body = code[start + 1 : item_end(code, start) - 1]
        if kind != "enum":
            members_of_fields(body, scopes, name)
            continue
        for entry in top_level_entries(body):
            v = re.match(r"(\w+)\s*(\{)?", bare(entry))
            if not v:
                continue
            scopes[name].add(v.group(1))
            if v.group(2):
                inner = bare(entry)[v.end() : bare(entry).rfind("}")]
                members_of_fields(inner, scopes, v.group(1))
    for pattern in (IMPL, TRAIT):
        for m in pattern.finditer(code):
            brace = code.find("{", m.end())
            semi = code.find(";", m.end())
            if brace < 0 or (0 <= semi < brace):
                continue
            name = m.group(1).split("::")[-1]
            body = code[brace : item_end(code, brace)]
            scopes[name].update(ASSOC.findall(body))


def module_members(code):
    """Names a module file declares or re-exports."""
    names = set(ITEM.findall(code))
    for use in USE.findall(code):
        names.update(re.findall(r"(\w+)\s*(?=[,}]|$)", use.strip()))
    return names


def build_scopes():
    scopes = defaultdict(set)
    files = sorted((ROOT / "crates").rglob("*.rs")) + sorted((ROOT / "benchmark" / "src").rglob("*.rs"))
    for f in files:
        code = strip_comments_and_strings(f.read_text(encoding="utf-8"))
        scan(code, scopes)
        members = module_members(code)
        rel = f.relative_to(ROOT).parts
        if f.name in ("lib.rs", "main.rs") and rel[-2] == "src":
            root = f.parent.parent
            package = re.search(
                r'^name\s*=\s*"([^"]+)"', (root / "Cargo.toml").read_text(encoding="utf-8"), re.M
            )
            names = {root.name} | ({package.group(1).replace("-", "_")} if package else set())
        elif f.name == "mod.rs":
            names = {f.parent.name}
        else:
            names = {f.stem}
        for name in names:
            scopes[name].update(members)
    return scopes


def doc_paths(text):
    """`(line, path)` for every `A::b` path inside a backticked span, with
    `A::{b, c}` groups expanded."""
    for m in re.finditer(r"`([^`\n]+)`", text):
        line = text.count("\n", 0, m.start()) + 1
        for p in re.finditer(r"\b[A-Za-z_]\w*(?:::(?:\{[^}]*\}|[A-Za-z_]\w*))+", m.group(1)):
            head, _, group = p.group(0).partition("::{")
            if group:
                for item in re.findall(r"\w+", group):
                    yield line, f"{head}::{item}"
            else:
                yield line, p.group(0)


def main():
    scopes = build_scopes()
    stale = []
    for doc in DOCS:
        for line, path in doc_paths((ROOT / doc).read_text(encoding="utf-8")):
            segments = path.split("::")
            if segments[0] in STD_ROOTS or segments[0] in STD_NAMES:
                continue
            if not all(item in scopes.get(scope, ()) for scope, item in zip(segments, segments[1:])):
                stale.append(f"{doc}:{line}: {path}")
    for s in stale:
        print(s)
    if stale:
        print(f"{len(stale)} doc name(s) match nothing under crates/ or benchmark/src", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
