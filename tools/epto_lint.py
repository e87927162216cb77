#!/usr/bin/env python3
"""epto_lint — the EpTO repository invariant linter.

Textual rules that encode repository-wide invariants the compiler cannot
see (DESIGN.md §12). Scans C++ sources under src/ after scrubbing
comments and string/char literals (so prose never trips a rule), and
reports one finding per offending line. Exit status: 0 clean, 1 findings,
2 usage error.

Rules
-----
nondeterminism   No wall-clock or ambient randomness in library code:
                 std::random_device, rand()/srand(), time(),
                 std::chrono::system_clock/high_resolution_clock. Every
                 run must be a pure function of its seed; randomness
                 comes from util::Rng, time from the driver.
stdout           No std::cout / printf-family writes in library targets.
                 Libraries report through the obs registry/exporters or
                 return values; stdout belongs to the binaries.
raw-mutex        std::mutex (and scoped_lock/lock_guard/unique_lock/
                 recursive/shared/timed variants) must not appear outside
                 src/util/mutex.h. Raw std::mutex carries no Clang
                 capability attribute, so any lock not wrapped in
                 util::Mutex is invisible to -Wthread-safety.
naked-lock       No manual .lock()/.unlock() calls — RAII only
                 (util::MutexLock / util::CondVarLock), so no early
                 return can leak a held lock.
iostream-header  No #include <iostream> in headers: it injects the
                 static ios_base::Init initializer into every TU.
eventid-order    No relational comparison of EventId / .id members.
                 EventId's operator< is identity order (source, sequence)
                 for dedup and sorted merges; DELIVERY order is
                 OrderKey (timestamp, then id) — comparing ids where an
                 order key is meant silently breaks total order.
                 Sanctioned id-sorted merge/dedup sites are allowlisted.
decoded-ball-trust
                 No codec::decodeBall() calls outside the codec itself
                 and the sanctioned ingress entry points (allowlisted).
                 A decoded ball's fields (ttl, hop, originRound,
                 incarnation, timestamps) are attacker-controlled bytes
                 until core::IngressGuard has screened them (DESIGN.md
                 §14); a new decode site is a new unguarded trust
                 boundary.
speculative-frontier-write
                 No mutation of the committed delivery frontier
                 (lastDelivered_, received_, receivedIndex_) outside the
                 ordering component's committed path (allowlisted).
                 Speculative delivery (DESIGN.md §15) is an overlay: it
                 may read the frontier to pick candidates but must never
                 advance, erase or insert committed state — that is what
                 keeps the committed total order byte-identical with
                 speculation on or off. A new frontier write site is a
                 new way for an optimistic path to corrupt the committed
                 order.
shard-affinity-write
                 No mutation of per-node runtime state through a
                 NodeState handle — node.process dispatch/lifecycle
                 (onBall/onRound/broadcast/retune, reset, reassignment)
                 and node.ingress / node.reassembler mutators — outside
                 the shard loop that owns the node (allowlisted:
                 udp_cluster.cpp). Under UdpCluster's shard threads
                 (DESIGN.md §16) these structures are single-writer by
                 shard affinity and intentionally unlocked; another thread
                 hands work over the way broadcast() does, through a
                 mutex-guarded list the owning shard's round swaps out
                 (pendingBroadcasts). Reads via named accessors (stats(),
                 highWater(), disseminationStats(), ...) are free. A new
                 direct write site is a data race TSan can only catch if
                 the interleaving happens to fire.

Allowlist
---------
tools/epto_lint_allowlist.txt: `<rule-id> <repo-relative-path>` per line,
`#` comments. An entry suppresses that rule for that whole file; keep
entries justified with a trailing comment.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path
from typing import Iterable, NamedTuple


class Rule(NamedTuple):
    rule_id: str
    pattern: re.Pattern[str]
    message: str
    headers_only: bool = False


RULES: tuple[Rule, ...] = (
    Rule(
        "nondeterminism",
        re.compile(
            r"std::random_device"
            r"|\b[sg]?rand\s*\("
            r"|\btime\s*\("
            r"|std::chrono::(?:system_clock|high_resolution_clock)"
        ),
        "ambient randomness / wall clock — use util::Rng and driver-supplied time",
    ),
    Rule(
        "stdout",
        re.compile(r"\bstd::cout\b|\b(?:printf|puts|putchar)\s*\("),
        "stdout write in library code — report via obs or return values",
    ),
    Rule(
        "raw-mutex",
        re.compile(
            r"std::(?:mutex|recursive_mutex|timed_mutex|recursive_timed_mutex"
            r"|shared_mutex|shared_timed_mutex|scoped_lock|lock_guard|unique_lock)\b"
        ),
        "raw std:: locking primitive — use util::Mutex / util::MutexLock",
    ),
    Rule(
        "naked-lock",
        re.compile(r"\.\s*(?:un)?lock\s*\(\s*\)"),
        "manual lock()/unlock() call — hold locks via RAII (util::MutexLock)",
    ),
    Rule(
        "iostream-header",
        re.compile(r'#\s*include\s*[<"]iostream[>"]'),
        "<iostream> included from a header — include it in the .cpp that prints",
        headers_only=True,
    ),
    Rule(
        "eventid-order",
        re.compile(r"\.\s*id\s*(?:<=|>=|<(?![<=])|>(?![>=]))|\bEventId\b[^;{)\n]*[<>]=?\s*\w+\.id\b"),
        "relational comparison of EventId — delivery order is OrderKey, not id order",
    ),
    Rule(
        "decoded-ball-trust",
        re.compile(r"\bdecodeBall\s*\("),
        "decodeBall outside the codec / sanctioned ingress — decoded fields are "
        "untrusted until core::IngressGuard screens them",
    ),
    Rule(
        "speculative-frontier-write",
        re.compile(
            r"\blastDelivered_\s*=(?!=)"
            r"|\breceived(?:Index)?_\s*\.\s*(?:erase|clear|insert|emplace|try_emplace)\b"
        ),
        "committed-frontier mutation outside the ordering component's committed "
        "path — speculation may read the frontier, never write it",
    ),
    Rule(
        "shard-affinity-write",
        re.compile(
            r"\bnode\s*\.\s*process\s*(?:->\s*(?:onBall|onRound|broadcast|retune)"
            r"|\.\s*reset)\s*\("
            r"|\bnode\s*\.\s*process\s*=(?!=)"
            r"|\bnode\s*\.\s*(?:ingress|reassembler)\s*\.\s*"
            r"(?:push|pop|clear|accept|evictExpired)\s*\("
        ),
        "per-node runtime state mutated outside the owning executor loop — "
        "hand the work over through a mutex-guarded list the node's round "
        "swaps out, as broadcast() does (DESIGN.md §16)",
    ),
)

HEADER_SUFFIXES = {".h", ".hpp"}
SOURCE_SUFFIXES = {".h", ".hpp", ".cpp", ".cc"}


class Finding(NamedTuple):
    path: str
    line: int
    rule_id: str
    message: str
    text: str


def scrub(text: str) -> str:
    """Blank out comments and string/char literals, preserving line layout.

    Every stripped character becomes a space (newlines survive), so the
    rule regexes keep real line numbers and never match prose.
    """
    out: list[str] = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            while i < n and text[i] != "\n":
                out.append(" ")
                i += 1
        elif c == "/" and nxt == "*":
            out.append("  ")
            i += 2
            while i < n and not (text[i] == "*" and i + 1 < n and text[i + 1] == "/"):
                out.append(text[i] if text[i] == "\n" else " ")
                i += 1
            if i < n:
                out.append("  ")
                i += 2
        elif c == "R" and nxt == '"':
            end = text.find("(", i + 2)
            if end == -1:
                out.append(c)
                i += 1
                continue
            delim = ")" + text[i + 2 : end] + '"'
            close = text.find(delim, end + 1)
            close = n if close == -1 else close + len(delim)
            out.extend(ch if ch == "\n" else " " for ch in text[i:close])
            i = close
        elif c in ('"', "'"):
            quote = c
            out.append(" ")
            i += 1
            while i < n and text[i] != quote:
                step = 2 if text[i] == "\\" and i + 1 < n else 1
                out.extend(" " * step)
                i += step
            if i < n:
                out.append(" ")
                i += 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def parse_allowlist(path: Path) -> set[tuple[str, str]]:
    """Return {(rule_id, repo-relative-path)} pairs from the allowlist file."""
    entries: set[tuple[str, str]] = set()
    if not path.exists():
        return entries
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"{path}:{lineno}: expected '<rule-id> <path>', got {raw!r}")
        rule_id, rel = parts
        if rule_id not in {r.rule_id for r in RULES}:
            raise ValueError(f"{path}:{lineno}: unknown rule id {rule_id!r}")
        entries.add((rule_id, rel))
    return entries


def stale_allowlist_entries(root: Path,
                            allowlist: set[tuple[str, str]]) -> list[tuple[str, str, str]]:
    """Return (rule_id, rel_path, reason) for entries that suppress nothing.

    An entry is stale when its file is gone, its rule cannot apply to the
    file kind, or the rule's pattern matches no (scrubbed) line — i.e.
    deleting the entry would change nothing today. Stale entries are a
    warning, not a failure: the code that justified them was removed, and
    leaving them behind silently widens the suppression surface the day a
    new violation lands in that file.
    """
    rules = {r.rule_id: r for r in RULES}
    stale: list[tuple[str, str, str]] = []
    for rule_id, rel in sorted(allowlist):
        rule = rules[rule_id]
        path = root / rel
        if not path.exists():
            stale.append((rule_id, rel, "file no longer exists"))
            continue
        if rule.headers_only and Path(rel).suffix not in HEADER_SUFFIXES:
            stale.append((rule_id, rel, "rule applies only to headers"))
            continue
        scrubbed = scrub(path.read_text())
        if not any(rule.pattern.search(line) for line in scrubbed.splitlines()):
            stale.append((rule_id, rel, "rule no longer matches any line"))
    return stale


def lint_text(rel_path: str, text: str,
              allowlist: set[tuple[str, str]] = frozenset()) -> list[Finding]:
    """Lint one file's contents; `rel_path` is the repo-relative path."""
    is_header = Path(rel_path).suffix in HEADER_SUFFIXES
    scrubbed = scrub(text)
    findings: list[Finding] = []
    for rule in RULES:
        if rule.headers_only and not is_header:
            continue
        if (rule.rule_id, rel_path) in allowlist:
            continue
        for lineno, line in enumerate(scrubbed.splitlines(), start=1):
            if rule.pattern.search(line):
                original = text.splitlines()[lineno - 1].strip()
                findings.append(Finding(rel_path, lineno, rule.rule_id, rule.message, original))
    return findings


def iter_sources(root: Path, subdirs: Iterable[str]) -> Iterable[Path]:
    for sub in subdirs:
        base = root / sub
        if not base.exists():
            continue
        yield from sorted(p for p in base.rglob("*") if p.suffix in SOURCE_SUFFIXES)


def main(argv: list[str] | None = None) -> int:
    repo_root = Path(__file__).resolve().parent.parent
    parser = argparse.ArgumentParser(description="EpTO repository invariant linter")
    parser.add_argument("--root", type=Path, default=repo_root,
                        help="repository root (default: the checkout containing this script)")
    parser.add_argument("--allowlist", type=Path, default=None,
                        help="allowlist file (default: tools/epto_lint_allowlist.txt under --root)")
    parser.add_argument("--subdir", action="append", default=None,
                        help="directory under root to scan (repeatable; default: src)")
    parser.add_argument("files", nargs="*", type=Path,
                        help="explicit files to lint instead of scanning --subdir")
    args = parser.parse_args(argv)

    root = args.root.resolve()
    allowlist_path = args.allowlist or root / "tools" / "epto_lint_allowlist.txt"
    try:
        allowlist = parse_allowlist(allowlist_path)
    except ValueError as error:
        print(f"epto_lint: {error}", file=sys.stderr)
        return 2

    if args.files:
        paths = [p.resolve() for p in args.files]
    else:
        paths = list(iter_sources(root, args.subdir or ["src"]))

    findings: list[Finding] = []
    for path in paths:
        try:
            rel = path.relative_to(root).as_posix()
        except ValueError:
            rel = path.as_posix()
        findings.extend(lint_text(rel, path.read_text(), allowlist))

    # Stale-entry audit only makes sense against the real tree, not an
    # explicit file list (which sees a fraction of the allowlisted files).
    if not args.files:
        for rule_id, rel, reason in stale_allowlist_entries(root, allowlist):
            print(f"epto_lint: warning: stale allowlist entry "
                  f"'{rule_id} {rel}' — {reason}", file=sys.stderr)

    for f in findings:
        print(f"{f.path}:{f.line}: [{f.rule_id}] {f.message}\n    {f.text}")
    if findings:
        print(f"epto_lint: {len(findings)} finding(s) in {len(paths)} file(s)", file=sys.stderr)
        return 1
    print(f"epto_lint: OK ({len(paths)} files, {len(RULES)} rules)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
