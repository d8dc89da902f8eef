#!/usr/bin/env python3
"""Nondeterminism lint for the simulator sources.

Every golden in bench/goldens and every bit-exactness guarantee the
repo makes ("depth-1 identical", "knob-off byte-exact") assumes the
simulator is perfectly deterministic: same build, same seed, same
bytes out. This lint flags the source patterns that silently break
that assumption:

1. Iteration over ``std::unordered_map``/``unordered_set`` (range-for
   or ``.begin()``/``.cbegin()`` iterator extraction). Hash-bucket
   order is libstdc++-version- and sometimes address-dependent; any
   tie broken by it turns a golden into a platform artifact. Calls of
   ``rmssd::FlatMap::forEachUnordered`` (sim/flat_map.h), the flat
   table's only iteration method, are flagged the same way: its bucket
   order depends on insertion history and capacity.
2. Wall-clock and entropy sources: ``std::random_device``, ``rand()``
   / ``srand()``, ``time()``, ``clock()``, ``gettimeofday`` /
   ``clock_gettime``, and the ``std::chrono`` clocks. Simulated time
   is the Cycle clock; host time must never leak into results.
3. Environment reads (``getenv``): the determinism gate varies the
   environment between runs, so results must not depend on it.
4. Pointer-keyed ordered containers (``std::map<T*, ...>`` /
   ``std::set<T*>``): ordered by address, i.e. by ASLR.
5. Host-dependent ISA code outside ``src/model/tensor.cpp``: an
   intrinsics header (``<immintrin.h>``, ``<emmintrin.h>``, ...),
   ``__builtin_cpu_supports`` or a ``target(...)`` function attribute.
   Code chosen by the CPU it runs on must compute the same bits on
   every host; gemv()'s bodies in tensor.cpp are the one audited place
   where that is argued (DESIGN.md section 6) and tested bit for bit.
6. Threads: ``std::thread``, ``std::jthread`` and ``std::async``. The
   order in which threads run is host state; a thread is accepted only
   where the code says why no result can depend on it (one owner per
   piece of state, results joined in a fixed order).

Escape hatch (rules 1-4 and 6): a finding whose line (or the
contiguous ``//`` comment block directly above it) carries
``// det-safe: <reason>`` is accepted, but only with a non-empty reason
— the annotation documents WHY the fold is order-insensitive (e.g. a
commutative sum/min/max, or a total-order sort re-establishing the
order before it can leak) or why a thread's schedule cannot reach a
result. A bare ``det-safe`` with no reason is itself a finding.

Usage:
    lint_determinism.py [PATH...]

With no arguments, lints ``src/`` and ``bench/`` recursively. Paths
may be files or directories (directories are scanned for *.cpp/*.h).

Exit status: 0 when clean, 1 with a findings report otherwise.
"""

from __future__ import annotations

import pathlib
import re
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent

DEFAULT_DIRS = ["src", "bench"]

UNORDERED_RE = re.compile(
    r"\bunordered_(?:multi)?(?:map|set)\s*<")

# Alias introductions: "using Foo = std::unordered_map<...>" — Foo
# then counts as an unordered container type for declarations.
ALIAS_RE = re.compile(
    r"\busing\s+(?P<name>[A-Za-z_]\w*)\s*=\s*"
    r"(?:std::)?unordered_(?:multi)?(?:map|set)\s*<")

IDENT_RE = re.compile(r"[A-Za-z_]\w*")

RANGE_FOR_RE = re.compile(
    r"\bfor\s*\([^;()]*?:\s*(?P<expr>[A-Za-z_][\w.\->]*)\s*\)")

# The one iteration method of rmssd::FlatMap, called on any object.
FLAT_ITER_RE = re.compile(r"(?:\.|->)\s*forEachUnordered\s*\(")

DET_SAFE_RE = re.compile(r"//\s*det-safe\s*:?(?P<reason>[^\n]*)")

BANNED = [
    (re.compile(r"\bstd::random_device\b"),
     "std::random_device is entropy; seed a rmssd::Rng instead"),
    (re.compile(r"\bs?rand\s*\("),
     "rand()/srand() draw from global libc state; use rmssd::Rng"),
    (re.compile(r"\btime\s*\("),
     "time() is wall clock; simulated time is the Cycle clock"),
    (re.compile(r"\bclock\s*\(\s*\)"),
     "clock() is host CPU time; simulated time is the Cycle clock"),
    (re.compile(r"\b(?:gettimeofday|clock_gettime)\s*\("),
     "host wall clock must not leak into simulation results"),
    (re.compile(r"\bstd::chrono::(?:system_clock|steady_clock|"
                r"high_resolution_clock)\b"),
     "std::chrono clocks are host time; simulated time is the Cycle "
     "clock"),
    (re.compile(r"\bgetenv\s*\("),
     "environment reads make results depend on the launch "
     "environment (the determinism gate varies it)"),
    (re.compile(r"\bstd::(?:j?thread|async)\b"),
     "thread schedules are host state; say why no result depends on "
     "them (annotate det-safe with a reason)"),
]

# Ordered containers keyed by a pointer type order by address — i.e.
# by ASLR. ([^,<>]* keeps the match inside the key type argument.)
PTR_KEYED_RE = re.compile(
    r"\bstd::(?:multi)?(?:map|set)\s*<\s*(?:const\s+)?[^,<>]*\*")

# The one file allowed to hold host-dependent ISA code.
ISA_FILE = "src/model/tensor.cpp"

ISA_PATTERNS = [
    re.compile(r"#\s*include\s*<\w*intrin\.h>"),
    re.compile(r"\b__builtin_cpu_supports\b"),
    re.compile(r"(?:__attribute__\s*\(\(|\[\[\s*gnu::)\s*"
               r"target(?:_clones)?\s*\("),
]


def mask_comments_and_strings(text: str) -> str:
    """Blank out comment/string contents, preserving offsets/newlines."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            j = n if j < 0 else j
            out.append(" " * (j - i))
            i = j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n if j < 0 else j + 2
            out.append(re.sub(r"[^\n]", " ", text[i:j]))
            i = j
        elif c in "\"'":
            quote = c
            j = i + 1
            while j < n and text[j] != quote:
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            out.append(quote + " " * (j - i - 2) + quote if j - i >= 2
                       else text[i:j])
            i = j
        else:
            out.append(c)
            i += 1
    return "".join(out)


def balance_angle(text: str, open_idx: int) -> int:
    """Index just past the '>' matching the '<' at open_idx; -1 if
    unbalanced."""
    depth = 0
    for i in range(open_idx, len(text)):
        c = text[i]
        if c == "<":
            depth += 1
        elif c == ">":
            depth -= 1
            if depth == 0:
                return i + 1
    return -1


def unordered_names(masked: str) -> set[str]:
    """Names of variables/members declared with an unordered container
    type (or an alias of one) in this translation unit."""
    aliases = {m.group("name") for m in ALIAS_RE.finditer(masked)}
    names: set[str] = set()

    for m in UNORDERED_RE.finditer(masked):
        open_idx = masked.index("<", m.start())
        end = balance_angle(masked, open_idx)
        if end < 0:
            continue
        tail = masked[end:]
        # Skip nested type arguments (vector<unordered_set<...>>) and
        # iterator type spellings (unordered_map<...>::iterator).
        stripped = tail.lstrip()
        if stripped.startswith((">", ",", "::", ")")):
            continue
        decl = re.match(r"\s*[&*]{0,2}\s*(?P<name>[A-Za-z_]\w*)", tail)
        if decl and decl.group("name") not in ("const", "return"):
            names.add(decl.group("name"))

    for alias in aliases:
        for m in re.finditer(
                r"\b" + re.escape(alias) +
                r"\s+[&*]{0,2}\s*(?P<name>[A-Za-z_]\w*)", masked):
            names.add(m.group("name"))
    return names


def line_of(text: str, offset: int) -> int:
    return text.count("\n", 0, offset) + 1


class Findings:
    def __init__(self, original_lines: list[str]):
        self.lines = original_lines
        self.items: list[str] = []
        self.annotated: set[int] = set()  # line numbers consumed

    def annotation_for(self, lineno: int) -> str | None:
        """det-safe reason on the finding's line or in the contiguous
        ``//`` comment block directly above it."""
        candidates = [lineno]
        ln = lineno - 1
        while (1 <= ln <= len(self.lines)
               and self.lines[ln - 1].lstrip().startswith("//")):
            candidates.append(ln)
            ln -= 1
        for ln in candidates:
            if 1 <= ln <= len(self.lines):
                m = DET_SAFE_RE.search(self.lines[ln - 1])
                if m:
                    self.annotated.add(ln)
                    return m.group("reason").strip()
        return None

    def add(self, path: pathlib.Path, lineno: int, message: str):
        reason = self.annotation_for(lineno)
        if reason is None:
            self.items.append(f"{rel(path)}:{lineno}: {message}")
        elif not reason:
            self.items.append(
                f"{rel(path)}:{lineno}: det-safe annotation has no "
                f"reason; write '// det-safe: <why this fold is "
                f"order-insensitive>'")


def rel(path: pathlib.Path) -> pathlib.Path:
    try:
        return path.relative_to(REPO)
    except ValueError:
        return path


def sibling_header_text(path: pathlib.Path) -> str:
    """The same-stem header of a .cpp, where member containers are
    declared (freq_mapping.cpp iterates candidates_ from
    freq_mapping.h)."""
    if path.suffix != ".cpp":
        return ""
    header = path.with_suffix(".h")
    return header.read_text() if header.exists() else ""


def lint_file(path: pathlib.Path) -> list[str]:
    text = path.read_text()
    masked = mask_comments_and_strings(text)
    names = unordered_names(masked)
    names |= unordered_names(
        mask_comments_and_strings(sibling_header_text(path)))

    findings = Findings(text.splitlines())

    for m in RANGE_FOR_RE.finditer(masked):
        base = re.split(r"[.\->]+", m.group("expr"))[-1]
        if base in names:
            findings.add(
                path, line_of(masked, m.start()),
                f"range-for over unordered container '{base}': "
                f"hash-bucket order is not deterministic; sort with a "
                f"total-order tie-breaker (or annotate det-safe with "
                f"a reason)")

    for m in re.finditer(r"(?P<name>[A-Za-z_]\w*)\s*\.\s*c?begin\s*\(",
                         masked):
        if m.group("name") in names:
            findings.add(
                path, line_of(masked, m.start()),
                f"iterator extraction from unordered container "
                f"'{m.group('name')}': hash-bucket order is not "
                f"deterministic; sort with a total-order tie-breaker "
                f"(or annotate det-safe with a reason)")

    for m in FLAT_ITER_RE.finditer(masked):
        findings.add(
            path, line_of(masked, m.start()),
            "FlatMap::forEachUnordered visits entries in bucket order, "
            "which depends on insertion history; sort with a "
            "total-order tie-breaker (or annotate det-safe with a "
            "reason)")

    for pattern, why in BANNED:
        for m in pattern.finditer(masked):
            findings.add(path, line_of(masked, m.start()), why)

    for m in PTR_KEYED_RE.finditer(masked):
        findings.add(
            path, line_of(masked, m.start()),
            "pointer-keyed ordered container orders by address "
            "(ASLR); key by a stable id instead")

    # No det-safe escape: the rule is about where, not why.
    if rel(path.resolve()).as_posix() != ISA_FILE:
        for pattern in ISA_PATTERNS:
            for m in pattern.finditer(masked):
                findings.items.append(
                    f"{rel(path)}:{line_of(masked, m.start())}: "
                    f"host-dependent ISA code (intrinsics, CPU feature "
                    f"checks, target attributes) belongs only in "
                    f"{ISA_FILE}, where gemv()'s bodies are tested bit "
                    f"for bit")

    return findings.items


def collect(paths: list[pathlib.Path]) -> list[pathlib.Path]:
    files: list[pathlib.Path] = []
    for p in paths:
        if p.is_dir():
            files.extend(sorted(p.rglob("*.cpp")))
            files.extend(sorted(p.rglob("*.h")))
        else:
            files.append(p)
    return sorted(set(files))


def main(argv: list[str]) -> int:
    if argv:
        roots = [pathlib.Path(a) for a in argv]
    else:
        roots = [REPO / d for d in DEFAULT_DIRS]

    findings: list[str] = []
    for f in collect(roots):
        findings.extend(lint_file(f))

    if findings:
        print("lint_determinism: nondeterminism hazards found:")
        for f in findings:
            print(f"  {f}")
        print("(order-insensitive fold? annotate the line with "
              "'// det-safe: <reason>')")
        return 1
    print("lint_determinism: no unannotated nondeterminism hazards")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
