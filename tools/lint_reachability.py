#!/usr/bin/env python3
"""Reachability lint for the simulator headers.

A header under ``src/`` that nothing includes except its own ``.cpp``
and the unit tests is code no figure, example, tool or other module
runs: tests keep it compiling and passing, but nobody needs it. This
lint fails on every such header, so dead subsystems get deleted
instead of maintained.

A header counts as reached when some file under ``src/``, ``bench/``,
``examples/`` or ``tools/`` other than its own ``.cpp`` (same path,
``.cpp`` suffix) includes it. Includes may name the header by its
``src/``-relative path (``#include "engine/rm_ssd.h"``) or, from the
same directory, by its bare file name. Files under ``tests/`` never
count.

Escape hatch: a header that is a public entry point — called from
outside the repo, not from it — carries the marker
``reachability: entry-point <reason>`` in a comment. The reason must
say who the outside caller is; a marker without one is itself a
finding.

Usage:
    lint_reachability.py [--root DIR]

``--root`` lints another tree laid out like the repo (defaults to the
repo itself).

Exit status: 0 when clean, 1 with a findings report otherwise.
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent

INCLUDER_DIRS = ["src", "bench", "examples", "tools"]
SOURCE_SUFFIXES = {".h", ".hpp", ".cpp", ".cc"}

INCLUDE_RE = re.compile(r'^\s*#\s*include\s*"(?P<path>[^"]+)"', re.M)
MARKER_RE = re.compile(r"reachability:\s*entry-point\b(?P<reason>[^\n]*)")


def sources(root: pathlib.Path) -> list[pathlib.Path]:
    files = []
    for d in INCLUDER_DIRS:
        base = root / d
        if base.is_dir():
            files.extend(p for p in sorted(base.rglob("*"))
                         if p.suffix in SOURCE_SUFFIXES and p.is_file())
    return files


def included_headers(path: pathlib.Path, src: pathlib.Path) -> set[str]:
    """``src/``-relative paths this file's quoted includes may name."""
    out = set()
    for m in INCLUDE_RE.finditer(path.read_text(errors="replace")):
        name = m.group("path")
        out.add(name)
        # Same-directory spelling: "rm_ssd.h" next to the includer.
        sibling = path.parent / name
        if sibling.is_relative_to(src):
            out.add(sibling.relative_to(src).as_posix())
    return out


def lint(root: pathlib.Path) -> list[str]:
    src = root / "src"
    includers: dict[str, set[pathlib.Path]] = {}
    for path in sources(root):
        for header in included_headers(path, src):
            includers.setdefault(header, set()).add(path)

    findings = []
    for header in sorted(src.rglob("*.h")):
        key = header.relative_to(src).as_posix()
        own_cpp = header.with_suffix(".cpp")
        users = includers.get(key, set()) - {own_cpp}
        marker = MARKER_RE.search(header.read_text(errors="replace"))
        where = header.relative_to(root).as_posix()
        if marker and not marker.group("reason").strip(" \t-—:*/"):
            findings.append(
                f"{where}: entry-point marker has no reason (say who "
                f"calls it from outside the repo)")
        elif not users and not marker:
            findings.append(
                f"{where}: no includer in {', '.join(INCLUDER_DIRS)} "
                f"besides its own .cpp (delete it, or mark a public "
                f"entry point with 'reachability: entry-point <reason>')")
    return findings


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=pathlib.Path, default=REPO,
                        help="tree to lint (default: the repo)")
    args = parser.parse_args()
    findings = lint(args.root.resolve())
    if findings:
        print(f"lint_reachability: {len(findings)} finding(s)")
        for f in findings:
            print(f"  {f}")
        return 1
    print("lint_reachability: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
