#!/usr/bin/env python3
"""Compare every bench and example binary of two build trees.

Runs each executable under ``<build>/bench`` (with
``--benchmark_filter=NONE_``, so the google-benchmark tail is skipped)
and under ``<build>/examples`` (no arguments) for both trees, each
tree in its own scratch directory. Then compares, byte for byte:

- the stdout of every binary,
- its exit status,
- every ``BENCH_*.json`` the binaries wrote.

Every differing line pair is printed (``-`` parent, ``+`` change).
Use it to show that a refactor changes no simulated output, or
exactly the lines it is meant to change.

Usage:
    compare_outputs.py PARENT_BUILD CHANGE_BUILD [--jobs N] [--keep]

Exit status: 0 when both trees produce identical outputs, 1 on any
difference (a binary present on one side only counts as one).
"""

from __future__ import annotations

import argparse
import concurrent.futures
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile

SUITES = {"bench": ["--benchmark_filter=NONE_"], "examples": []}


def binaries(build: pathlib.Path) -> dict[str, list[str]]:
    """Executable files per suite: {"bench/fig10_sls_operator": [...]}."""
    found = {}
    for suite, args in SUITES.items():
        root = build / suite
        if not root.is_dir():
            continue
        for path in sorted(root.iterdir()):
            if path.is_file() and os.access(path, os.X_OK):
                found[f"{suite}/{path.name}"] = [str(path.resolve()),
                                                  *args]
    return found


def run_side(build: pathlib.Path, workdir: pathlib.Path,
             jobs: int) -> dict[str, tuple[int, str]]:
    """Run every binary of @p build in @p workdir: {name: (status, stdout)}."""
    cmds = binaries(build)

    def run(name: str) -> tuple[str, tuple[int, str]]:
        r = subprocess.run(cmds[name], cwd=workdir, capture_output=True,
                           text=True, errors="replace")
        return name, (r.returncode, r.stdout)

    with concurrent.futures.ThreadPoolExecutor(max_workers=jobs) as pool:
        return dict(pool.map(run, sorted(cmds)))


def line_diffs(parent: str, change: str) -> list[str]:
    """The differing line pairs of two texts, aligned by line number."""
    a = parent.splitlines()
    b = change.splitlines()
    out = []
    for i in range(max(len(a), len(b))):
        left = a[i] if i < len(a) else None
        right = b[i] if i < len(b) else None
        if left == right:
            continue
        out.append(f"  line {i + 1}:")
        out.append(f"  - {left}" if left is not None else "  - <missing>")
        out.append(f"  + {right}" if right is not None else "  + <missing>")
    return out


def compare(parent_build: pathlib.Path, change_build: pathlib.Path,
            jobs: int, keep: bool) -> int:
    scratch = pathlib.Path(tempfile.mkdtemp(prefix="compare_outputs_"))
    sides = {"parent": parent_build, "change": change_build}
    results = {}
    try:
        for side, build in sides.items():
            workdir = scratch / side
            workdir.mkdir()
            results[side] = run_side(build, workdir, jobs)
        findings = []
        names = sorted(set(results["parent"]) | set(results["change"]))
        for name in names:
            if name not in results["parent"] or name not in results["change"]:
                only = "parent" if name in results["parent"] else "change"
                findings.append(f"{name}: only in the {only} build")
                continue
            (pst, pout), (cst, cout) = (results["parent"][name],
                                        results["change"][name])
            if pst != cst:
                findings.append(f"{name}: exit status {pst} -> {cst}")
            if pout != cout:
                findings.append(f"{name}: stdout differs")
                findings.extend(line_diffs(pout, cout))
        dumps = {side: {p.name: p for p in (scratch / side).glob("BENCH_*.json")}
                 for side in sides}
        for dump in sorted(set(dumps["parent"]) | set(dumps["change"])):
            if dump not in dumps["parent"] or dump not in dumps["change"]:
                only = "parent" if dump in dumps["parent"] else "change"
                findings.append(f"{dump}: written only by the {only} build")
                continue
            pbytes = dumps["parent"][dump].read_bytes()
            cbytes = dumps["change"][dump].read_bytes()
            if pbytes != cbytes:
                findings.append(f"{dump}: contents differ")
                findings.extend(
                    line_diffs(pbytes.decode(errors="replace"),
                               cbytes.decode(errors="replace")))
        print(f"compared {len(names)} binaries and "
              f"{len(set(dumps['parent']) | set(dumps['change']))} "
              f"BENCH_*.json dumps")
        for line in findings:
            print(line)
        print("identical" if not findings else "DIFFERENT")
        return 1 if findings else 0
    finally:
        if keep:
            print(f"outputs kept in {scratch}")
        else:
            shutil.rmtree(scratch, ignore_errors=True)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=pathlib.Path,
                        help="build tree of the parent commit")
    parser.add_argument("change", type=pathlib.Path,
                        help="build tree of the change")
    parser.add_argument("--jobs", type=int, default=2,
                        help="binaries run at once per side (default 2)")
    parser.add_argument("--keep", action="store_true",
                        help="keep the scratch directories")
    args = parser.parse_args(argv)
    for build in (args.parent, args.change):
        if not build.is_dir():
            print(f"not a directory: {build}", file=sys.stderr)
            return 2
    return compare(args.parent, args.change, max(1, args.jobs), args.keep)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
