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

With ``--perf`` the two arguments are instead two ``rmssd_perf``
benchmark drivers (``build-perf/driver/rmssd_perf`` of each tree).
Both run every benchmark workload at the default and the held-out
seed with ``--seconds 1 --trace 0``, and their end-to-end metrics are
compared. Every simulated metric (all but the host-noisy
``sim_req_per_s``, ``setup_s`` and ``peak_rss_mb``) must be equal,
and ``failed`` must be 0 on both sides. The host-noisy metrics are
printed side by side for information only.

With ``--perf --pairs N`` the two drivers instead race: N alternating
pairs of ``--seconds S --trace 0`` runs of one workload (or of every
workload in turn), one run at a time, the parent first in odd pairs
and the change first in even ones. Each pair's ``sim_req_per_s``,
``setup_s`` and ``peak_rss_mb`` are printed, then each side's median
and interquartile range and the number of pairs the change won. Host
speed drifts by tens of percent within minutes on a shared host, so
only alternating pairs tell a gain from the drift. The simulated metrics must still be
equal within every pair.

With ``--figures`` the two arguments are build trees again, and their
golden figure binaries (one per ``bench/goldens/BENCH_*.json``) race:
N alternating pairs (``--pairs``, default 3), parent first in odd
pairs. Each side runs every figure once, one after another with
``--benchmark_filter=NONE_``, the way ``tools/perf/run.py --figures``
times them, and every ``BENCH_*.json`` a run writes must equal its
golden byte for byte. Each pair's total is printed, then per figure
and for the total each side's median and interquartile range of the
wall seconds and the number of pairs the change won.

Usage:
    compare_outputs.py PARENT_BUILD CHANGE_BUILD [--jobs N] [--keep]
    compare_outputs.py --perf PARENT_DRIVER CHANGE_DRIVER [--jobs N]
    compare_outputs.py --perf PARENT_DRIVER CHANGE_DRIVER --pairs N
                       [--workload W] [--seconds S] [--seed S]
    compare_outputs.py --figures PARENT_BUILD CHANGE_BUILD [--pairs N]

Exit status: 0 when both sides produce identical outputs, 1 on any
difference (a binary present on one side only counts as one) or any
failed run, 2 on bad arguments.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import importlib.util
import json
import os
import pathlib
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

SUITES = {"bench": ["--benchmark_filter=NONE_"], "examples": []}
GOLDENS = pathlib.Path(__file__).resolve().parent.parent / "bench" / "goldens"


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


# End-to-end metrics that time the host, not the simulated device.
HOST_METRICS = ("sim_req_per_s", "setup_s", "peak_rss_mb")


def run_py():
    """tools/perf/run.py as a module: the workload list and defaults."""
    spec = importlib.util.spec_from_file_location(
        "perf_run", pathlib.Path(__file__).resolve().parent / "perf" /
        "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def perf_runs() -> list[tuple[str, int]]:
    """(workload, seed) pairs: every benchmark workload at both seeds."""
    run = run_py()
    return [(workload, seed) for workload in run.WORKLOADS
            for seed in (run.DEFAULT_SEED, run.HELD_OUT_SEED)]


def run_driver(driver: pathlib.Path, workload: str, seed: int,
               seconds: float = 1) -> dict:
    """One driver run; its last stdout line is the JSON result."""
    cmd = [str(driver), "--workload", workload, "--seed", str(seed),
           "--seconds", f"{seconds:g}", "--trace", "0"]
    r = subprocess.run(cmd, capture_output=True, text=True,
                       errors="replace")
    lines = r.stdout.strip().splitlines()
    if r.returncode or not lines:
        return {"error": f"exit status {r.returncode}"}
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return {"error": "last stdout line is not JSON"}


def perf_findings(name: str, parent: dict, change: dict) -> list[str]:
    """What differs between two driver results of one run."""
    findings = []
    for side, result in (("parent", parent), ("change", change)):
        if "error" in result:
            findings.append(f"{name}: {side} driver failed: "
                            f"{result['error']}")
        elif result.get("failed") != 0:
            findings.append(f"{name}: {side} failed "
                            f"{result.get('failed')} operations")
    if findings:
        return findings
    pm, cm = parent["end_to_end"], change["end_to_end"]
    for metric in sorted(set(pm) | set(cm)):
        if metric in HOST_METRICS:
            continue
        if metric not in pm or metric not in cm:
            only = "parent" if metric in pm else "change"
            findings.append(f"{name}: {metric} only in the {only} run")
        elif pm[metric]["value"] != cm[metric]["value"]:
            findings.append(f"{name}: {metric} {pm[metric]['value']!r} "
                            f"-> {cm[metric]['value']!r}")
    return findings


def compare_perf(parent_driver: pathlib.Path,
                 change_driver: pathlib.Path, jobs: int) -> int:
    runs = perf_runs()
    drivers = {"parent": parent_driver, "change": change_driver}
    with concurrent.futures.ThreadPoolExecutor(max_workers=jobs) as pool:
        futures = {(side, run): pool.submit(run_driver, driver, *run)
                   for run in runs for side, driver in drivers.items()}
        results = {key: f.result() for key, f in futures.items()}
    findings = []
    for workload, seed in runs:
        name = f"{workload} seed {seed}"
        parent = results[("parent", (workload, seed))]
        change = results[("change", (workload, seed))]
        findings.extend(perf_findings(name, parent, change))
        for metric in HOST_METRICS:
            values = [r.get("end_to_end", {}).get(metric, {}).get("value")
                      for r in (parent, change)]
            if None not in values:
                print(f"{name}: {metric} {values[0]:.6g} -> "
                      f"{values[1]:.6g}")
    print(f"compared {len(runs)} benchmark runs per side")
    for line in findings:
        print(line)
    print("identical" if not findings else "DIFFERENT")
    return 1 if findings else 0


# Host metrics raced by --pairs, each with the direction that is better.
RACED = (("sim_req_per_s", "higher"), ("setup_s", "lower"),
         ("peak_rss_mb", "lower"))


def iqr(values: list[float]) -> float:
    """Interquartile range (inclusive quartiles; 0 for one value)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def race(parent_driver: pathlib.Path, change_driver: pathlib.Path,
         workload: str, pairs: int, seconds: float, seed: int) -> int:
    """@p pairs alternating runs of one workload; 1 on any failure."""
    drivers = {"parent": parent_driver, "change": change_driver}
    values = {side: {metric: [] for metric, _ in RACED}
              for side in drivers}
    findings = []
    for pair in range(1, pairs + 1):
        order = ("parent", "change") if pair % 2 else ("change", "parent")
        results = {side: run_driver(drivers[side], workload, seed, seconds)
                   for side in order}
        name = f"{workload} pair {pair}"
        failed = perf_findings(name, results["parent"], results["change"])
        findings.extend(failed)
        if failed:
            print(f"{name}: failed")
            continue
        cells = []
        for metric, _ in RACED:
            got = [results[side]["end_to_end"][metric]["value"]
                   for side in drivers]
            for side, value in zip(drivers, got):
                values[side][metric].append(value)
            cells.append(f"{metric} {got[0]:.6g} -> {got[1]:.6g}")
        print(f"{name} ({order[0]} first): " + ", ".join(cells))
    for metric, better in RACED:
        parent, change = values["parent"][metric], values["change"][metric]
        if parent:
            print(verdict(f"{workload} {metric}", parent, change, better))
    for line in findings:
        print(line)
    return 1 if findings else 0


def verdict(label: str, parent: list[float], change: list[float],
            better: str) -> str:
    """Medians, IQRs and wins of one raced metric over its pairs."""
    wins = sum((c > p) if better == "higher" else (c < p)
               for p, c in zip(parent, change))
    pm, cm = statistics.median(parent), statistics.median(change)
    ratio = f" ({cm / pm:.3f}x)" if pm else ""
    return (f"{label}: median {pm:.6g} -> {cm:.6g}{ratio}, "
            f"IQR {iqr(parent):.6g} -> {iqr(change):.6g}, "
            f"change {better} in {wins} of {len(parent)} pairs")


def run_figures(build: pathlib.Path, workdir: pathlib.Path,
                figs: list[str]) -> tuple[dict[str, float], list[str]]:
    """Every figure of @p build once, in turn: its wall seconds, and
    what went wrong (a failed run, a dump that is not the golden)."""
    walls, findings = {}, []
    for fig in figs:
        dump = workdir / f"BENCH_{fig}.json"
        dump.unlink(missing_ok=True)
        start = time.perf_counter()
        proc = subprocess.run([str((build / "bench" / fig).resolve()),
                               "--benchmark_filter=NONE_"], cwd=workdir,
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL)
        walls[fig] = time.perf_counter() - start
        if proc.returncode:
            findings.append(f"{fig}: exit status {proc.returncode}")
        elif not dump.is_file():
            findings.append(f"{fig}: wrote no {dump.name}")
        elif dump.read_bytes() != (GOLDENS / dump.name).read_bytes():
            findings.append(f"{fig}: {dump.name} differs from bench/goldens")
    return walls, findings


def race_figures(parent_build: pathlib.Path, change_build: pathlib.Path,
                 pairs: int) -> int:
    """@p pairs alternating runs of every golden figure; 1 on any
    failed run or golden mismatch."""
    builds = {"parent": parent_build, "change": change_build}
    figs = run_py().golden_figures()
    missing = [f"{side}: no bench/{fig}" for side, build in builds.items()
               for fig in figs if not (build / "bench" / fig).is_file()]
    if missing:
        print("\n".join(missing), file=sys.stderr)
        return 2
    walls = {side: {fig: [] for fig in [*figs, "total"]} for side in builds}
    findings = []
    scratch = pathlib.Path(tempfile.mkdtemp(prefix="compare_figures_"))
    try:
        for pair in range(1, pairs + 1):
            order = ("parent", "change") if pair % 2 else ("change", "parent")
            for side in order:
                workdir = scratch / side
                workdir.mkdir(exist_ok=True)
                got, failed = run_figures(builds[side], workdir, figs)
                findings.extend(f"pair {pair} {side}: {line}"
                                for line in failed)
                for fig, wall in got.items():
                    walls[side][fig].append(wall)
                walls[side]["total"].append(sum(got.values()))
            print(f"figures pair {pair} ({order[0]} first): total "
                  f"{walls['parent']['total'][-1]:.3f} -> "
                  f"{walls['change']['total'][-1]:.3f} s", flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for fig in [*figs, "total"]:
        print(verdict(f"{fig} wall_s", walls["parent"][fig],
                      walls["change"][fig], "lower"))
    for line in findings:
        print(line)
    print("goldens identical" if not findings else "DIFFERENT")
    return 1 if findings else 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=pathlib.Path,
                        help="build tree (or, with --perf, benchmark "
                             "driver) of the parent commit")
    parser.add_argument("change", type=pathlib.Path,
                        help="build tree (or driver) of the change")
    parser.add_argument("--perf", action="store_true",
                        help="compare two rmssd_perf drivers' simulated "
                             "end-to-end metrics")
    parser.add_argument("--jobs", type=int, default=2,
                        help="binaries run at once (default 2)")
    parser.add_argument("--keep", action="store_true",
                        help="keep the scratch directories")
    parser.add_argument("--figures", action="store_true",
                        help="race the golden figure binaries of two "
                             "build trees")
    parser.add_argument("--pairs", type=int, default=0,
                        help="with --perf: race N alternating pairs of "
                             "timed runs instead; with --figures: the "
                             "number of pairs (default 3)")
    parser.add_argument("--workload",
                        help="with --pairs: the one workload to race "
                             "(default: every workload in turn)")
    parser.add_argument("--seconds", type=float,
                        help="with --pairs: host seconds per run "
                             "(default: the benchmark's run time)")
    parser.add_argument("--seed", type=int,
                        help="with --pairs: input seed (default: the "
                             "benchmark's default seed)")
    args = parser.parse_args(argv)
    jobs = max(1, args.jobs)
    if args.perf and args.figures:
        parser.error("--perf and --figures race different things")
    if args.pairs and not (args.perf or args.figures):
        parser.error("--pairs races two drivers or two builds' figures: "
                     "it needs --perf or --figures")
    if args.perf:
        for driver in (args.parent, args.change):
            if not (driver.is_file() and os.access(driver, os.X_OK)):
                print(f"not an executable: {driver}", file=sys.stderr)
                return 2
        if not args.pairs:
            return compare_perf(args.parent, args.change, jobs)
        run = run_py()
        if args.workload and args.workload not in run.WORKLOADS:
            parser.error(f"unknown workload {args.workload!r}")
        status = 0
        for workload in [args.workload] if args.workload else run.WORKLOADS:
            status |= race(
                args.parent, args.change, workload, args.pairs,
                run.DEFAULT_SECONDS if args.seconds is None
                else args.seconds,
                run.DEFAULT_SEED if args.seed is None else args.seed)
        return status
    for build in (args.parent, args.change):
        if not build.is_dir():
            print(f"not a directory: {build}", file=sys.stderr)
            return 2
    if args.figures:
        return race_figures(args.parent, args.change, args.pairs or 3)
    return compare(args.parent, args.change, jobs, args.keep)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
