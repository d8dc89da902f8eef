#!/usr/bin/env python3
"""Build and run the RM-SSD performance benchmark.

Run from anywhere inside a checkout:

    python3 tools/perf/run.py [--seed S] [--seconds S] [--trace]
                              [--selfcheck] [--figures]
    python3 tools/perf/run.py --workload NAME --seed N --seconds S
                              --trace 0|1

The first form builds the driver, runs every workload in turn (one
single-threaded process at a time), prints every metric as
``workload metric value unit`` and writes ``perf-out/perf.json``.

The second form runs one workload and ends its standard output with
one JSON line: ``{"correct", "attempted", "failed", "metrics"}``, where
the metrics are the end-to-end ones (``--trace 0``) or the per-layer
ones (``--trace 1``).

``--trace`` also writes ``perf-out/trace_<workload>.json`` (Chrome
trace events, open in Perfetto) and prints a self-time table per layer.
``--selfcheck`` first proves that the timing proxy and tracing do not
perturb the simulated device. ``--figures`` times the golden figure
binaries. Exit status is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parents[2]
PERF = ROOT / "tools" / "perf"
BUILD = ROOT / "build-perf"
OUT = ROOT / "perf-out"
DRIVER = BUILD / "driver" / "rmssd_perf"

WORKLOADS = [
    "serve_rmc1_x4_cached",
    "sls_rmc2_cold",
    "sls_rmc1_drift_migrate",
    "rmc1_tier_functional",
]
# Matches run_seconds in BENCHMARK.json.
DEFAULT_SECONDS = 30
DEFAULT_SEED = 1
HELD_OUT_SEED = 1009
# Per-point sample counts printed beside the metrics they back.
POINT_METRIC = {"sat": "sat_qps", "lo": "lat_lo", "hi": "lat_hi",
                "bisect": "max_qps_slo"}


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def jobs() -> str:
    return str(min(4, os.cpu_count() or 1))


def cmake_build(source: pathlib.Path, build: pathlib.Path,
                targets: list[str], what: str) -> None:
    """Configure and build Release targets; build output goes to stderr."""
    for cmd in (["cmake", "-S", str(source), "-B", str(build),
                 "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", str(build), "-j", jobs(),
                 "--target", *targets]):
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode:
            raise SystemExit(f"error: building {what} failed")


def build_driver() -> None:
    if not (ROOT / "src" / "CMakeLists.txt").exists():
        raise SystemExit(f"error: simulator sources missing under {ROOT}/src")
    cmake_build(PERF, BUILD / "driver", ["rmssd_perf"],
                "the benchmark driver")


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    cmd = [str(DRIVER), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if trace:
        OUT.mkdir(exist_ok=True)
        cmd += ["--trace-out", str(OUT / f"trace_{name}.json")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True)
    if proc.returncode:
        raise SystemExit(f"error: {name} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def selfcheck(name: str, seed: int) -> bool:
    cmd = [str(DRIVER), "--workload", name, "--seed", str(seed),
           "--selfcheck"]
    return subprocess.run(cmd, stderr=sys.stderr).returncode == 0


def print_metrics(result: dict, trace: bool) -> None:
    name = result["workload"]
    print(f"{name} replicas {result['replicas']} count")
    for point in result["points"]:
        if point["name"] != "bisect":
            print(f"{name} {POINT_METRIC[point['name']]}.samples "
                  f"{point['requests']} count")
    steps = [p for p in result["points"] if p["name"] == "bisect"]
    if steps:
        print(f"{name} max_qps_slo.samples {steps[0]['requests']} count")
        print(f"{name} max_qps_slo.steps {len(steps)} count")
    groups = ["end_to_end"] + (["per_layer"] if trace else [])
    for group in groups:
        for metric, m in result[group].items():
            print(f"{name} {metric} {m['value']:.6g} {m['unit']}")
    print(f"{name} attempted {result['attempted']} count")
    print(f"{name} failed {result['failed']} count")
    for note in result["failures"]:
        print(f"{name} FAILURE {note}")
    if trace:
        print(f"\n{name}: host self time per layer (first traced pass)")
        print(f"  {'layer':22s} {'spans':>9s} {'total ms':>11s} "
              f"{'self ms':>11s}")
        for row in sorted(result["self_time"], key=lambda r: -r["self_ms"]):
            print(f"  {row['layer']:22s} {row['count']:9.0f} "
                  f"{row['total_ms']:11.2f} {row['self_ms']:11.2f}")
        print()


def golden_figures() -> list[str]:
    return sorted(p.name[len("BENCH_"):-len(".json")]
                  for p in (ROOT / "bench" / "goldens").glob("BENCH_*.json"))


def time_figures() -> dict:
    """Wall seconds of each golden figure binary (informational)."""
    figs = golden_figures()
    build = BUILD / "figures"
    cmake_build(ROOT, build, figs, "the figure binaries")
    cwd = OUT / "figures"
    cwd.mkdir(parents=True, exist_ok=True)
    walls = {}
    for fig in figs:
        start = time.perf_counter()
        proc = subprocess.run([str(build / "bench" / fig),
                               "--benchmark_filter=NONE_"], cwd=cwd,
                              stdout=subprocess.DEVNULL, stderr=sys.stderr)
        walls[fig] = time.perf_counter() - start
        if proc.returncode:
            raise SystemExit(f"error: {fig} exited with {proc.returncode}")
        print(f"figures {fig}.wall_s {walls[fig]:.3f} s", flush=True)
    print(f"figures total.wall_s {sum(walls.values()):.3f} s")
    return walls


def contract_run(args: argparse.Namespace) -> int:
    """One workload; the last stdout line is the JSON result."""
    build_driver()
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    print_metrics(result, bool(args.trace))
    group = "per_layer" if args.trace else "end_to_end"
    correct = result["failed"] == 0
    print(json.dumps({"correct": correct,
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": result[group]}))
    return 0 if correct else 1


def full_run(args: argparse.Namespace) -> int:
    build_driver()
    ok = True
    if args.selfcheck:
        for name in WORKLOADS:
            ok = selfcheck(name, args.seed) and ok
    results = {}
    for name in WORKLOADS:
        start = time.perf_counter()
        results[name] = run_workload(name, args.seed, args.seconds,
                                     bool(args.trace))
        results[name]["wall_s"] = time.perf_counter() - start
        print_metrics(results[name], bool(args.trace))
        ok = ok and results[name]["failed"] == 0
    report = {"seed": args.seed, "seconds": args.seconds,
              "trace": bool(args.trace), "workloads": results}
    if args.figures:
        report["figures"] = time_figures()
    OUT.mkdir(exist_ok=True)
    (OUT / "perf.json").write_text(json.dumps(report, indent=1) + "\n")
    log(f"wrote {OUT / 'perf.json'}")
    if not ok:
        log("FAILED: see the FAILURE lines above")
    return 0 if ok else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS,
                    help="run only this workload (machine-readable mode)")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help=f"input seed (default {DEFAULT_SEED}; "
                         f"held-out seed {HELD_OUT_SEED})")
    ap.add_argument("--seconds", type=int, default=DEFAULT_SECONDS,
                    help="time budget of one workload run")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=[0, 1], help="traced per-layer run")
    ap.add_argument("--selfcheck", action="store_true",
                    help="check the proxy and tracing change nothing")
    ap.add_argument("--figures", action="store_true",
                    help="also time the golden figure binaries")
    args = ap.parse_args()
    if args.workload:
        return contract_run(args)
    return full_run(args)


if __name__ == "__main__":
    sys.exit(main())
