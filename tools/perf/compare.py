#!/usr/bin/env python3
"""Compare benchmark runs of two commits.

Usage:
    compare.py BASE.json NEW.json [BASE.json NEW.json ...]

Each argument is a ``perf-out/perf.json`` written by ``run.py``. The
arguments are pairs of runs, parent commit first, in the order they
were made; alternate which side runs first from pair to pair (README.md
shows a loop that does).

One row per workload x metric, with a verdict:

* Simulated metrics replay bit for bit, so one pair decides. A change
  worse than the metric's bound in BENCHMARK.json is ``worse``; any
  improvement is ``better``; the rest is ``unchanged``. Per-layer
  metrics have no bound: any difference is better or worse.
* Host-time metrics need at least 10 pairs. ``better`` when the new
  side wins at least 9/10 of the pairs (ties count for neither) and the
  medians differ by more than the parent's interquartile range.
  ``worse`` when the new median is worse than the parent's by more than
  the bound while the parent's spread is within it. ``unchanged`` when
  neither holds and the parent's spread is within the bound. Otherwise
  ``unresolved``.

Exit status: 1 when any row is ``worse``, else 0.
"""

from __future__ import annotations

import json
import pathlib
import statistics
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]

# Metrics measured on the host clock (everything else is simulated).
HOST = {
    "sim_req_per_s", "setup_s", "peak_rss_mb",
    "workload.loop_host_ns", "workload.tracegen_host_ns",
    "engine.submit_host_ns", "engine.retire_host_ns",
    "engine.migrate_host_ns", "setup.build_s", "setup.provision_s",
    "setup.warmup_s", "trace.overhead_frac",
}
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_spec() -> dict:
    """name -> {"better": "higher"|"lower", "bound": float|None}."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = {}
    for m in bench["end_to_end"]:
        spec[m["name"]] = {"better": m["better"], "bound": m["bound"]}
    for m in bench["per_layer"]:
        spec[m["name"]] = {"better": m["better"], "bound": None}
    return spec


def iqr(values: list[float]) -> float:
    if len(values) < 2:
        return float("inf")
    q = statistics.quantiles(values, n=4)
    return q[2] - q[0]


def simulated_verdict(base: list[float], new: list[float], sign: float,
                      bound: float | None) -> str:
    if len(set(base)) > 1 or len(set(new)) > 1:
        return "unresolved"  # should never happen: the replay is exact
    b, n = base[0], new[0]
    gain = sign * (n - b)
    if gain > 0:
        return "better"
    if gain == 0:
        return "unchanged"
    if bound is None or -gain > bound * abs(b):
        return "worse"
    return "unchanged"


def host_verdict(base: list[float], new: list[float], sign: float,
                 bound: float | None) -> str:
    gains = [sign * (n - b) for b, n in zip(base, new)]
    wins = sum(g > 0 for g in gains)
    losses = sum(g < 0 for g in gains)
    mb, mn = statistics.median(base), statistics.median(new)
    gap = sign * (mn - mb)
    spread = iqr(base)
    enough = len(gains) >= MIN_PAIRS
    if enough and wins >= WIN_SHARE * len(gains) and gap > spread:
        return "better"
    if bound is None:
        if enough and losses >= WIN_SHARE * len(gains) and -gap > spread:
            return "worse"
        return "unresolved"
    if spread > bound * abs(mb):
        return "unresolved"
    return "worse" if -gap > bound * abs(mb) else "unchanged"


def main(argv: list[str]) -> int:
    if len(argv) < 2 or len(argv) % 2:
        print(__doc__, file=sys.stderr)
        return 2
    runs = [json.loads(pathlib.Path(p).read_text()) for p in argv]
    bases, news = runs[0::2], runs[1::2]
    spec = load_spec()
    print(f"{len(bases)} pair(s)")
    print(f"{'workload':24s} {'metric':32s} {'base':>14s} {'new':>14s} "
          f"{'change':>9s}  verdict")
    worse = False
    for wl in bases[0]["workloads"]:
        for group in ("end_to_end", "per_layer"):
            for metric in bases[0]["workloads"][wl][group]:
                if metric not in spec:
                    continue
                try:
                    base = [r["workloads"][wl][group][metric]["value"]
                            for r in bases]
                    new = [r["workloads"][wl][group][metric]["value"]
                           for r in news]
                except KeyError:
                    continue  # metric absent on one side (untraced run)
                sign = 1.0 if spec[metric]["better"] == "higher" else -1.0
                judge = host_verdict if metric in HOST else simulated_verdict
                verdict = judge(base, new, sign, spec[metric]["bound"])
                worse = worse or verdict == "worse"
                mb, mn = statistics.median(base), statistics.median(new)
                change = f"{(mn - mb) / mb * 100:+.2f}%" if mb else "n/a"
                print(f"{wl:24s} {metric:32s} {mb:14.6g} {mn:14.6g} "
                      f"{change:>9s}  {verdict}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
