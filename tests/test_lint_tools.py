#!/usr/bin/env python3
"""Self-tests for the repo's static-analysis tooling.

Runs tools/lint_units.py, tools/lint_determinism.py,
tools/lint_reachability.py, tools/diff_bench.py and
tools/compare_outputs.py against fixtures with KNOWN findings
(tests/lint_fixtures/ plus generated JSON dumps, fake build trees and
fake benchmark drivers)
and asserts both the exit codes and the findings text. The hostprof
symbolizer's stripped-library branch and its per-thread report run on
a fake symbol table and fake sample files. A lint that silently stops seeing a
hazard class fails CI here instead of slipping through review.

Registered with ctest as ``lint_tools`` (see tests/CMakeLists.txt);
also runnable directly: ``python3 tests/test_lint_tools.py``.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import pathlib
import subprocess
import sys
import tempfile
import unittest

REPO = pathlib.Path(__file__).resolve().parent.parent
TOOLS = REPO / "tools"
FIXTURES = REPO / "tests" / "lint_fixtures"


def run_tool(tool: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(TOOLS / tool), *map(str, args)],
        capture_output=True, text=True)


class LintUnitsTest(unittest.TestCase):
    def test_flags_every_known_finding(self):
        r = run_tool("lint_units.py", FIXTURES / "units_bad.h")
        self.assertEqual(r.returncode, 1, r.stdout)
        for name in ("startCycle", "spanSectors", "beginLba",
                     "lenBytes"):
            self.assertIn(f"'{name}'", r.stdout)

    def test_accepts_strong_types_rates_and_counts(self):
        r = run_tool("lint_units.py", FIXTURES / "units_good.h")
        self.assertEqual(r.returncode, 0, r.stdout)

    def test_repo_headers_are_clean(self):
        r = run_tool("lint_units.py")
        self.assertEqual(r.returncode, 0, r.stdout)


class LintDeterminismTest(unittest.TestCase):
    def test_flags_every_hazard_class(self):
        r = run_tool("lint_determinism.py", FIXTURES / "det_bad.cpp")
        self.assertEqual(r.returncode, 1, r.stdout)
        for needle in (
                "range-for over unordered container 'counts'",
                "iterator extraction from unordered container "
                "'counts'",
                "pointer-keyed ordered container",
                "std::random_device",
                "rand()/srand()",
                "time() is wall clock",
                "std::chrono clocks"):
            self.assertIn(needle, r.stdout)
        self.assertEqual(
            sum(l.startswith("  ") for l in r.stdout.splitlines()), 7,
            f"expected exactly 7 findings:\n{r.stdout}")

    def test_accepts_annotated_and_benign_uses(self):
        r = run_tool("lint_determinism.py", FIXTURES / "det_good.cpp")
        self.assertEqual(r.returncode, 0, r.stdout)

    def test_rejects_reasonless_annotation(self):
        r = run_tool("lint_determinism.py",
                     FIXTURES / "det_bad_annotation.cpp")
        self.assertEqual(r.returncode, 1, r.stdout)
        self.assertIn("det-safe annotation has no reason", r.stdout)

    def test_resolves_members_through_sibling_header(self):
        r = run_tool("lint_determinism.py",
                     FIXTURES / "det_member.cpp")
        self.assertEqual(r.returncode, 1, r.stdout)
        self.assertIn("range-for over unordered container 'heat_'",
                      r.stdout)

    def test_flags_unannotated_flat_map_iteration(self):
        r = run_tool("lint_determinism.py",
                     FIXTURES / "det_flat_map.cpp")
        self.assertEqual(r.returncode, 1, r.stdout)
        findings = [l for l in r.stdout.splitlines()
                    if l.startswith("  ")]
        self.assertEqual(len(findings), 1, r.stdout)
        self.assertIn("det_flat_map.cpp:15: FlatMap::forEachUnordered",
                      findings[0])

    def test_flags_isa_code_outside_tensor_cpp(self):
        r = run_tool("lint_determinism.py", FIXTURES / "det_isa.cpp")
        self.assertEqual(r.returncode, 1, r.stdout)
        findings = sorted(l.strip().split(": ")[0]
                          for l in r.stdout.splitlines()
                          if l.startswith("  "))
        self.assertEqual(findings, [
            "tests/lint_fixtures/det_isa.cpp:14",
            "tests/lint_fixtures/det_isa.cpp:6",
            "tests/lint_fixtures/det_isa.cpp:9"], r.stdout)
        self.assertIn("belongs only in src/model/tensor.cpp", r.stdout)

    def test_flags_threads_without_a_reason(self):
        r = run_tool("lint_determinism.py", FIXTURES / "det_thread.cpp")
        self.assertEqual(r.returncode, 1, r.stdout)
        findings = [l.strip() for l in r.stdout.splitlines()
                    if l.startswith("  ")]
        self.assertEqual(len(findings), 1, r.stdout)
        self.assertIn("det_thread.cpp:10: thread schedules are host "
                      "state", findings[0])

    def test_repo_sources_are_clean(self):
        r = run_tool("lint_determinism.py")
        self.assertEqual(r.returncode, 0, r.stdout)


class LintReachabilityTest(unittest.TestCase):
    def test_flags_test_only_code_and_reasonless_markers(self):
        r = run_tool("lint_reachability.py", "--root",
                     FIXTURES / "reachability")
        self.assertEqual(r.returncode, 1, r.stdout)
        # Header level: reached by bench/, by a same-directory include,
        # or marked with a reason (used.h, sibling.h, entry.h) is
        # clean. Function level: a call through the base reaches the
        # override (square.h), an unqualified call in a derived class
        # reaches the base's helper (Shape::unit) and one in its own
        # class a private helper (Widget::tally), an entry-point header
        # covers its test-only function (binding.h), and a test
        # observer with a reason is accepted (Widget::calls). A free
        # function named like a method does not reach it
        # (Widget::hidden).
        findings = [l.strip().split(" (")[0] for l in r.stdout.splitlines()
                    if l.startswith("  ")]
        called = ("is called nowhere in src, bench, examples, tools as "
                  "a member")
        self.assertEqual(findings, [
            "src/core/bad_marker.h: entry-point marker has no reason",
            "src/core/orphan.h: no includer in src, bench, examples, "
            "tools besides its own .cpp",
            f"src/core/widget.h:12: Widget::testOnlyCount {called}",
            "src/core/widget.h:18: Widget::probes: test-observer marker "
            "has no reason",
            f"src/core/widget.h:20: Widget::hidden {called}",
        ], r.stdout)


    def test_repo_headers_are_reachable(self):
        r = run_tool("lint_reachability.py")
        self.assertEqual(r.returncode, 0, r.stdout)


class DiffBenchTest(unittest.TestCase):
    @staticmethod
    def dump(columns, rows):
        return {"tables": [{
            "section": "fig", "caption": "t",
            "columns": columns,
            "rows": [dict(zip(columns, r)) for r in rows],
        }]}

    def run_diff(self, golden: dict, current: dict):
        with tempfile.TemporaryDirectory() as td:
            g = pathlib.Path(td) / "golden.json"
            c = pathlib.Path(td) / "current.json"
            g.write_text(json.dumps(golden))
            c.write_text(json.dumps(current))
            return run_tool("diff_bench.py", g, c)

    def test_identical_dumps_pass(self):
        d = self.dump(["K", "qps"], [["0", "10"], ["8", "20"]])
        r = self.run_diff(d, d)
        self.assertEqual(r.returncode, 0, r.stdout)

    def test_reports_all_mismatched_cells(self):
        golden = self.dump(["K", "qps", "p99"],
                           [["0", "10", "5"], ["8", "20", "7"]])
        current = self.dump(["K", "qps", "p99"],
                            [["0", "11", "5"], ["8", "20", "9"]])
        r = self.run_diff(golden, current)
        self.assertEqual(r.returncode, 1, r.stdout)
        self.assertIn("golden '10' != current '11'", r.stdout)
        self.assertIn("golden '7' != current '9'", r.stdout)

    def test_dropped_column_does_not_mask_cell_diffs(self):
        golden = self.dump(["K", "qps", "p99"],
                           [["0", "10", "5"], ["8", "20", "7"]])
        current = self.dump(["K", "qps"],
                            [["0", "10"], ["8", "21"]])
        r = self.run_diff(golden, current)
        self.assertEqual(r.returncode, 1, r.stdout)
        self.assertIn("dropped columns ['p99']", r.stdout)
        # The qps regression in the surviving column is still named.
        self.assertIn("golden '20' != current '21'", r.stdout)

    def test_lost_row_key_column_is_reported(self):
        golden = self.dump(["K", "qps"], [["0", "10"]])
        current = self.dump(["qps"], [["10"]])
        r = self.run_diff(golden, current)
        self.assertEqual(r.returncode, 1, r.stdout)
        self.assertIn("lost its row-key column 'K'", r.stdout)

    def test_current_may_extend_freely(self):
        golden = self.dump(["K", "qps"], [["0", "10"]])
        current = self.dump(["K", "qps", "new"],
                            [["0", "10", "1"], ["16", "40", "2"]])
        r = self.run_diff(golden, current)
        self.assertEqual(r.returncode, 0, r.stdout)

    def test_repo_goldens_are_wellformed(self):
        # The goldens must at least diff cleanly against themselves.
        r = run_tool("diff_bench.py", REPO / "bench" / "goldens",
                     REPO / "bench" / "goldens")
        self.assertEqual(r.returncode, 0, r.stdout)


class CompareOutputsTest(unittest.TestCase):
    """Two fake build trees whose 'binaries' are shell scripts."""

    @staticmethod
    def script(path: pathlib.Path, body: str) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("#!/bin/sh\n" + body)
        path.chmod(0o755)

    def build_tree(self, root: pathlib.Path, *, p99: str = "5.0",
                   status: int = 0, dump: str = '{"qps": 10}',
                   extra: bool = False) -> pathlib.Path:
        self.script(root / "bench" / "fig01",
                    'echo "args: $*"\n'
                    f"echo '{dump}' > BENCH_fig01.json\n")
        # Not executable: ignored, like CMake's Makefile.
        (root / "bench" / "Makefile").write_text("all:\n")
        self.script(root / "examples" / "demo",
                    f'echo "tenant a p99 {p99}"\necho done\n'
                    f"exit {status}\n")
        if extra:
            self.script(root / "examples" / "extra", "echo hi\n")
        return root

    def compare(self, parent_kwargs: dict, change_kwargs: dict):
        with tempfile.TemporaryDirectory() as td:
            parent = self.build_tree(pathlib.Path(td) / "parent",
                                     **parent_kwargs)
            change = self.build_tree(pathlib.Path(td) / "change",
                                     **change_kwargs)
            return run_tool("compare_outputs.py", parent, change,
                            "--jobs", "1")

    def test_identical_trees_pass(self):
        r = self.compare({}, {})
        self.assertEqual(r.returncode, 0, r.stdout)
        self.assertIn("compared 2 binaries and 1 BENCH_*.json dumps",
                      r.stdout)
        self.assertIn("identical", r.stdout)

    def test_bench_binaries_skip_the_microbenchmarks(self):
        # The parent's fig01 echoes its argv; the change's prints the
        # argv the tool must pass. Equal only if bench binaries get
        # --benchmark_filter=NONE_ (and examples get no flag).
        with tempfile.TemporaryDirectory() as td:
            parent = self.build_tree(pathlib.Path(td) / "parent")
            change = self.build_tree(pathlib.Path(td) / "change")
            self.script(change / "bench" / "fig01",
                        'echo "args: --benchmark_filter=NONE_"\n'
                        "echo '{\"qps\": 10}' > BENCH_fig01.json\n")
            r = run_tool("compare_outputs.py", parent, change)
            self.assertEqual(r.returncode, 0, r.stdout)

    def test_reports_every_difference(self):
        r = self.compare({}, {"p99": "6.5", "status": 3,
                              "dump": '{"qps": 11}', "extra": True})
        self.assertEqual(r.returncode, 1, r.stdout)
        for needle in (
                "examples/demo: exit status 0 -> 3",
                "examples/demo: stdout differs",
                "  - tenant a p99 5.0",
                "  + tenant a p99 6.5",
                "BENCH_fig01.json: contents differ",
                '  - {"qps": 10}',
                '  + {"qps": 11}',
                "examples/extra: only in the change build",
                "DIFFERENT"):
            self.assertIn(needle, r.stdout)
        # The unchanged second line of the example is not reported.
        self.assertNotIn("done", r.stdout)

    def test_missing_build_tree_is_an_error(self):
        r = run_tool("compare_outputs.py", REPO / "no-such-build",
                     REPO / "no-such-build")
        self.assertEqual(r.returncode, 2, r.stdout + r.stderr)

    def fake_driver(self, path: pathlib.Path, *, req_per_s: str,
                    moved_p99: str = "5.0", failed: str = "0") -> None:
        """A benchmark driver printing one result line per run.

        It refuses any argv but the one the tool must pass. Seed 1009
        of sls_rmc1_drift_migrate reports @p moved_p99 as its
        lat_hi.p99_us, and rmc1_tier_functional @p failed failures.
        """
        result = json.dumps({"failed": "FAILED", "end_to_end": {
            "lat_hi.p99_us": {"value": "P99", "unit": "us"},
            "sat_qps": {"value": 700.5, "unit": "samples/s"},
            "sim_req_per_s": {"value": float(req_per_s), "unit": "req/s"},
        }}).replace('"FAILED"', "$failed").replace('"P99"', "$p99")
        self.script(path, f"""\
[ "$1 $3 $5 $6 $7 $8" = "--workload --seed --seconds 1 --trace 0" ] || exit 3
p99=5.0
failed=0
[ "$2 $4" = "sls_rmc1_drift_migrate 1009" ] && p99={moved_p99}
[ "$2" = rmc1_tier_functional ] && failed={failed}
echo "serving $2"
cat <<EOF
{result}
EOF
""")

    def compare_drivers(self, change_kwargs: dict):
        with tempfile.TemporaryDirectory() as td:
            parent = pathlib.Path(td) / "parent" / "rmssd_perf"
            change = pathlib.Path(td) / "change" / "rmssd_perf"
            self.fake_driver(parent, req_per_s="7000")
            self.fake_driver(change, req_per_s="9000", **change_kwargs)
            return run_tool("compare_outputs.py", "--perf", parent,
                            change, "--jobs", "2")

    def test_perf_drivers_agreeing_on_simulated_metrics_pass(self):
        # Only the host-noisy sim_req_per_s differs: printed, not a
        # finding.
        r = self.compare_drivers({})
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        self.assertIn("compared 8 benchmark runs per side", r.stdout)
        self.assertIn("sls_rmc2_cold seed 1009: sim_req_per_s 7000 -> 9000",
                      r.stdout)
        self.assertIn("identical", r.stdout)

    def test_perf_reports_moved_metric_and_failures(self):
        r = self.compare_drivers({"moved_p99": "6.5", "failed": "2"})
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
        for needle in (
                "sls_rmc1_drift_migrate seed 1009: lat_hi.p99_us "
                "5.0 -> 6.5",
                "rmc1_tier_functional seed 1: change failed 2 operations",
                "rmc1_tier_functional seed 1009: change failed 2 "
                "operations",
                "DIFFERENT"):
            self.assertIn(needle, r.stdout)
        # The unmoved seed of the same workload is not reported.
        self.assertNotIn("sls_rmc1_drift_migrate seed 1: lat_hi", r.stdout)

    def test_perf_driver_must_be_executable(self):
        r = run_tool("compare_outputs.py", "--perf", REPO / "no-such-driver",
                     REPO / "no-such-driver")
        self.assertEqual(r.returncode, 2, r.stdout + r.stderr)

    def racing_driver(self, path: pathlib.Path, log: pathlib.Path,
                      req_per_s: list[float], setup_s: list[float], *,
                      exit_on_call: int = 0, failed_on_call: int = 0) -> None:
        """A driver whose k-th call reports the k-th values given.

        Each call appends its side and argv to @p log. Call
        @p exit_on_call (1-based) exits 1; call @p failed_on_call
        reports 2 failed operations.
        """
        lines = [
            '[ "$1 $3 $5 $7 $8" = "--workload --seed --seconds --trace 0" ]'
            " || exit 3",
            'dir=$(dirname "$0")',
            'n=$(cat "$dir/calls" 2>/dev/null || echo 0)',
            'n=$((n + 1))',
            'echo $n > "$dir/calls"',
            f'echo "{path.parent.name} $2 $4 $6" >> {log}',
            f'[ $n = {exit_on_call} ] && exit 1',
            f'failed=0; [ $n = {failed_on_call} ] && failed=2',
        ]
        for i, (rps, setup) in enumerate(zip(req_per_s, setup_s), 1):
            lines.append(f"[ $n = {i} ] && rps={rps} && setup={setup}")
        result = ('{"failed": $failed, "end_to_end": {'
                  '"lat_hi.p99_us": {"value": 5.0, "unit": "us"}, '
                  '"sim_req_per_s": {"value": $rps, "unit": "req/s"}, '
                  '"setup_s": {"value": $setup, "unit": "s"}, '
                  '"peak_rss_mb": {"value": 20.5, "unit": "MB"}}}')
        lines += ['echo "serving $2"', f"echo '{result}' | "
                  "sed \"s/\\$failed/$failed/;s/\\$rps/$rps/;"
                  "s/\\$setup/$setup/\""]
        self.script(path, "\n".join(lines) + "\n")

    def race(self, parent: dict, change: dict, *args: str):
        with tempfile.TemporaryDirectory() as td:
            root = pathlib.Path(td)
            log = root / "order.log"
            drivers = []
            for side, kwargs in (("parent", parent), ("change", change)):
                driver = root / side / "rmssd_perf"
                self.racing_driver(driver, log, **kwargs)
                drivers.append(driver)
            r = run_tool("compare_outputs.py", "--perf", *drivers, *args)
            order = log.read_text().splitlines() if log.exists() else []
            return r, order

    def test_pairs_alternate_and_report_medians_and_wins(self):
        r, order = self.race(
            {"req_per_s": [100, 110, 120, 130],
             "setup_s": [0.5, 0.5, 0.5, 0.5]},
            {"req_per_s": [150, 90, 200, 160],
             "setup_s": [0.4, 0.6, 0.4, 0.4]},
            "--pairs", "4", "--workload", "sls_rmc2_cold",
            "--seconds", "2.5", "--seed", "7")
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        # Parent first in odd pairs, change first in even ones, and
        # every run gets the workload, seed and seconds asked for.
        sides = ["parent", "change", "change", "parent",
                 "parent", "change", "change", "parent"]
        self.assertEqual(order, [f"{side} sls_rmc2_cold 7 2.5"
                                 for side in sides])
        for needle in (
                "sls_rmc2_cold pair 1 (parent first): sim_req_per_s "
                "100 -> 150, setup_s 0.5 -> 0.4",
                "sls_rmc2_cold pair 2 (change first): sim_req_per_s "
                "110 -> 90, setup_s 0.5 -> 0.6",
                "sls_rmc2_cold sim_req_per_s: median 115 -> 155 "
                "(1.348x), IQR 15 -> 35, change higher in 3 of 4 pairs",
                "sls_rmc2_cold setup_s: median 0.5 -> 0.4 (0.800x), "
                "IQR 0 -> 0.05, change lower in 3 of 4 pairs",
                "sls_rmc2_cold peak_rss_mb: median 20.5 -> 20.5 (1.000x), "
                "IQR 0 -> 0, change lower in 0 of 4 pairs"):
            self.assertIn(needle, r.stdout)

    def test_pairs_race_every_workload_by_default(self):
        values = {"req_per_s": [100] * 8, "setup_s": [0.5] * 8}
        r, order = self.race(values, values, "--pairs", "1",
                             "--seconds", "1")
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        self.assertEqual(len(order), 8)
        for workload in ("serve_rmc1_x4_cached", "sls_rmc2_cold",
                         "sls_rmc1_drift_migrate", "rmc1_tier_functional"):
            self.assertIn(f"parent {workload} 1 1", order)
            self.assertIn(f"{workload} sim_req_per_s: median 100 -> 100",
                          r.stdout)

    def test_pairs_failed_run_exits_nonzero(self):
        values = {"req_per_s": [100] * 3, "setup_s": [0.5] * 3}
        r, _ = self.race(values, dict(values, exit_on_call=2),
                         "--pairs", "3", "--workload", "sls_rmc2_cold")
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
        self.assertIn("sls_rmc2_cold pair 2: change driver failed: "
                      "exit status 1", r.stdout)
        # The failed pair is left out of the medians and win counts.
        self.assertIn("change higher in 0 of 2 pairs", r.stdout)

        r, _ = self.race(dict(values, failed_on_call=1), values,
                         "--pairs", "1", "--workload", "sls_rmc2_cold")
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
        self.assertIn("sls_rmc2_cold pair 1: parent failed 2 operations",
                      r.stdout)

    def test_pairs_need_perf(self):
        r = run_tool("compare_outputs.py", REPO, REPO, "--pairs", "2")
        self.assertEqual(r.returncode, 2, r.stdout + r.stderr)

    GOLDENS = sorted((REPO / "bench" / "goldens").glob("BENCH_*.json"))
    FIGURES = [g.name[len("BENCH_"):-len(".json")] for g in GOLDENS]

    def figure_tree(self, root: pathlib.Path, log: pathlib.Path, *,
                    slow: str = "", wrong: str = "",
                    missing: str = "") -> pathlib.Path:
        """One fake binary per golden figure, like a build tree's bench/.

        Each logs its side, name and argv to @p log and copies its
        golden into the working directory. Figure @p slow sleeps 0.3 s
        first, figure @p wrong writes another dump, and figure
        @p missing is not built.
        """
        for golden, fig in zip(self.GOLDENS, self.FIGURES):
            if fig == missing:
                continue
            body = f'echo "{root.name} {fig} $*" >> {log}\n'
            if fig == slow:
                body += "sleep 0.3\n"
            body += (f"echo '{{}}' > {golden.name}\n" if fig == wrong
                     else f"cp {golden} .\n")
            self.script(root / "bench" / fig, body)
        return root

    def race_figures(self, parent: dict, change: dict, *args: str):
        with tempfile.TemporaryDirectory() as td:
            root = pathlib.Path(td)
            log = root / "order.log"
            trees = [self.figure_tree(root / side, log, **kwargs)
                     for side, kwargs in (("parent", parent),
                                          ("change", change))]
            r = run_tool("compare_outputs.py", "--figures", *trees, *args)
            order = log.read_text().splitlines() if log.exists() else []
            return r, order

    def test_figures_race_alternates_and_checks_goldens(self):
        r, order = self.race_figures({"slow": "fig14_locality"}, {},
                                     "--pairs", "2")
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        # Every figure once per side and pair, one after another, with
        # the microbenchmarks skipped; parent first in odd pairs.
        runs = {side: [f"{side} {fig} --benchmark_filter=NONE_"
                       for fig in self.FIGURES]
                for side in ("parent", "change")}
        self.assertEqual(order, runs["parent"] + runs["change"] +
                         runs["change"] + runs["parent"])
        self.assertIn("figures pair 1 (parent first): total ", r.stdout)
        self.assertIn("figures pair 2 (change first): total ", r.stdout)
        # The parent's sleep loses it fig14 and the total, every pair.
        for label in ("fig14_locality", "total"):
            self.assertRegex(
                r.stdout, rf"{label} wall_s: median [0-9.e-]+ -> "
                rf"[0-9.e-]+ \([0-9.]+x\), IQR [0-9.e-]+ -> [0-9.e-]+, "
                rf"change lower in 2 of 2 pairs")
        for fig in self.FIGURES:
            self.assertIn(f"{fig} wall_s: median ", r.stdout)
        self.assertIn("goldens identical", r.stdout)

    def test_figures_race_reports_a_dump_off_its_golden(self):
        r, _ = self.race_figures({}, {"wrong": "fig19_tiering"},
                                 "--pairs", "1")
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
        self.assertIn("pair 1 change: fig19_tiering: "
                      "BENCH_fig19_tiering.json differs from bench/goldens",
                      r.stdout)
        self.assertNotIn("pair 1 parent:", r.stdout)
        self.assertIn("DIFFERENT", r.stdout)

    def test_figures_race_needs_every_figure_binary(self):
        r, order = self.race_figures({}, {"missing": "fig12_throughput"})
        self.assertEqual(r.returncode, 2, r.stdout + r.stderr)
        self.assertIn("change: no bench/fig12_throughput", r.stderr)
        self.assertEqual(order, [])



class HostprofSymbolizeTest(unittest.TestCase):
    """symbolize() on a stripped library: dynamic symbols only."""

    def setUp(self):
        spec = importlib.util.spec_from_file_location(
            "hostprof", TOOLS / "hostprof" / "hostprof.py")
        self.hostprof = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(self.hostprof)
        # No static symbols (stripped); two exported functions.
        table = [(0x1000, 0x1040, "memcpy@@GLIBC_2.14"),
                 (0x2000, 0x2010, "lookup@GLIBC_2.2.5")]
        self.hostprof.symbols = (
            lambda obj, dynamic: table if dynamic else [])

    def test_names_exported_and_unnamed_regions(self):
        names = self.hostprof.symbolize(
            "libfake.so", [0x10, 0x1000, 0x103f, 0x1040, 0x2008, 0x2400])
        self.assertEqual(names, [
            "??", "memcpy@@GLIBC_2.14", "memcpy@@GLIBC_2.14",
            "?? (after memcpy@@GLIBC_2.14)", "lookup@GLIBC_2.2.5",
            "?? (after lookup@GLIBC_2.2.5)"])

    def test_hottest_addresses_per_unnamed_region(self):
        addrs = ([0x2400] * 5 + [0x2480] * 3 + [0x2500] +
                 [0x1050] * 2 + [0x1000] * 9)
        names = self.hostprof.symbolize("libfake.so", addrs)
        regions = self.hostprof.unnamed_hot_addresses(names, addrs, 2)
        self.assertEqual(regions, [
            ("?? (after lookup@GLIBC_2.2.5)", 9,
             [(0x2400, 5), (0x2480, 3)]),
            ("?? (after memcpy@@GLIBC_2.14)", 2, [(0x1050, 2)])])


class HostprofTest(unittest.TestCase):
    """read_samples() and report() on fake three-field sample lines."""

    def setUp(self):
        spec = importlib.util.spec_from_file_location(
            "hostprof", TOOLS / "hostprof" / "hostprof.py")
        self.hostprof = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(self.hostprof)
        table = [(0x1000, 0x1040, "memcpy@@GLIBC_2.14"),
                 (0x2000, 0x2010, "lookup@GLIBC_2.2.5")]
        self.hostprof.symbols = (
            lambda obj, dynamic: table if dynamic else [])
        self.tmp = tempfile.TemporaryDirectory()
        # Two runs: pid 100 with threads 103 and 107, pid 200 with 201.
        runs = {
            "a": ["libfake.so\t1000\t100"] * 3 +
                 ["libfake.so\t2008\t107"] * 2 +
                 ["libfake.so\t1010\t103", "?\t1\t107", "?\t2",
                  "=pid\t100", "=cpu_ns\t6000000"],
            "b": ["libfake.so\t1000\t200", "libfake.so\t2008\t201",
                  "=pid\t200", "=cpu_ns\t2000000"],
        }
        self.paths = []
        for name, lines in runs.items():
            path = pathlib.Path(self.tmp.name) / name
            path.write_text("\n".join(lines) + "\n")
            self.paths.append(path)

    def tearDown(self):
        self.tmp.cleanup()

    def test_names_threads_by_role(self):
        by_object, unplaced, cpu_ns = self.hostprof.read_samples(self.paths)
        self.assertEqual(by_object["libfake.so"], [
            (0x1000, "main"), (0x1000, "main"), (0x1000, "main"),
            (0x2008, "thread 2"), (0x2008, "thread 2"),
            (0x1010, "thread 1"),
            (0x1000, "main"), (0x2008, "thread 1")])
        self.assertEqual(unplaced, {"thread 2": 1, None: 2})
        self.assertEqual(cpu_ns, 8000000)

    def test_reports_each_threads_share_and_functions(self):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            self.hostprof.report(self.paths, top=5)
        text = out.getvalue()
        # 11 samples: main 4, thread 1 2 (pooled over both runs),
        # thread 2 3 (one unplaced), 2 past the buffer.
        self.assertIn("per thread (main: the thread whose tid is the pid)\n"
                      "   36.36 %         4  main\n"
                      "   45.45 %         5  other threads (2)\n"
                      "     27.27 %         3  thread 2\n"
                      "     18.18 %         2  thread 1\n", text)
        self.assertIn("top 10 functions of main (self time)\n"
                      "   36.36 %         4  memcpy@@GLIBC_2.14  "
                      "[libfake.so]\n", text)
        self.assertIn("top 10 functions of other threads (2) (self time)\n"
                      "   27.27 %         3  lookup@GLIBC_2.2.5  "
                      "[libfake.so]\n"
                      "    9.09 %         1  memcpy@@GLIBC_2.14  "
                      "[libfake.so]\n", text)


if __name__ == "__main__":
    unittest.main(verbosity=2)
