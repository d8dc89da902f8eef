#!/usr/bin/env python3
"""Self-tests for the repo's static-analysis tooling.

Runs tools/lint_units.py, tools/lint_determinism.py,
tools/lint_reachability.py and tools/diff_bench.py against fixtures
with KNOWN findings (tests/lint_fixtures/ plus generated JSON dumps)
and asserts both the exit codes and the findings text. A lint that silently stops seeing a
hazard class fails CI here instead of slipping through review.

Registered with ctest as ``lint_tools`` (see tests/CMakeLists.txt);
also runnable directly: ``python3 tests/test_lint_tools.py``.
"""

from __future__ import annotations

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

    def test_repo_sources_are_clean(self):
        r = run_tool("lint_determinism.py")
        self.assertEqual(r.returncode, 0, r.stdout)


class LintReachabilityTest(unittest.TestCase):
    def test_flags_test_only_header_and_reasonless_marker(self):
        r = run_tool("lint_reachability.py", "--root",
                     FIXTURES / "reachability")
        self.assertEqual(r.returncode, 1, r.stdout)
        self.assertIn("src/core/orphan.h: no includer", r.stdout)
        self.assertIn("src/core/bad_marker.h: entry-point marker has "
                      "no reason", r.stdout)
        # Reached by bench/, by a same-directory include, or marked
        # with a reason: none of these may be flagged.
        for ok in ("used.h", "sibling.h", "entry.h"):
            self.assertNotIn(f"src/core/{ok}", r.stdout)
        self.assertEqual(
            sum(l.startswith("  ") for l in r.stdout.splitlines()), 2,
            f"expected exactly 2 findings:\n{r.stdout}")

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


if __name__ == "__main__":
    unittest.main(verbosity=2)
