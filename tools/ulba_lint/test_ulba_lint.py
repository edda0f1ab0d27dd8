#!/usr/bin/env python3
"""Tests for ulba_lint: every rule fires on its fixture, clean files stay
clean, inline/baseline suppressions are honored, the JSON report
round-trips, and the CLI exit codes hold.  Registered with ctest as
`test_lint_fixtures`; runs under plain `python3 -m unittest` too."""

import json
import os
import re
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import ulba_lint  # noqa: E402

FIXTURES = os.path.join(HERE, "fixtures")
LINT = os.path.join(HERE, "ulba_lint.py")
REPO = ulba_lint.REPO_ROOT


def lint(paths, **kwargs):
    files = ulba_lint.gather_files(paths)
    return ulba_lint.lint_files(files, **kwargs)


def fixture(name):
    return os.path.join(FIXTURES, name)


class RuleFiresOnFixture(unittest.TestCase):
    """Each of the six rules demonstrably fires on its fixture file."""

    def assert_rule_fires(self, fixture_name, rule, expected_lines):
        _, findings = lint([fixture(fixture_name)])
        hits = [f for f in findings if f.rule == rule]
        self.assertEqual(
            sorted(f.line for f in hits), sorted(expected_lines),
            f"{rule} findings in {fixture_name}: "
            f"{[(f.line, f.message) for f in findings]}")
        # No *other* rule may fire on a single-rule fixture (cross-rule
        # noise would make the fixtures useless as regression anchors) —
        # except codec fixtures, whose memcpys legitimately double-fire.

    def test_rng_discipline(self):
        self.assert_rule_fires("rng_discipline_bad.cpp", "rng-discipline",
                               [9, 15, 19, 20])

    def test_unordered_iteration(self):
        self.assert_rule_fires("unordered_iteration_bad.cpp",
                               "unordered-iteration", [19, 25, 33])

    def test_codec_discipline(self):
        _, findings = lint([fixture("codec_discipline_bad.cpp")])
        rules = {f.rule for f in findings}
        self.assertEqual(rules, {"codec-discipline"})
        messages = "\n".join(f.message for f in findings)
        self.assertIn("no format-version marker", messages)
        self.assertIn("never guards a read", messages)
        self.assertIn("raw memcpy", messages)

    def test_lock_discipline(self):
        self.assert_rule_fires("lock_discipline_bad.cpp", "lock-discipline",
                               [22, 24, 29])

    def test_tag_discipline(self):
        self.assert_rule_fires("tag_discipline_bad.cpp", "tag-discipline",
                               [19, 20, 21])

    def test_time_discipline(self):
        self.assert_rule_fires("time_discipline_bad.cpp", "time-discipline",
                               [11, 13])

    def test_declarations_are_not_tag_call_sites(self):
        _, findings = lint([fixture("tag_discipline_bad.cpp")])
        flagged = {f.line for f in findings}
        self.assertNotIn(30, flagged,
                         "vector declaration mistaken for a send() call")


class CleanFileStaysClean(unittest.TestCase):
    def test_zero_findings(self):
        _, findings = lint([fixture("clean.cpp")])
        self.assertEqual(
            [], [(f.line, f.rule, f.message) for f in findings])


class Suppressions(unittest.TestCase):
    def test_inline_allow_is_honored(self):
        sources, findings = lint([fixture("suppressed.cpp")])
        ulba_lint.apply_suppressions(findings, sources, [])
        by_line = {f.line: f for f in findings}
        self.assertEqual(by_line[11].suppressed, "inline")
        self.assertEqual(by_line[16].suppressed, "inline")
        self.assertIsNone(by_line[20].suppressed)

    def test_baseline_is_honored(self):
        sources, findings = lint([fixture("suppressed.cpp")])
        rel = os.path.relpath(fixture("suppressed.cpp"),
                              REPO).replace(os.sep, "/")
        entries = [{"rule": "rng-discipline", "path": rel,
                    "contains": "still a finding", "reason": "test entry",
                    "_used": False}]
        ulba_lint.apply_suppressions(findings, sources, entries)
        by_line = {f.line: f for f in findings}
        self.assertEqual(by_line[20].suppressed, "baseline")
        self.assertTrue(entries[0]["_used"])

    def test_reasonless_baseline_is_rejected(self):
        with tempfile.NamedTemporaryFile("w", suffix=".json",
                                         delete=False) as f:
            json.dump({"suppressions": [{
                "rule": "rng-discipline", "path": "x.cpp",
                "contains": "rand", "reason": "  "}]}, f)
            path = f.name
        try:
            with self.assertRaises(ulba_lint.LintError):
                ulba_lint.load_baseline(path)
        finally:
            os.unlink(path)

    def test_checked_in_baseline_entries_all_carry_reasons(self):
        entries = ulba_lint.load_baseline(ulba_lint.DEFAULT_BASELINE)
        for entry in entries:
            self.assertTrue(str(entry["reason"]).strip())


class AllowedPaths(unittest.TestCase):
    def test_every_allowlisted_path_exists(self):
        # A stale entry would silently exempt whatever file later reuses the
        # name, so each pattern must still match a file under src/.
        rel_paths = []
        for root, _, names in os.walk(os.path.join(REPO, "src")):
            for name in names:
                rel_paths.append(os.path.relpath(
                    os.path.join(root, name), REPO).replace(os.sep, "/"))
        for rule, patterns in ulba_lint.RULE_ALLOWED_PATHS.items():
            for pattern in patterns:
                self.assertTrue(
                    any(re.search(pattern, p) for p in rel_paths),
                    f"{rule}: allowlisted path {pattern!r} matches no file "
                    "under src/")

    def test_virtual_time_layers_read_no_clock(self):
        # The erosion app, the LB, the core model, the BSP machine and the
        # SPMD runtime run in virtual time only: no file there, present or
        # future, may be exempt from time-discipline.
        for layer in ("erosion", "lb", "core", "bsp", "runtime"):
            rel_dir = f"src/{layer}"
            rel_paths = [f"{rel_dir}/any_new_file.cpp"]
            for root, _, names in os.walk(os.path.join(REPO, rel_dir)):
                for name in names:
                    rel_paths.append(os.path.relpath(
                        os.path.join(root, name), REPO).replace(os.sep, "/"))
            for rel in rel_paths:
                self.assertFalse(
                    ulba_lint.path_allowed("time-discipline", rel),
                    f"{rel} is exempt from time-discipline")


class JsonReport(unittest.TestCase):
    def test_round_trip(self):
        out = os.path.join(tempfile.mkdtemp(), "findings.json")
        proc = subprocess.run(
            [sys.executable, LINT, "--no-baseline", "--json", out,
             fixture("rng_discipline_bad.cpp")],
            capture_output=True, text=True)
        self.assertEqual(proc.returncode, 1)
        with open(out, encoding="utf-8") as f:
            report = json.load(f)
        self.assertEqual(report["tool"], "ulba-lint")
        self.assertEqual(report["summary"]["total"],
                         len(report["findings"]))
        self.assertEqual(report["summary"]["blocking"], 4)
        for obj in report["findings"]:
            finding = ulba_lint.Finding.from_json(obj)
            self.assertEqual(finding.to_json(), obj)


class CliContract(unittest.TestCase):
    def run_lint(self, *args):
        return subprocess.run([sys.executable, LINT, *args],
                              capture_output=True, text=True)

    def test_clean_file_exits_zero(self):
        self.assertEqual(
            self.run_lint("--no-baseline", fixture("clean.cpp")).returncode,
            0)

    def test_findings_exit_one(self):
        self.assertEqual(
            self.run_lint("--no-baseline",
                          fixture("time_discipline_bad.cpp")).returncode, 1)

    def test_unknown_rule_exits_two(self):
        self.assertEqual(
            self.run_lint("--rules", "no-such-rule",
                          fixture("clean.cpp")).returncode, 2)

    def test_missing_path_exits_two(self):
        self.assertEqual(
            self.run_lint("/no/such/path.cpp").returncode, 2)

    def test_src_is_clean_under_the_checked_in_baseline(self):
        proc = self.run_lint(os.path.join(REPO, "src"))
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn("0 blocking", proc.stdout)
        # A stale entry would silently exempt any later line reusing its
        # text, so every checked-in entry must still match a finding.
        self.assertNotIn("baseline entry no longer matches anything",
                         proc.stdout)


class FunctionDiscovery(unittest.TestCase):
    def test_function_discovery_finds_the_fixture_functions(self):
        sources, _ = lint([fixture("lock_discipline_bad.cpp")])
        names = {fn.name for fn in sources[0].functions}
        self.assertLessEqual(
            {"bare_lock_pair", "send_under_lock", "recv_outside_lock"},
            names)


if __name__ == "__main__":
    unittest.main()
