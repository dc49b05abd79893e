"""Tests for ``repro lint`` — the AST-based invariant linter.

Each rule family (DET / HOT / ASYNC / WIRE) is exercised against a
positive and a negative fixture under ``tests/lint_fixtures/``; the
fixtures opt into a family with ``# repro-lint: scope=<family>`` markers
(WIRE groups are detected structurally, by a ``protocol.py`` declaring
``OPS``).  The fixtures directory is excluded from directory walks, so
linting ``tests`` stays clean while these tests lint the fixture files
explicitly.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis_lint import (
    ALL_RULES,
    HOT_FILES,
    UsageError,
    all_codes,
    run_lint,
)

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = Path(__file__).resolve().parent / "lint_fixtures"


def lint(*names, select=None):
    return run_lint([FIXTURES / n for n in names], select=select, root=ROOT)


def codes(result) -> set:
    return {f.code for f in result.findings}


# ---------------------------------------------------------------------- DET
class TestDeterminismRule:
    def test_bad_fixture_fires_every_code(self):
        got = codes(lint("det_bad.py"))
        assert {"DET101", "DET102", "DET103", "DET104", "DET105"} <= got

    def test_det101_covers_all_three_rng_forms(self):
        hits = [f for f in lint("det_bad.py").findings if f.code == "DET101"]
        assert len(hits) == 3  # random.*, np.random global, bare default_rng()

    def test_good_fixture_is_clean(self):
        assert lint("det_good.py").clean

    def test_scope_marker_gates_the_family(self):
        # hot_bad.py has no det scope marker: DET must not fire there.
        assert not any(f.family == "DET"
                       for f in lint("hot_bad.py").findings)


# ---------------------------------------------------------------------- HOT
class TestHotPathRule:
    def test_bad_fixture_fires_both_codes(self):
        result = lint("hot_bad.py")
        by_code = [f.code for f in result.findings]
        assert by_code.count("HOT201") == 2  # one for, one while
        assert by_code.count("HOT202") == 1

    def test_good_fixture_is_clean(self):
        assert lint("hot_good.py").clean

    def test_real_hot_files_exist_and_are_clean(self):
        paths = [ROOT / "src" / rel for rel in HOT_FILES]
        assert len(paths) == 6 and all(p.is_file() for p in paths)
        result = run_lint(paths, select=["HOT"], root=ROOT)
        assert result.clean, "\n".join(f.render() for f in result.findings)


# -------------------------------------------------------------------- ASYNC
class TestAsyncSafetyRule:
    def test_bad_fixture_fires_both_codes(self):
        result = lint("async_bad.py")
        by_code = [f.code for f in result.findings]
        assert by_code.count("ASYNC301") == 3  # registry call, json.dump, open
        assert by_code.count("ASYNC302") == 1

    def test_good_fixture_is_clean(self):
        # to_thread wrapping, nested sync defs, and async-with locks are
        # all sanctioned patterns.
        assert lint("async_good.py").clean


# --------------------------------------------------------------------- WIRE
class TestWireProtocolRule:
    def test_bad_group_reports_every_drift_kind(self):
        result = lint("wire_bad/protocol.py", "wire_bad/aserver.py",
                      "wire_bad/client.py")
        assert {"WIRE401", "WIRE402", "WIRE403"} <= codes(result)
        messages = "\n".join(f.message for f in result.findings)
        assert "'query' is declared in OPS but never handled in " \
            "aserver.py" in messages
        assert "'extra'" in messages        # handled but undeclared
        assert "'mystery'" in messages      # unreachable from client
        assert "'undeclared'" in messages   # sent but undeclared

    def test_siblings_load_from_disk(self):
        # Naming only protocol.py still cross-checks the whole group.
        result = lint("wire_bad/protocol.py")
        assert {"WIRE401", "WIRE402", "WIRE403"} <= codes(result)

    def test_good_group_is_clean(self):
        assert lint("wire_good/protocol.py", "wire_good/aserver.py",
                    "wire_good/client.py").clean

    def test_real_service_group_is_clean(self):
        result = run_lint([ROOT / "src/repro/service/protocol.py"],
                          select=["WIRE"], root=ROOT)
        assert result.clean, "\n".join(f.render() for f in result.findings)

    def test_speaker_good_is_clean(self):
        assert lint("wire_speaker_good.py").clean

    def test_speaker_bad_reports_every_drift_kind(self):
        result = lint("wire_speaker_bad.py")
        assert {"WIRE404", "WIRE405"} <= codes(result)
        messages = "\n".join(f.message for f in result.findings)
        assert "'flush'" in messages      # declared, absent from protocol OPS
        assert "'teleport'" in messages   # sent literal unknown to the server
        assert "'query'" in messages      # spoken but not declared
        assert "'ping'" in messages       # declared but never spoken

    def test_speaker_bad_target_is_a_finding(self, tmp_path):
        speaker = tmp_path / "speaker.py"
        speaker.write_text(  # split so this literal is not itself a marker
            "# repro-lint: " + "wire-speaker" + "=nowhere/protocol.py"
            + " ops=ping\n")
        result = run_lint([speaker], select=["WIRE"], root=ROOT)
        assert codes(result) == {"WIRE404"}
        assert "not a readable protocol" in result.findings[0].message

    def test_real_fleet_speaker_is_clean(self):
        result = run_lint([ROOT / "src/repro/distributed/fleet.py"],
                          select=["WIRE"], root=ROOT)
        assert result.clean, "\n".join(f.render() for f in result.findings)


# ------------------------------------------------------------- suppressions
class TestSuppressions:
    def test_reasoned_directives_silence_inline_standalone_and_family(self):
        assert lint("suppressed.py").clean

    def test_reasonless_directive_reports_and_does_not_suppress(self):
        result = lint("suppressed_noreason.py")
        assert codes(result) == {"DET104", "LINT001"}

    def test_parse_error_is_a_finding_not_a_crash(self):
        result = lint("broken_syntax.py")
        assert codes(result) == {"LINT000"}
        assert result.files_scanned == 1


# ----------------------------------------------------------------- registry
class TestRegistry:
    def test_codes_are_unique_and_families_complete(self):
        per_rule = [set(r.codes) for r in ALL_RULES]
        assert len(set().union(*per_rule)) == sum(len(s) for s in per_rule)
        assert set(all_codes()) == set().union(*per_rule)
        assert {r.family for r in ALL_RULES} == {"DET", "HOT", "ASYNC", "WIRE"}

    def test_unknown_selector_is_a_usage_error(self):
        with pytest.raises(UsageError):
            run_lint([FIXTURES / "det_bad.py"], select=["NOPE999"])

    def test_select_filters_to_one_family(self):
        result = lint("det_bad.py", "hot_bad.py", select=["HOT"])
        assert codes(result) == {"HOT201", "HOT202"}


# ------------------------------------------------------------ repo is clean
class TestRepoSelfClean:
    def test_src_lints_clean(self):
        result = run_lint([ROOT / "src"], root=ROOT)
        assert result.clean, "\n".join(f.render() for f in result.findings)

    def test_tests_dir_walk_skips_fixtures_and_lints_clean(self):
        result = run_lint([ROOT / "tests"], root=ROOT)
        assert result.clean, "\n".join(f.render() for f in result.findings)


# ------------------------------------------------------------------ the CLI
def run_cli(*argv, module="repro"):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    cmd = [sys.executable, "-m", module]
    if module == "repro":
        cmd.append("lint")  # the standalone module IS the lint command
    return subprocess.run([*cmd, *argv],
                          capture_output=True, text=True, cwd=ROOT, env=env)


class TestCli:
    def test_exit_0_on_clean(self):
        proc = run_cli("tests/lint_fixtures/det_good.py")
        assert proc.returncode == 0, proc.stderr
        assert "clean" in proc.stdout

    def test_exit_1_on_findings_with_renderable_lines(self):
        proc = run_cli("tests/lint_fixtures/det_bad.py")
        assert proc.returncode == 1
        assert "DET101" in proc.stdout and "det_bad.py:" in proc.stdout

    def test_exit_2_on_missing_path_and_unknown_rule(self):
        assert run_cli("no/such/path.py").returncode == 2
        assert run_cli("src", "--rule", "NOPE999").returncode == 2

    def test_json_schema(self):
        proc = run_cli("tests/lint_fixtures/det_bad.py", "--format", "json")
        assert proc.returncode == 1
        report = json.loads(proc.stdout)
        assert report["version"] == 1
        assert report["tool"] == "repro-lint"
        assert report["clean"] is False
        assert report["files_scanned"] == 1
        assert report["counts"]["DET101"] == 3
        for f in report["findings"]:
            assert set(f) == {"path", "line", "col", "code", "message", "rule"}
            assert f["rule"] == f["code"].rstrip("0123456789")

    def test_rule_filter_flag(self):
        proc = run_cli("tests/lint_fixtures/det_bad.py", "--rule", "DET102",
                       "--format", "json")
        report = json.loads(proc.stdout)
        assert set(report["counts"]) == {"DET102"}

    def test_list_rules(self):
        proc = run_cli("--list-rules")
        assert proc.returncode == 0
        for code in ("DET104", "HOT201", "ASYNC301", "WIRE401"):
            assert code in proc.stdout

    def test_module_entry_points_agree(self):
        via_repro = run_cli("tests/lint_fixtures/det_bad.py")
        standalone = run_cli("tests/lint_fixtures/det_bad.py",
                             module="repro.analysis_lint")
        assert via_repro.returncode == standalone.returncode == 1
        assert via_repro.stdout == standalone.stdout
