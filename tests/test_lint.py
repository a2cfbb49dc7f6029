"""simlint: the fixture corpus, suppressions, baselines, CLI contract.

The corpus under ``tests/lint_fixtures/`` is one bad/good pair per rule
code.  Each bad fixture must trigger *exactly* its own rule; each good
fixture must be clean across **all** rules -- so the corpus stays honest
documentation of both what a rule catches and what the compliant idiom
looks like.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.lint import all_rules, apply_baseline, baseline_payload, run_rules
from repro.lint.cli import main
from repro.lint.engine import ParsedModule

FIXTURES = Path(__file__).parent / "lint_fixtures"

ALL_CODES = [
    "SL101", "SL102", "SL103", "SL104", "SL105",
    "SL201", "SL202", "SL203",
    "SL301", "SL302", "SL303",
    "SL401", "SL402", "SL403",
    "SL501",
    "SL701",
    "SL801",
    "SL901", "SL902", "SL903", "SL904",
    "SL1001", "SL1002",
    "SL1101", "SL1102",
]


def lint_paths(*paths, select=None):
    findings, suppressed = run_rules(
        [str(p) for p in paths], all_rules(), select
    )
    return findings, suppressed


# -- registry ----------------------------------------------------------------


def test_registry_covers_every_code_exactly_once():
    codes = [rule.code for rule in all_rules()]
    # Numeric order, not lexicographic: SL1001 sorts after SL903.
    assert codes == sorted(codes, key=lambda code: int(code[2:]))
    assert codes == ALL_CODES


def test_every_rule_documents_itself():
    for rule in all_rules():
        assert rule.title, rule.code
        assert (type(rule).__doc__ or "").strip(), rule.code


# -- the fixture corpus ------------------------------------------------------


@pytest.mark.parametrize("code", ALL_CODES)
def test_bad_fixture_triggers_only_its_rule(code):
    path = FIXTURES / ("bad_%s.py" % code.lower())
    findings, _ = lint_paths(path)
    assert findings, "bad fixture for %s produced no findings" % code
    assert {f.code for f in findings} == {code}


@pytest.mark.parametrize("code", ALL_CODES)
def test_good_fixture_is_clean_across_all_rules(code):
    path = FIXTURES / ("good_%s.py" % code.lower())
    findings, _ = lint_paths(path)
    assert findings == []


def test_fixture_corpus_is_complete():
    names = {p.name for p in FIXTURES.glob("*.py")}
    expected = {"bad_%s.py" % c.lower() for c in ALL_CODES} | {
        "good_%s.py" % c.lower() for c in ALL_CODES
    }
    assert names == expected


def test_directory_walk_skips_the_fixture_corpus():
    findings, _ = lint_paths(Path(__file__).parent)
    assert not any("lint_fixtures" in f.path for f in findings)


def test_sl501_names_only_live_datapath_callables():
    """Every name SL501 guards is a callable on a datapath class, so the
    rule cannot go stale when a datapath method is renamed or removed."""
    from repro.lint.rules_faults import _DATAPATH_CALLABLES
    from repro.mesh.backplane import Backplane
    from repro.mesh.link import Link
    from repro.mesh.router import Router
    from repro.nic.fifo import PacketFifo

    datapath = (PacketFifo, Link, Router, Backplane)
    stale = sorted(
        name for name in _DATAPATH_CALLABLES
        if not any(callable(getattr(cls, name, None)) for cls in datapath)
    )
    assert stale == []


# -- scoping -----------------------------------------------------------------


def test_sim_rules_do_not_fire_outside_sim_scope(tmp_path):
    bad = (FIXTURES / "bad_sl101.py").read_text()
    unscoped = tmp_path / "helper.py"
    unscoped.write_text(bad.replace("# simlint: scope=sim\n", ""))
    findings, _ = lint_paths(unscoped)
    assert findings == []


def test_scope_pragma_opts_a_file_into_sim_rules(tmp_path):
    scoped = tmp_path / "helper.py"
    scoped.write_text((FIXTURES / "bad_sl101.py").read_text())
    findings, _ = lint_paths(scoped)
    assert [f.code for f in findings] == ["SL101"]


# -- suppressions ------------------------------------------------------------


def _one_liner_violation():
    return (
        "# simlint: scope=sim\n"
        "import random{trailing}\n"
    )


def test_trailing_ignore_suppresses(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(_one_liner_violation().format(
        trailing="  # simlint: ignore[SL101] fixture"))
    findings, suppressed = lint_paths(path)
    assert findings == [] and suppressed == 1


def test_ignore_above_the_line_suppresses(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(
        "# simlint: scope=sim\n"
        "# simlint: ignore[SL101] two-line justification that would not\n"
        "# fit in a trailing comment\n"
        "import random\n"
    )
    findings, suppressed = lint_paths(path)
    assert findings == [] and suppressed == 1


def test_bare_ignore_suppresses_every_code(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(_one_liner_violation().format(
        trailing="  # simlint: ignore"))
    findings, suppressed = lint_paths(path)
    assert findings == [] and suppressed == 1


def test_ignore_with_wrong_code_does_not_suppress(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(_one_liner_violation().format(
        trailing="  # simlint: ignore[SL102] deliberately wrong code"))
    findings, suppressed = lint_paths(path)
    assert [f.code for f in findings] == ["SL101"] and suppressed == 0


def test_reasonless_coded_ignore_is_flagged(tmp_path):
    """A coded suppression is a claim and must say why (SL001)."""
    path = tmp_path / "mod.py"
    path.write_text(_one_liner_violation().format(
        trailing="  # simlint: ignore[SL101]"))
    findings, suppressed = lint_paths(path)
    assert [f.code for f in findings] == ["SL001"] and suppressed == 1
    assert "no justification" in findings[0].message


def test_ignore_file_suppresses_for_the_whole_file(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(
        "# simlint: scope=sim\n"
        "# simlint: ignore-file[SL101] generated workload table\n"
        "import random\n"
        "from random import randrange\n"
    )
    findings, suppressed = lint_paths(path)
    assert findings == [] and suppressed == 2


# -- baseline workflow -------------------------------------------------------


def test_baseline_absorbs_known_findings_only():
    findings, _ = lint_paths(FIXTURES / "bad_sl101.py")
    baseline = baseline_payload(findings)
    assert baseline["counts"]["total"] == 1

    # Same findings again: all baselined, nothing new, nothing stale.
    findings, _ = lint_paths(FIXTURES / "bad_sl101.py")
    new, stale = apply_baseline(findings, baseline)
    assert new == [] and stale == []
    assert all(f.baselined for f in findings)

    # A different violation is NEW even with the baseline applied.
    findings, _ = lint_paths(FIXTURES / "bad_sl101.py",
                             FIXTURES / "bad_sl102.py")
    new, _ = apply_baseline(findings, baseline)
    assert [f.code for f in new] == ["SL102"]


def test_baseline_reports_stale_entries():
    findings, _ = lint_paths(FIXTURES / "bad_sl101.py")
    baseline = baseline_payload(findings)
    new, stale = apply_baseline([], baseline)
    assert new == []
    assert len(stale) == 1 and "SL101" in stale[0]


def test_fingerprint_is_line_independent(tmp_path):
    path = tmp_path / "mod.py"
    body = "# simlint: scope=sim\nimport random\n"
    path.write_text(body)
    first, _ = lint_paths(path)
    baseline = baseline_payload(first)
    # Shift the finding down two lines: still baselined.
    path.write_text("# simlint: scope=sim\n\n\nimport random\n")
    second, _ = lint_paths(path)
    new, stale = apply_baseline(second, baseline)
    assert new == [] and stale == []


# -- the checked-in repository state -----------------------------------------


def test_repository_tree_is_lint_clean():
    """The tentpole acceptance gate: zero findings over src and tests."""
    findings, _ = lint_paths(Path("src"), Path("tests"))
    assert findings == [], "\n".join(repr(f) for f in findings)


def test_checked_in_baseline_is_empty_and_current():
    payload = json.loads(Path("LINT_baseline.json").read_text())
    assert payload["version"] == 1
    assert payload["counts"]["total"] == 0
    assert payload["findings"] == {}


# -- CLI contract ------------------------------------------------------------


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "repro.lint", *args],
        capture_output=True, text=True, timeout=120, cwd=cwd,
    )


def test_cli_exit_zero_on_clean_tree():
    result = run_cli("src", "tests")
    assert result.returncode == 0, result.stdout + result.stderr
    assert "0 new" in result.stdout


def test_cli_exit_one_on_findings():
    result = run_cli(str(FIXTURES / "bad_sl104.py"), "--no-baseline")
    assert result.returncode == 1
    assert "SL104" in result.stdout


def test_cli_exit_two_on_usage_error():
    assert run_cli("no/such/path.py").returncode == 2
    assert run_cli("src", "--select", "SL999").returncode == 2


def test_cli_json_report():
    result = run_cli(str(FIXTURES / "bad_sl105.py"), "--no-baseline",
                     "--format=json")
    assert result.returncode == 1
    payload = json.loads(result.stdout)
    assert payload["tool"] == "simlint"
    assert payload["summary"]["by_code"] == {"SL105": 2}
    assert payload["summary"]["new"] == 2
    assert all(f["code"] == "SL105" for f in payload["findings"])


def test_cli_select_restricts_rules():
    result = run_cli(str(FIXTURES / "bad_sl104.py"), "--no-baseline",
                     "--select", "SL105")
    assert result.returncode == 0


def test_cli_write_baseline_roundtrip(tmp_path):
    fixture = tmp_path / "mod.py"
    fixture.write_text((FIXTURES / "bad_sl101.py").read_text())
    baseline = tmp_path / "base.json"

    result = run_cli(str(fixture), "--baseline", str(baseline),
                     "--write-baseline")
    assert result.returncode == 0
    payload = json.loads(baseline.read_text())
    assert payload["counts"]["total"] == 1

    # With the written baseline the same findings no longer fail.
    result = run_cli(str(fixture), "--baseline", str(baseline))
    assert result.returncode == 0
    assert "1 baselined" in result.stdout

    # Fixing the violation makes the baseline entry stale -- and a stale
    # baseline FAILS the run, forcing a refresh so the checked-in file
    # always matches reality.
    fixture.write_text("# simlint: scope=sim\n")
    result = run_cli(str(fixture), "--baseline", str(baseline))
    assert result.returncode == 1
    assert "stale baseline entry" in result.stdout


def test_cli_list_rules_and_explain(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for code in ALL_CODES:
        assert code in out
    assert main(["--explain", "SL201"]) == 0
    assert "ckpt_capture" in capsys.readouterr().out
    assert main(["--explain", "SL999"]) == 2


# -- engine details ----------------------------------------------------------


def test_syntax_error_is_a_finding_not_a_crash(tmp_path):
    path = tmp_path / "broken.py"
    path.write_text("def f(:\n")
    findings, _ = lint_paths(path)
    assert [f.code for f in findings] == ["SL000"]


def test_parsed_module_scope_inference():
    assert ParsedModule("src/repro/os/kernel.py", "").scope == "sim"
    assert ParsedModule("benchmarks/bench_simspeed.py", "").scope == "other"
