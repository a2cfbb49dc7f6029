"""simlint: the fixture corpus, suppressions, CLI contract.

The corpus under ``tests/lint_fixtures/`` is one bad/good pair per rule
code, plus SL201's base/subclass and bad-row pairs.  Each bad fixture
must trigger *exactly* its own rule; each good fixture must be clean
across **all** rules -- so the corpus stays honest documentation of
both what a rule catches and what the compliant idiom looks like.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.lint import all_rules, run_rules
from repro.lint.cli import main
from repro.lint.engine import ParsedModule, iter_python_files

FIXTURES = Path(__file__).parent / "lint_fixtures"

ALL_CODES = [
    "SL101", "SL102", "SL103", "SL104", "SL105",
    "SL201",
    "SL301", "SL302", "SL303",
    "SL402", "SL403",
    "SL501",
    "SL701",
    "SL901", "SL902", "SL904",
    "SL1001", "SL1002",
]

# Case -> (fixture stem, the codes its bad fixture must trigger).  SL002
# is the engine's own unused-suppression check.  SL201's extra pairs
# split the checkpoint table between a base class and a subclass (the
# case of the folded SL1101) and name an attribute nobody assigns.
CORPUS = {code: (code.lower(), {code}) for code in ALL_CODES + ["SL002"]}
CORPUS["SL1101"] = ("sl201_mro", {"SL201"})
CORPUS["SL201_row"] = ("sl201_row", {"SL201"})


def lint_paths(*paths, select=None):
    findings, suppressed = run_rules(
        [str(p) for p in paths], all_rules(), select
    )
    return findings, suppressed


# -- registry ----------------------------------------------------------------


def test_registry_covers_every_code_exactly_once():
    codes = [rule.code for rule in all_rules()]
    # Numeric order, not lexicographic: SL1001 sorts after SL904.
    assert codes == sorted(codes, key=lambda code: int(code[2:]))
    assert codes == ALL_CODES


def test_every_rule_documents_itself():
    for rule in all_rules():
        assert rule.title, rule.code
        assert (rule.__doc__ or "").strip(), rule.code


# -- the fixture corpus ------------------------------------------------------


@pytest.mark.parametrize("code", list(CORPUS))
def test_bad_fixture_triggers_only_its_rule(code):
    stem, expected = CORPUS[code]
    findings, _ = lint_paths(FIXTURES / ("bad_%s.py" % stem))
    assert findings, "bad fixture for %s produced no findings" % code
    assert {f.code for f in findings} == expected


@pytest.mark.parametrize("code", list(CORPUS))
def test_good_fixture_is_clean_across_all_rules(code):
    stem, _ = CORPUS[code]
    findings, _ = lint_paths(FIXTURES / ("good_%s.py" % stem))
    assert findings == []


def test_fixture_corpus_is_complete():
    names = {p.name for p in FIXTURES.glob("*.py")}
    stems = [stem for stem, _ in CORPUS.values()]
    expected = {"bad_%s.py" % s for s in stems} | {
        "good_%s.py" % s for s in stems
    }
    assert names == expected


def test_directory_walk_skips_the_fixture_corpus():
    walked = list(iter_python_files([Path(__file__).parent]))
    assert walked
    assert not any("lint_fixtures" in p.parts for p in walked)


def test_sl501_names_only_live_datapath_callables():
    """Every name SL501 guards is a callable on a datapath class, so the
    rule cannot go stale when a datapath method is renamed or removed."""
    from repro.lint.rules_owner import _DATAPATH_CALLABLES
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
    """The finding stands, and the idle suppression is an SL002."""
    path = tmp_path / "mod.py"
    path.write_text(_one_liner_violation().format(
        trailing="  # simlint: ignore[SL102] deliberately wrong code"))
    findings, suppressed = lint_paths(path)
    assert [f.code for f in findings] == ["SL002", "SL101"]
    assert suppressed == 0


def test_unused_suppression_is_judged_only_when_its_codes_ran(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("x = 1  # simlint: ignore[SL101] nothing to excuse\n")
    assert [f.code for f in lint_paths(path)[0]] == ["SL002"]
    assert lint_paths(path, select={"SL002", "SL102"})[0] == []
    assert [f.code for f in lint_paths(path, select={"SL002", "SL101"})[0]] \
        == ["SL002"]


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


# -- CLI contract ------------------------------------------------------------


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "repro.lint", *args],
        capture_output=True, text=True, timeout=120, cwd=cwd,
    )


def test_repository_tree_is_lint_clean():
    """The repository gate, and the one full-tree lint in the suite:
    the CLI exits 0 with zero findings over src and tests (suppressions
    are the only exception mechanism)."""
    result = run_cli("src", "tests", "--format=json")
    assert result.returncode == 0, result.stdout + result.stderr
    payload = json.loads(result.stdout)
    assert payload["summary"]["total"] == 0
    assert payload["findings"] == [], payload["findings"]


def test_cli_exit_zero_on_clean_tree():
    """A clean input exits 0; the full tree is linted once, above."""
    result = run_cli(str(FIXTURES / "good_sl104.py"))
    assert result.returncode == 0, result.stdout + result.stderr
    assert "0 finding(s)" in result.stdout


def test_cli_exit_one_on_findings():
    result = run_cli(str(FIXTURES / "bad_sl104.py"))
    assert result.returncode == 1
    assert "SL104" in result.stdout


def test_cli_exit_two_on_usage_error():
    assert run_cli("no/such/path.py").returncode == 2
    assert run_cli("src", "--select", "SL999").returncode == 2


def test_cli_json_report():
    result = run_cli(str(FIXTURES / "bad_sl105.py"), "--format=json")
    assert result.returncode == 1
    payload = json.loads(result.stdout)
    assert payload["tool"] == "simlint"
    assert payload["summary"]["by_code"] == {"SL105": 2}
    assert payload["summary"]["total"] == 2
    assert all(f["code"] == "SL105" for f in payload["findings"])


def test_cli_select_restricts_rules():
    result = run_cli(str(FIXTURES / "bad_sl104.py"), "--select", "SL105")
    assert result.returncode == 0


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
    assert ParsedModule("benchmarks/bench_ckpt.py", "").scope == "other"
