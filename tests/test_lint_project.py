"""The project graph, the cross-file rules, and the sanitizer.

The single-file corpus in ``test_lint.py`` proves each rule's bad/good
contract; this module proves the *cross-file* machinery those rules sit
on -- module/import resolution through re-export chains, the C3 MRO,
the vocabulary pin against ``docs/observability.md`` and the
``--sanitize`` runtime companion -- using the miniature package under
``tests/lint_fixtures/projpkg/``.
"""

import io
import re
from pathlib import Path

import pytest

from repro.analysis.vocabulary import EVENT_KINDS
from repro.lint import all_rules, run_rules
from repro.lint.cli import main
from repro.lint.engine import ParsedModule
from repro.lint.project import ProjectGraph
from repro.lint.sanitize import HappensBeforeSanitizer, run_sanitized
from repro.memsys.address import PAGE_SIZE
from repro.scenarios import pin_keys

FIXTURES = Path(__file__).parent / "lint_fixtures"
PROJPKG = FIXTURES / "projpkg"


def _projpkg_paths():
    return sorted(PROJPKG.glob("*.py"))


def _projpkg_graph():
    modules = [
        ParsedModule(path.as_posix(), path.read_text(encoding="utf-8"))
        for path in _projpkg_paths()
    ]
    return ProjectGraph(modules)


def _lint(*paths):
    return run_rules([str(p) for p in paths], all_rules())


# -- the project graph --------------------------------------------------------


def test_module_names_follow_the_init_chain():
    graph = _projpkg_graph()
    assert set(graph.modules) == {
        "projpkg", "projpkg.counters", "projpkg.device", "projpkg.vocab",
    }
    assert graph.modules["projpkg"].is_package
    assert graph.modules["projpkg.device"].package == "projpkg"


def test_resolve_symbol_follows_the_reexport_chain():
    graph = _projpkg_graph()
    # device.py imports BaseCounter from the package __init__, which
    # re-exports it from counters.py (via a *relative* import).
    assert (
        graph.resolve_symbol("projpkg.BaseCounter")
        == "projpkg.counters.BaseCounter"
    )
    info = graph.class_named("projpkg.BaseCounter")
    assert info is not None
    assert info.qualname == "projpkg.counters.BaseCounter"


def test_mro_resolves_bases_across_modules():
    graph = _projpkg_graph()
    device = graph.classes["projpkg.device.TickDevice"]
    assert [c.qualname for c in graph.mro(device)] == [
        "projpkg.device.TickDevice",
        "projpkg.counters.BaseCounter",
    ]


def test_graph_indexes_emit_sites_and_vocabulary():
    graph = _projpkg_graph()
    kinds = set()
    for site in graph.emit_sites:
        assert site.kinds is not None  # all projpkg kinds are literal
        kinds.update(site.kinds)
    assert kinds == {"dev.tick", "dev.orphan"}
    assert set(graph.event_vocab) == {"dev.tick", "dev.dead"}
    assert not graph.metric_vocab


# -- cross-file findings ------------------------------------------------------


def test_projpkg_produces_exactly_the_planted_findings():
    findings, _ = _lint(*_projpkg_paths())
    assert [(f.code, Path(f.path).name) for f in findings] == [
        ("SL201", "device.py"),    # _skips missing from the inherited table
        ("SL1001", "device.py"),   # dev.orphan missing from the table
        ("SL1002", "vocab.py"),    # dev.dead has no emitter
    ]
    # The SL201 finding anchors on the __init__ assignment line, so an
    # inline ignore-with-reason lands exactly where the attribute is born.
    sl201 = findings[0]
    source = (PROJPKG / "device.py").read_text().splitlines()
    assert "_skips = 0" in source[sl201.line - 1]


def test_project_findings_respect_inline_suppressions(tmp_path):
    source = (FIXTURES / "bad_sl201_mro.py").read_text()
    patched = source.replace(
        "self._drops = 0",
        "self._drops = 0  # simlint: ignore[SL201] rebuilt by the wiring",
    )
    path = tmp_path / "mod.py"
    path.write_text(patched)
    findings, suppressed = _lint(path)
    assert findings == [] and suppressed == 1


# -- the vocabulary pin -------------------------------------------------------


def test_event_vocabulary_matches_observability_docs():
    """Every docs table kind exists in EVENT_KINDS and vice versa.

    ``fault.*`` style globs in the docs cover their whole layer; every
    other kind must appear literally on both sides.
    """
    text = Path("docs/observability.md").read_text(encoding="utf-8")
    section = text.split("### Event kind vocabulary")[1].split("\n## ")[0]
    # Only the table rows count -- prose may mention `nic.*` loosely.
    rows = "\n".join(
        line for line in section.splitlines() if line.startswith("|")
    )
    tokens = set(re.findall(r"`([a-z][a-z0-9_]*\.[a-z0-9_*]+)`", rows))
    globs = {t[:-2] for t in tokens if t.endswith(".*")}
    documented = {t for t in tokens if not t.endswith(".*")}
    assert documented <= set(EVENT_KINDS), sorted(
        documented - set(EVENT_KINDS)
    )
    undocumented = {
        kind for kind in EVENT_KINDS
        if kind not in documented and kind.split(".")[0] not in globs
    }
    assert undocumented == set(), sorted(undocumented)


# -- the CLI ------------------------------------------------------------------


def test_cli_explain_covers_the_project_rules(capsys):
    assert main(["--explain", "SL901"]) == 0
    assert "WRITE_OK" in capsys.readouterr().out
    assert main(["--explain", "SL201"]) == 0
    assert "inheritance chain" in capsys.readouterr().out


def test_cli_explain_unknown_code_lists_known_codes(capsys):
    assert main(["--explain", "SL999"]) == 2
    err = capsys.readouterr().err
    assert "unknown rule code: SL999" in err
    assert "known codes:" in err
    for code in ("SL101", "SL201", "SL901", "SL1001"):
        assert code in err


def test_cli_sanitize_unknown_scenario(capsys):
    assert main(["--sanitize", "no_such_scenario"]) == 2
    assert "unknown scenario" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["dsm@seed", "dsm@bogus=1"])
def test_cli_sanitize_bad_key_is_a_usage_error(key, capsys):
    assert main(["--sanitize", key]) == 2
    assert repr(key) in capsys.readouterr().err


def test_cli_sanitize_takes_a_pin_key(capsys):
    assert main(["--sanitize", "dsm@seed=2"]) == 0
    assert "sanitize[dsm@seed=2]: 0 violation(s)" in capsys.readouterr().out


# -- the happens-before sanitizer ---------------------------------------------

FRAME = 992  # the frame the DSM layout maps page 0 to in the scenarios
ADDR = FRAME * PAGE_SIZE


class _Event:
    def __init__(self, kind, source, time=0, **fields):
        self.kind = kind
        self.source = source
        self.time = time
        self.fields = fields


class _StubHub:
    """Just enough of the instrumentation hub to feed the sanitizer."""

    def __init__(self):
        self.callback = None

    def subscribe(self, callback, kinds=None):
        self.callback = callback

    def unsubscribe(self, callback):
        assert callback == self.callback  # bound methods compare by value
        self.callback = None

    def feed(self, *events):
        for event in events:
            self.callback(event)


def _fault(node, write=True, token=1, time=0):
    return _Event("dsm.fault", "dsm", time=time, node=node, page=0,
                  write=write, home=0, frame=FRAME, token=token)


def _push(dst, src=0):
    return _Event("dsm.push", "dsm", src=src, dst=dst, page=0)


def _deposit(node):
    return _Event("bus.write", "node%d.bus" % node, addr=ADDR, words=8,
                  originator="node%d.nic.in" % node, locked=False)


def _grant(node, write=True, token=1, time=0):
    return _Event("dsm.grant", "dsm", time=time, node=node, page=0,
                  write=write, token=token)


def test_sanitizer_accepts_the_contractual_order():
    hub = _StubHub()
    checker = HappensBeforeSanitizer(hub)
    hub.feed(_fault(1), _push(1), _deposit(1), _grant(1))
    assert checker.violations == []
    assert checker.checked_grants == 1 and checker.checked_deposits == 1
    checker.detach()


def test_sanitizer_flags_a_grant_with_no_fault():
    hub = _StubHub()
    checker = HappensBeforeSanitizer(hub)
    # node 0 is the home: only the fault edge applies to its grants.  A
    # repeated grant with the *same* token is the sanctioned home-
    # demotion re-grant; a token no fault ever raised is a violation.
    hub.feed(_fault(0, token=7), _grant(0, token=7), _grant(0, token=7))
    assert checker.violations == []
    hub.feed(_grant(0, token=9))
    assert len(checker.violations) == 1
    assert "no outstanding dsm.fault" in checker.violations[0]


def test_sanitizer_flags_a_doorbell_before_the_data():
    hub = _StubHub()
    checker = HappensBeforeSanitizer(hub)
    hub.feed(_fault(1), _push(1), _grant(1))  # no NIC deposit seen
    assert len(checker.violations) == 1
    assert "no NIC deposit" in checker.violations[0]


def test_sanitizer_flags_an_unexpected_deposit():
    hub = _StubHub()
    checker = HappensBeforeSanitizer(hub)
    hub.feed(_fault(1), _push(1), _deposit(1), _grant(1))
    hub.feed(_deposit(2))  # no fault, no push, not the home
    assert len(checker.violations) == 1
    assert "no fault outstanding" in checker.violations[0]


def test_sanitizer_tracks_the_write_holder():
    hub = _StubHub()
    checker = HappensBeforeSanitizer(hub)
    hub.feed(_fault(1, write=True), _push(1), _deposit(1),
             _grant(1, write=True))
    # The holder may store onto its frame; a bystander may not.
    cpu_store = _Event("bus.write", "node1.bus", addr=ADDR, words=1,
                       originator="node1.cache", locked=False)
    hub.feed(cpu_store)
    assert checker.violations == []
    bystander = _Event("bus.write", "node2.bus", addr=ADDR, words=1,
                       originator="node2.cache", locked=False)
    hub.feed(bystander)
    assert len(checker.violations) == 1
    assert "without the write right" in checker.violations[0]


def _rebuild_start(node, epoch=1, time=0):
    return _Event("dsm.rebuild_start", "dsm", time=time, node=node,
                  epoch=epoch, peers=[])


def _rebuild_done(node, epoch=1, time=0):
    return _Event("dsm.rebuild_done", "dsm", time=time, node=node,
                  epoch=epoch, deferred=0)


def test_sanitizer_checks_rebuild_window_nesting():
    hub = _StubHub()
    checker = HappensBeforeSanitizer(hub)
    hub.feed(_rebuild_start(0, epoch=1), _rebuild_done(0, epoch=1),
             _rebuild_start(0, epoch=2), _rebuild_done(0, epoch=2))
    assert checker.violations == []
    hub.feed(_rebuild_done(0, epoch=3))
    assert "without an open" in checker.violations[0]
    hub.feed(_rebuild_start(0, epoch=4), _rebuild_start(0, epoch=5))
    assert any("nests inside" in v for v in checker.violations)
    hub.feed(_rebuild_done(0, epoch=5), _rebuild_start(0, epoch=5))
    assert any("non-increasing epoch" in v for v in checker.violations)


def test_sanitizer_flags_a_grant_answering_a_mid_rebuild_fault():
    hub = _StubHub()
    checker = HappensBeforeSanitizer(hub)
    # A fault raised *before* the home's rebuild may be granted inside
    # the window: that is the retransmitted pre-crash grant the channel
    # delivers ahead of RECOVER_REQ on the same FIFO.
    hub.feed(_fault(0, token=1, time=10), _rebuild_start(0, time=20),
             _grant(0, token=1, time=30))
    assert checker.violations == []
    # A fault raised after rebuild_start must be deferred, not granted.
    hub.feed(_fault(0, token=2, time=40), _grant(0, token=2, time=50))
    assert len(checker.violations) == 1
    assert "deferred until dsm.rebuild_done" in checker.violations[0]


@pytest.mark.parametrize("key", pin_keys())
def test_sanitize_run_is_clean(key):
    """End to end, on every pinned run: the shipped protocol upholds its
    own happens-before contract, through the home crash, directory
    rebuild and replays of ``dsm_homecrash`` too."""
    out = io.StringIO()
    assert run_sanitized(key, out=out) == 0
    summary = out.getvalue()
    assert "0 violation(s)" in summary
    if key.startswith("dsm"):
        match = re.search(r"(\d+) grant\(s\)", summary)
        assert match and int(match.group(1)) > 0
