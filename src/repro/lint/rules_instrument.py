"""SL3xx: instrumentation-hygiene rules.

``docs/observability.md`` fixes two grammars: metric names are dotted
lowercase paths rooted at a component instance name (``node3.nic.crc_drops``,
``router(1,2).packets``), and event kinds are ``<layer>.<what>`` literals
(``nic.delivered``, ``bus.write``).  A component declares its metrics once,
in a class-level ``METRICS`` table of ``(leaf, kind)`` rows, and registers
itself with ``hub.register(self)``; the registry names each metric
``<owner name>.<leaf>`` on read.  Analysis code resolves both grammars
purely by name, so a leaf that drifts from the grammar (or a counter
constructed outside the hub) silently disappears from every dashboard
and JSONL export.  These rules keep names statically auditable; they
read the tables, one-off registrations and emit sites the project graph
indexes.
"""

import ast
import re

from repro.lint.astutil import dotted_name
from repro.lint.engine import Rule
from repro.lint.project import METRIC_TABLE_NAME, is_hub_register

_LEAF_RE = re.compile(r"^[a-z][a-z0-9_]*$")
_FULL_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)+$")
_EVENT_KIND_RE = re.compile(r"^[a-z][a-z0-9_]*\.[a-z][a-z0-9_]*$")

_METRIC_CLASSES = {"Counter", "TimeSeries", "Histogram"}
_METRIC_KINDS = {"counter", "timeseries", "histogram", "probe"}


class OrphanMetricRule(Rule):
    """SL301: metric handles that do not come from the registry.

    ``Counter``/``TimeSeries``/``Histogram`` objects built directly are
    invisible to the registry: no name, no snapshot, no checkpoint.
    Components must register through ``Instrumentation.of(sim)`` --
    direct construction is reserved for the primitives' home modules
    (``sim/trace.py``, ``sim/instrument.py``).  ``hub.register(self)``
    returns one handle per non-probe row of the class's ``METRICS``
    table, in table order: a class without a table, or an unpacking
    whose target count differs from those rows, binds a handle to the
    wrong metric or to none.
    """

    code = "SL301"
    title = "metric handle that does not come from the registry"
    skip_path_suffixes = ("repro/sim/trace.py", "repro/sim/instrument.py")

    def check(self, graph):
        yield from super().check(graph)
        for info in graph.classes.values():
            if self.applies_to(info.module):
                yield from self._registrations(graph, info)

    def check_module(self, module):
        imported = set()
        for node in module.nodes:
            if isinstance(node, ast.ImportFrom) and node.module and (
                node.module.endswith("sim.trace")
                or node.module.endswith("sim.instrument")
            ):
                for alias in node.names:
                    if alias.name in _METRIC_CLASSES:
                        imported.add(alias.asname or alias.name)
        for node in module.nodes:
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name is None:
                continue
            leaf = name.split(".")[-1]
            if leaf in _METRIC_CLASSES and (
                name in imported or "." in name or leaf in imported
            ):
                yield self.finding(
                    module, node,
                    "orphan %s(...) construction; declare it in the class's "
                    "%s table and register with hub.register(self) so the "
                    "metric is named, snapshotted and checkpointed"
                    % (leaf, METRIC_TABLE_NAME),
                )

    def _registrations(self, graph, info):
        targets = {}  # register(self) call -> its unpacking target, or None
        for method in info.methods.values():
            for node in ast.walk(method):  # an Assign comes before its value
                if isinstance(node, ast.Assign) and is_hub_register(
                        node.value):
                    targets[node.value] = node.targets[0]
                elif is_hub_register(node):
                    targets.setdefault(node, None)
        if not targets:
            return
        table = graph.metric_table(info)
        if table is None:
            yield self.finding(
                info.module, next(iter(targets)),
                "%s registers itself but no class on its MRO declares a %s "
                "table" % (info.name, METRIC_TABLE_NAME),
            )
            return
        handles = sum(1 for row in table if row.kind != "probe")
        for call, target in targets.items():
            if (isinstance(target, (ast.Tuple, ast.List))
                    and len(target.elts) != handles):
                yield self.finding(
                    info.module, call,
                    "register(self) unpacked into %d handles, but the %s "
                    "table has %d non-probe rows: each handle must line up "
                    "with its row" % (len(target.elts), METRIC_TABLE_NAME,
                                      handles),
                )


class MetricNameGrammarRule(Rule):
    """SL302: metric names must be statically auditable and grammatical.

    A ``METRICS`` table is a literal tuple of ``(leaf, kind)`` string
    pairs: the leaf is a lowercase identifier (the greppable part of
    every name the registry builds from it) and the kind one of
    counter, timeseries, histogram or probe.  A one-off registration
    (``hub.counter("dsm.faults")``) names its metric with a literal or a
    module-level literal constant of lowercase dotted segments.
    """

    code = "SL302"
    title = "metric name not statically auditable / violates grammar"

    def check(self, graph):
        for site in graph.metric_sites:
            if self.applies_to(site.module):
                message = self._problem(site)
                if message:
                    yield self.finding(site.module, site.node, message)

    @staticmethod
    def _problem(site):
        if site.method == METRIC_TABLE_NAME:
            if site.leaf is None or site.kind is None:
                return ("%s rows must be literal (leaf, kind) string pairs "
                        "in a literal tuple" % METRIC_TABLE_NAME)
            if not _LEAF_RE.match(site.leaf):
                return ("metric leaf %r violates the namespace grammar (one "
                        "lowercase segment, see docs/observability.md)"
                        % site.leaf)
            if site.kind not in _METRIC_KINDS:
                return "metric kind %r is not one of %s" % (
                    site.kind, ", ".join(sorted(_METRIC_KINDS)))
            return None
        if site.name is None:
            return ("one-off metric name is not a literal; analysis code "
                    "cannot grep for it (declare a %s row on the owning "
                    "class, or name it with a literal)" % METRIC_TABLE_NAME)
        if not _FULL_NAME_RE.match(site.name):
            return ("metric name %r violates the namespace grammar "
                    "(lowercase dotted segments, see docs/observability.md)"
                    % site.name)
        return None


class EventKindLiteralRule(Rule):
    """SL303: event kinds must be grammar-valid literals.

    ``hub.emit(source, kind, ...)`` kinds are the vocabulary analysis
    subscribes to; a computed kind cannot be cross-checked against
    docs/observability.md.  Accepted forms: a string literal, a
    module-level constant bound to a literal, or a subscript into a
    module-level dict whose values are all literal kinds.
    """

    code = "SL303"
    title = "event kind is not a grammar-valid string literal"

    def check(self, graph):
        for site in graph.emit_sites:
            if not self.applies_to(site.module):
                continue
            if site.kinds is None:
                yield self.finding(
                    site.module, site.node,
                    "event kind must be a string literal (or module-level "
                    "literal constant/table); computed kinds cannot be "
                    "audited against the event vocabulary",
                )
                continue
            for value in site.kinds:
                if not _EVENT_KIND_RE.match(value):
                    yield self.finding(
                        site.module, site.node,
                        "event kind %r violates the <layer>.<what> grammar"
                        % value,
                    )


RULES = (OrphanMetricRule(), MetricNameGrammarRule(), EventKindLiteralRule())
