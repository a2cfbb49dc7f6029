"""SL3xx: instrumentation-hygiene rules.

``docs/observability.md`` fixes two grammars: metric names are dotted
lowercase paths rooted at a component instance name (``node3.nic.crc_drops``,
``router(1,2).packets``), and event kinds are ``<layer>.<what>`` literals
(``nic.delivered``, ``bus.write``).  Analysis code resolves both purely
by name, so a dynamically-built name that drifts from the grammar (or a
counter constructed outside the hub) silently disappears from every
dashboard and JSONL export.  These rules keep names statically auditable.
SL302 and SL303 read the metric and emit sites the project graph indexes.
"""

import ast
import re

from repro.lint.astutil import dotted_name
from repro.lint.engine import Rule

# Fully literal metric names: allow the router/link coordinate vocabulary
# (parentheses, commas, ->) plus %-placeholders for formatted coordinates.
_FULL_NAME_RE = re.compile(r"^[a-z0-9_.(),>%-]+\.[a-z][a-z0-9_]*$")
_EVENT_KIND_RE = re.compile(r"^[a-z][a-z0-9_]*\.[a-z][a-z0-9_]*$")

_METRIC_CLASSES = {"Counter", "TimeSeries", "Histogram"}


class OrphanMetricRule(Rule):
    """SL301: metric primitives constructed outside the hub.

    ``Counter``/``TimeSeries``/``Histogram`` objects built directly are
    invisible to the registry: no name, no snapshot, no checkpoint.
    Components must register through ``Instrumentation.of(sim)`` --
    direct construction is reserved for the primitives' home modules
    (``sim/trace.py``, ``sim/instrument.py``).
    """

    code = "SL301"
    title = "orphan metric construction outside the instrumentation hub"
    skip_path_suffixes = ("repro/sim/trace.py", "repro/sim/instrument.py")

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
                    "orphan %s(...) construction; register through "
                    "Instrumentation.of(sim).%s(name) so the metric is "
                    "named, snapshotted and checkpointed" % (leaf, leaf.lower()),
                )


class MetricNameGrammarRule(Rule):
    """SL302: metric names must be statically auditable and grammatical.

    A registration's name argument must resolve to either a fully literal
    dotted name, or a dynamic owner prefix plus a *literal leaf*
    (``self.name + ".crc_drops"``): the leaf is what analysis code greps
    for.  Literal parts must stay inside the namespace grammar (lowercase
    dotted segments; parentheses/commas/arrows for mesh coordinates).
    """

    code = "SL302"
    title = "metric name not statically auditable / violates grammar"

    def check(self, graph):
        for site in graph.metric_sites:
            if self.applies_to(site.module):
                message = self._problem(site.shape)
                if message:
                    yield self.finding(site.module, site.node, message)

    @staticmethod
    def _problem(shape):
        if shape is None:
            return (
                "metric name expression is not statically analyzable; "
                "use a literal, owner + '.leaf' concatenation, or "
                "%-formatted literal skeleton"
            )
        if not any(kind == "lit" for kind, _ in shape):
            return (
                "metric name has no literal part; analysis code cannot "
                "grep for it (give it a literal leaf segment)"
            )
        last_kind, last_text = shape[-1]
        if last_kind != "lit" or "." not in last_text:
            return (
                "metric name must end in a literal '.leaf' segment "
                "(the metric leaf is the greppable contract)"
            )
        joined = "".join(text if kind == "lit" else "x" for kind, text in shape)
        if not _FULL_NAME_RE.match(joined):
            return (
                "metric name %r violates the namespace grammar "
                "(lowercase dotted segments, see docs/observability.md)"
                % "".join(
                    text if kind == "lit" else "<dyn>" for kind, text in shape
                )
            )
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
