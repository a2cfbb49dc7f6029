"""SL10xx: vocabulary-drift rules (whole-program).

``repro.analysis.vocabulary`` is the single machine-readable table of
every event kind the tree emits and every metric-name leaf it registers
(``docs/observability.md`` is its prose twin).  Drift happens in both
directions: a new subsystem emits ``dsm.recall`` but nobody adds the
vocabulary row (the event is invisible to dashboards and docs), or a
refactor deletes the last emitter of ``nic.kernel_msg`` and the table
keeps documenting behavior that no longer exists.  These rules close the
loop over the :class:`~repro.lint.project.ProjectGraph`:

- **SL1001** -- every statically resolvable ``hub.emit`` kind and every
  literal metric-registration leaf in sim scope must appear in the
  vocabulary tables.  Sites whose kind/leaf cannot be resolved are the
  business of SL303/SL302 and are skipped here.
- **SL1002** -- every vocabulary entry must have at least one emitter or
  registration.  Proving an entry *dead* requires seeing every site, so
  the check stays silent for a table as soon as one in-scope site is
  dynamic (e.g. the fault controller's lazy per-kind counters).

Both rules are silent when the linted set contains no vocabulary module
at all (a subtree or fixture run without ``repro.analysis.vocabulary``
has nothing to drift against).
"""

from repro.lint.engine import Rule
from repro.lint.project import EVENT_VOCAB_NAME, METRIC_VOCAB_NAME


class OrphanVocabularyRule(Rule):
    """SL1001: emitted event kind or registered metric leaf missing from
    the central vocabulary.

    An orphan emitter works at runtime but is invisible everywhere that
    matters: ``docs/observability.md`` never documents it, dashboards
    built from the vocabulary never chart it, and the next engineer
    greps the table and concludes it does not exist.  The fix is one
    line in ``repro.analysis.vocabulary`` saying what the kind means.
    """

    code = "SL1001"
    title = "event kind / metric leaf missing from the vocabulary"

    def check(self, graph):
        if graph.event_vocab:
            for site in graph.emit_sites:
                if site.kinds is None or not self.applies_to(site.module):
                    continue  # unresolvable kinds are SL303's business
                for kind in site.kinds:
                    if kind not in graph.event_vocab:
                        yield self.finding(
                            site.module, site.node,
                            "event kind %r is emitted here but missing from "
                            "%s in the vocabulary module; add a row saying "
                            "what it means (docs/observability.md mirrors "
                            "that table)" % (kind, EVENT_VOCAB_NAME),
                        )
        if graph.metric_vocab:
            for site in graph.metric_sites:
                if site.leaf is None or not self.applies_to(site.module):
                    continue  # dynamic names are SL302's business
                if site.leaf not in graph.metric_vocab:
                    yield self.finding(
                        site.module, site.node,
                        "metric leaf %r is registered here (%s) but missing "
                        "from %s in the vocabulary module; add a row saying "
                        "what it counts" % (
                            site.leaf, site.method, METRIC_VOCAB_NAME,
                        ),
                    )


class DeadVocabularyRule(Rule):
    """SL1002: vocabulary entry that nothing in the tree emits/registers.

    Dead vocabulary is documentation of behavior that no longer exists;
    readers and dashboards trust the table, so a stale row is an active
    lie.  Delete the row, or restore the emitter it used to describe.
    Silent for a table when any in-scope site is dynamic: proving an
    entry dead requires accounting for every site.
    """

    code = "SL1002"
    title = "dead vocabulary entry: no emitter or registration"

    def check(self, graph):
        yield from self._dead(
            graph, graph.event_vocab, self._emitted_kinds(graph),
            "event kind %r has a vocabulary row but no emitter anywhere "
            "in the tree; delete the row or restore the emitter",
        )
        yield from self._dead(
            graph, graph.metric_vocab, self._registered_leaves(graph),
            "metric leaf %r has a vocabulary row but no registration "
            "anywhere in the tree; delete the row or restore it",
        )

    def _emitted_kinds(self, graph):
        """All statically known emitted kinds, or None if any in-scope
        site is unresolvable (deadness then cannot be proven)."""
        kinds = set()
        for site in graph.emit_sites:
            if not self.applies_to(site.module):
                continue
            if site.kinds is None:
                return None
            kinds.update(site.kinds)
        return kinds

    def _registered_leaves(self, graph):
        leaves = set()
        for site in graph.metric_sites:
            if not self.applies_to(site.module):
                continue
            if site.leaf is None:
                return None
            leaves.add(site.leaf)
        return leaves

    def _dead(self, graph, vocab, used, template):
        if not vocab or used is None:
            return
        for value in sorted(vocab):
            if value in used:
                continue
            entry = vocab[value]
            if not self.applies_to(entry.module):
                continue
            yield self.finding(entry.module, entry.node, template % value)


RULES = (OrphanVocabularyRule(), DeadVocabularyRule())
