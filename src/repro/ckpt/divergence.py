"""The replay-divergence detector: prove a restore is bit-for-bit exact.

A checkpoint is only trustworthy if resuming it is *indistinguishable*
from never having paused.  This module provides the evidence:

- :func:`fingerprint` -- a compact digest of everything observable about
  a run: simulated clock, executed-event count, every instrumentation
  metric (the sorted JSONL snapshot), and a SHA-256 over each node's
  DRAM.
- :func:`diff_fingerprints` / :func:`diff_states` -- structural diffs
  that name exactly *where* two runs or two state trees disagree.
- :func:`verify_replay` -- restore the same snapshot twice, run both to
  completion, and require identical fingerprints *and* identical
  re-captured state documents (compared by payload digest).  Any
  nondeterminism in the restore path -- misordered descriptors, unstable
  iteration order, state that escaped capture -- shows up here.

``tests/test_ckpt.py`` additionally pins the resumed fingerprint against
the uninterrupted run's, anchored to the golden traces of
``tests/test_golden_trace.py``.
"""

from repro.ckpt import fmt
from repro.ckpt.system import SystemCheckpoint


def fingerprint(system):
    """A JSON-safe digest of every observable of a run."""
    return {
        "now": system.sim.now,
        "event_count": system.sim.event_count,
        "metrics": list(system.instrumentation.metrics_jsonl()),
        "memory_sha256": [node.memory.sha256() for node in system.nodes],
    }


def diff_fingerprints(a, b, label_a="a", label_b="b"):
    """Human-readable differences between two fingerprints (empty = equal)."""
    problems = []
    for key in ("now", "event_count"):
        # A pinned fingerprint may leave the event count out.
        if a.get(key) != b.get(key):
            problems.append(
                "%s: %s=%r, %s=%r"
                % (key, label_a, a.get(key), label_b, b.get(key))
            )
    metrics_a, metrics_b = a["metrics"], b["metrics"]
    if metrics_a != metrics_b:
        only_a = sorted(set(metrics_a) - set(metrics_b))
        only_b = sorted(set(metrics_b) - set(metrics_a))
        for line in only_a[:10]:
            problems.append("metric only in %s: %s" % (label_a, line))
        for line in only_b[:10]:
            problems.append("metric only in %s: %s" % (label_b, line))
        if not (only_a or only_b):
            problems.append("metrics differ in order")
    mem_a, mem_b = a["memory_sha256"], b["memory_sha256"]
    if len(mem_a) != len(mem_b):
        problems.append(
            "node count: %s=%d, %s=%d"
            % (label_a, len(mem_a), label_b, len(mem_b))
        )
    else:
        for node_id, (da, db) in enumerate(zip(mem_a, mem_b)):
            if da != db:
                problems.append(
                    "node %d memory: %s=%s.., %s=%s.."
                    % (node_id, label_a, da[:12], label_b, db[:12])
                )
    return problems


def diff_states(a, b, path="state", limit=20):
    """Structural diff of two JSON-safe state trees.

    Returns up to ``limit`` dotted-path difference descriptions; an empty
    list means the trees are identical.  Used by the ``diff`` CLI command
    to localize what changed between two checkpoint files.
    """
    problems = []

    def walk(x, y, at):
        if len(problems) >= limit:
            return
        if type(x) is not type(y):
            problems.append(
                "%s: type %s != %s" % (at, type(x).__name__, type(y).__name__)
            )
            return
        if isinstance(x, dict):
            for key in sorted(set(x) | set(y)):
                if key not in x:
                    problems.append("%s.%s: only in second" % (at, key))
                elif key not in y:
                    problems.append("%s.%s: only in first" % (at, key))
                else:
                    walk(x[key], y[key], "%s.%s" % (at, key))
                if len(problems) >= limit:
                    return
        elif isinstance(x, list):
            if len(x) != len(y):
                problems.append(
                    "%s: length %d != %d" % (at, len(x), len(y))
                )
                return
            for index, (xi, yi) in enumerate(zip(x, y)):
                walk(xi, yi, "%s[%d]" % (at, index))
                if len(problems) >= limit:
                    return
        elif x != y:
            problems.append("%s: %r != %r" % (at, x, y))

    walk(a, b, path)
    return problems


def verify_replay(state, run=None):
    """Restore ``state`` twice, run both, and demand identical outcomes.

    ``run`` is called on each restored system (default: run the event
    queue to idle).  Returns a list of divergence descriptions -- empty
    means replay is deterministic: equal fingerprints and byte-identical
    re-captured state documents.
    """
    if run is None:
        def run(system):
            system.sim.run_until_idle()

    first = SystemCheckpoint.restore(state)
    run(first)
    second = SystemCheckpoint.restore(state)
    run(second)

    problems = diff_fingerprints(
        fingerprint(first), fingerprint(second), "first", "second"
    )
    recapture_first = SystemCheckpoint.capture(first)
    recapture_second = SystemCheckpoint.capture(second)
    if fmt.payload_digest(recapture_first) != fmt.payload_digest(
        recapture_second
    ):
        problems.append("re-captured state documents differ:")
        problems.extend(diff_states(recapture_first, recapture_second))
    return problems
