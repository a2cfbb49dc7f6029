"""Medians, quartiles and the verdict rules used by ``compare`` and ``ab``.

A host-measured metric is summarised as its median with the first and
third quartiles (``statistics.quantiles(values, n=4)``) and ``n``.  Its
*spread* is the quartile distance as a share of the median.

``verdict`` applies the benchmark's rule for one (workload, metric) row:

- worse / better: the change's median moved past the bound, in the
  metric's bad / good direction;
- unchanged: it stayed within the bound;
- unresolved: the parent's own spread is wider than the bound, so the
  runs cannot tell -- unless every run of the change reads better than
  every run of the parent, which is ``better``.

A bound of 0 means any move counts.
"""

import statistics

#: The record fields that must repeat exactly for one (code, seed).
DETERMINISTIC_KEYS = ("events", "sim_ns", "registry_sha256", "latency",
                      "gen_late_p99_ns", "attempted", "failed")


def summary(values):
    """``{"median", "q1", "q3", "n"}`` of a non-empty sequence."""
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def spread(stats):
    """Quartile distance as a share of the median (0 for a 0 median)."""
    if not stats["median"]:
        return 0.0
    return (stats["q3"] - stats["q1"]) / abs(stats["median"])


def _worsening(parent, change, better):
    """How much worse ``change`` reads than ``parent``: relative to the
    parent, or absolute when the parent is 0; negative is better."""
    delta = change - parent if better == "lower" else parent - change
    return delta / abs(parent) if parent else delta


def verdict(parent_values, change_values, better, bound):
    """Classify one (workload, metric) row; see the module docstring."""
    parent = summary(parent_values)
    change = summary(change_values)
    if spread(parent) > bound:
        if better == "lower":
            clear = max(change_values) < min(parent_values)
        else:
            clear = min(change_values) > max(parent_values)
        return "better" if clear else "unresolved"
    worse_by = _worsening(parent["median"], change["median"], better)
    if worse_by > bound:
        return "worse"
    if worse_by < -bound:
        return "better"
    return "unchanged"


def deterministic_view(record):
    """The fields of a child record that one (code, seed) fixes."""
    return {key: record.get(key) for key in DETERMINISTIC_KEYS}


def pairs_won(parent_values, change_values, better):
    """Fraction of A/B pairs the change won; ties count for neither."""
    wins = 0
    for parent, change in zip(parent_values, change_values):
        if _worsening(parent, change, better) < 0:
            wins += 1
    return wins / len(parent_values)
