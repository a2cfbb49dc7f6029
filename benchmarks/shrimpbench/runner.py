"""The parent side: start child runs one at a time and gather them.

Every (workload, repeat) is a fresh ``python -m
benchmarks.shrimpbench.child`` process with ``PYTHONHASHSEED=0`` and
only the source tree under test on ``PYTHONPATH``; the parent never
imports the simulator.  Only one child runs at a time and a workload is
single-threaded, so the load never exceeds one CPU.

- :func:`run_set` -- repeats round-robin across workloads, then one
  traced run per workload; medians, quartiles, oracle and determinism
  guard per workload.
- :func:`measure` -- one workload, one seed, repeated for a time budget
  (or one traced run); the result line BENCHMARK.json's command prints.
- :func:`ab` -- interleaved pairs of this source tree against a local git
  revision checked out with ``git worktree``, both run by this
  benchmark's code.
"""

import json
import os
import platform
import statistics
import subprocess
import sys
import time

from benchmarks.shrimpbench import layers
from benchmarks.shrimpbench.spec import (ROOT, end_to_end_metrics,
                                         load_benchmark, load_spec)
from benchmarks.shrimpbench.stats import (deterministic_view, pairs_won,
                                          summary, verdict)

SRC = os.path.join(ROOT, "src")
#: The host-measured end-to-end metrics: the fields of a child record
#: that BENCHMARK.json's ``end_to_end`` names.
HOST_METRICS = ("wall_s", "setup_s", "peak_rss_mb")
CHILD_TIMEOUT_S = 150
#: ``measure`` runs at least this many children, so setup_s and wall_s
#: are medians of three.
MIN_CHILDREN = 3
AB_WORKTREE = os.path.join(ROOT, ".shrimpbench-ab")
#: A gain may be claimed from at least this many A/B pairs, 9 in 10 won.
CLAIM_PAIRS = 10


class ChildError(RuntimeError):
    """A child run exited abnormally or printed no record."""


def run_child(workload, seed, trace=False, quick=False, src=SRC):
    """Run one workload once in a fresh process; return its record."""
    cmd = [sys.executable, "-m", "benchmarks.shrimpbench.child",
           "--workload", workload, "--seed", str(seed)]
    if trace:
        cmd.append("--trace")
    if quick:
        cmd.append("--quick")
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=src)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise ChildError("%s seed %d ran past %d s" % (
            workload, seed, CHILD_TIMEOUT_S)) from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildError("%s seed %d exited %d:\n%s" % (
            workload, seed, proc.returncode, proc.stderr[-2000:]))
    return json.loads(lines[-1])


def _guard(records):
    """Descriptions of every record whose deterministic fields differ
    from the first one's; empty when all agree."""
    first = deterministic_view(records[0])
    problems = []
    for index, record in enumerate(records[1:], 1):
        view = deterministic_view(record)
        for key, value in view.items():
            if value != first[key]:
                problems.append("%s run %d: %s %r != %r" % (
                    "traced" if record["traced"] else "untraced", index, key,
                    value, first[key]))
    return problems


def _observables(record, attempted, failed):
    """The deterministic end-to-end metrics of one record."""
    latency = record["latency"] or {}
    return {
        "sim_us": {"value": record["sim_ns"] / 1e3, "unit": "us"},
        "sim_lat_p50_us": {
            "value": latency["p50_ns"] / 1e3 if latency else None,
            "unit": "us", "samples": latency.get("n")},
        "sim_lat_tail_us": {
            "value": latency["tail_ns"] / 1e3 if latency else None,
            "unit": "us", "samples": latency.get("n"),
            "percentile": latency.get("tail_percentile"),
            "beyond": latency.get("beyond_tail")},
        "failed_frac": {"value": failed / attempted, "unit": "ratio",
                        "attempted": attempted, "failed": failed},
    }


def summarize_workload(runs, traced):
    """One workload's result: end-to-end, layer table, guard, raw runs."""
    everything = runs + [traced]
    attempted = sum(r["attempted"] for r in everything)
    failed = sum(r["failed"] for r in everything)
    end_to_end = {}
    for name in HOST_METRICS:
        values = [r[name] for r in runs]
        end_to_end[name] = dict(summary(values), values=values)
    end_to_end.update(_observables(runs[0], attempted, failed))
    return {
        "end_to_end": end_to_end,
        "deterministic": deterministic_view(runs[0]),
        "guard": _guard(everything),
        "layers": layers.layer_table(traced, runs),
        "runs": runs,
        "traced": traced,
    }


def _host():
    return {"cpus": os.cpu_count(), "python": platform.python_version(),
            "machine": platform.machine()}


def run_set(workloads, seed, repeats, quick=False, log=None):
    """Repeats round-robin across workloads, then one traced run each."""
    spec = load_spec()
    runs = {name: [] for name in workloads}
    for repeat in range(repeats):
        for name in workloads:
            runs[name].append(run_child(name, seed, quick=quick))
            if log:
                log("%s repeat %d: %.2f s" % (name, repeat + 1,
                                              runs[name][-1]["wall_s"]))
    result = {"schema": 1, "host": _host(), "seed": seed,
              "repeats": repeats, "quick": quick, "workloads": {}}
    for name in workloads:
        traced = run_child(name, seed, trace=True, quick=quick)
        if log:
            log("%s traced: %.2f s" % (name, traced["wall_s"]))
        entry = summarize_workload(runs[name], traced)
        entry["params"] = spec["workloads"][name][
            "quick_params" if quick else "params"]
        result["workloads"][name] = entry
    result["ok"] = all(
        not entry["guard"] and entry["end_to_end"]["failed_frac"]["value"] == 0
        for entry in result["workloads"].values())
    return result


def measure(workload, seed, seconds, trace, benchmark):
    """One BENCHMARK.json run: the result object its command prints.

    Untraced, children run back to back until the next one would end
    more than half a child past ``seconds`` (at least
    :data:`MIN_CHILDREN`); the metrics are their medians.  Traced, one
    child reports ``benchmark["per_layer"]``.
    """
    if trace:
        record = run_child(workload, seed, trace=True)
        table = layers.layer_table(record)
        records = [record]
        metrics = {m["name"]: {"value": table[m["name"]], "unit": m["unit"]}
                   for m in benchmark["per_layer"]}
    else:
        records = []
        start = time.perf_counter()
        while True:
            records.append(run_child(workload, seed))
            elapsed = time.perf_counter() - start
            per_child = elapsed / len(records)
            if (len(records) >= MIN_CHILDREN
                    and elapsed + per_child / 2 > seconds):
                break
        metrics = {
            m["name"]: {"value": statistics.median(r[m["name"]]
                                                   for r in records),
                        "unit": m["unit"]}
            for m in benchmark["end_to_end"]}
    failed = sum(r["failed"] for r in records)
    return {
        "correct": failed == 0 and not _guard(records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": failed,
        "metrics": metrics,
    }


def compare(parent, change, benchmark=None, spec=None):
    """Rows of (workload, metric, verdict, model_changed, parent, change)
    for every workload present in both result files."""
    if (parent["seed"], parent["quick"]) != (change["seed"], change["quick"]):
        raise ValueError("compare needs two runs of the same seed and size")
    rows = []
    for name, a in parent["workloads"].items():
        b = change["workloads"].get(name)
        if b is None:
            continue
        model_changed = a["deterministic"] != b["deterministic"]
        for metric in end_to_end_metrics(benchmark, spec):
            key = metric["name"]
            ea, eb = a["end_to_end"][key], b["end_to_end"][key]
            if "values" in ea:
                va, vb = ea["values"], eb["values"]
            elif ea["value"] is None or eb["value"] is None:
                continue
            else:
                va, vb = [ea["value"]], [eb["value"]]
            rows.append({
                "workload": name, "metric": key, "unit": metric["unit"],
                "bound": metric["bound"],
                "verdict": verdict(va, vb, metric["better"], metric["bound"]),
                "model_changed": model_changed,
                "parent": summary(va), "change": summary(vb),
            })
    return rows


def _remove_worktree():
    subprocess.run(["git", "worktree", "remove", "--force", AB_WORKTREE],
                   cwd=ROOT, capture_output=True)


def _add_worktree(rev):
    _remove_worktree()  # left behind by an interrupted run, if any
    subprocess.run(["git", "worktree", "add", "--detach", AB_WORKTREE, rev],
                   cwd=ROOT, check=True, capture_output=True)


def ab(rev, workloads, pairs, seed, benchmark=None, log=None):
    """Interleaved pairs: this tree's ``src`` against ``rev``'s."""
    benchmark = benchmark or load_benchmark()
    sides = {name: {"parent": [], "change": []} for name in workloads}
    _add_worktree(rev)
    try:
        srcs = {"parent": os.path.join(AB_WORKTREE, "src"), "change": SRC}
        for pair in range(pairs):
            order = ("parent", "change") if pair % 2 == 0 else \
                ("change", "parent")
            for name in workloads:
                for side in order:
                    sides[name][side].append(
                        run_child(name, seed, src=srcs[side]))
                if log:
                    log("pair %d %s: parent %.2f s, change %.2f s" % (
                        pair + 1, name, sides[name]["parent"][-1]["wall_s"],
                        sides[name]["change"][-1]["wall_s"]))
    finally:
        _remove_worktree()
    result = {"schema": 1, "host": _host(), "rev": rev, "seed": seed,
              "pairs": pairs, "workloads": {}}
    for name, runs in sides.items():
        views = [deterministic_view(r) for r in runs["parent"] + runs["change"]]
        failed = {side: sum(r["failed"] for r in runs[side])
                  for side in runs}
        entry = {"model_changed": any(v != views[0] for v in views),
                 "failed": failed, "metrics": {}}
        for metric in benchmark["end_to_end"]:
            key = metric["name"]
            pv = [r[key] for r in runs["parent"]]
            cv = [r[key] for r in runs["change"]]
            p, c = summary(pv), summary(cv)
            won = pairs_won(pv, cv, metric["better"])
            entry["metrics"][key] = {
                "parent": p, "change": c, "won": won,
                "verdict": verdict(pv, cv, metric["better"], metric["bound"]),
                "claim": (pairs >= CLAIM_PAIRS and won >= 0.9
                          and failed["change"] <= failed["parent"]
                          and abs(c["median"] - p["median"])
                          > p["q3"] - p["q1"]),
            }
        result["workloads"][name] = entry
    return result
