"""shrimpbench command line.

    python -m benchmarks.shrimpbench run [--seed N] [--repeats R] [--quick]
    python -m benchmarks.shrimpbench compare PARENT.json CHANGE.json
    python -m benchmarks.shrimpbench ab REV [--pairs N] [--seed N]
    python -m benchmarks.shrimpbench measure --workload W --seed N
                                             --seconds S --trace 0|1

``run`` prints every end-to-end metric by name and unit for each
workload, then the per-layer table, and writes one result JSON.
``compare`` gives each (workload, metric) row a verdict.  ``ab`` runs
interleaved pairs against a local git revision.  ``measure`` is the
single-workload command BENCHMARK.json names; its last stdout line is
one JSON result object.
"""

import argparse
import json
import os
import sys

from benchmarks.shrimpbench import runner
from benchmarks.shrimpbench.layers import LAYER_METRICS
from benchmarks.shrimpbench.spec import (BENCH_DIR, end_to_end_metrics,
                                         load_benchmark, load_spec)

RESULTS_DIR = os.path.join(BENCH_DIR, "results")


def _log(message):
    print(message, file=sys.stderr, flush=True)


def _fmt(value):
    if value is None:
        return "n/a"
    if isinstance(value, int):
        return str(value)
    return "%.4g" % value


def _cell(entry):
    if "median" in entry:
        return "%s [%s-%s]" % (_fmt(entry["median"]), _fmt(entry["q1"]),
                               _fmt(entry["q3"]))
    return _fmt(entry["value"])


def _table(header, rows):
    widths = [max(len(str(row[i])) for row in [header] + rows)
              for i in range(len(header))]
    for row in [header] + rows:
        print("  ".join(str(cell).ljust(width)
                        for cell, width in zip(row, widths)).rstrip())


def _write(result, path):
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
        fh.write("\n")
    _log("wrote %s" % path)


def print_set(result):
    names = list(result["workloads"])
    entries = [result["workloads"][name] for name in names]
    print("end-to-end (seed %d; host metrics are median [q1-q3] of %d "
          "untraced runs)" % (result["seed"], result["repeats"]))
    rows = []
    for metric in end_to_end_metrics():
        key = metric["name"]
        rows.append([key, metric["unit"]]
                    + [_cell(entry["end_to_end"][key]) for entry in entries])
    rows.append(["sim_lat samples", "count"] + [
        "%s beyond p%s" % (entry["end_to_end"]["sim_lat_tail_us"]["beyond"],
                           entry["end_to_end"]["sim_lat_tail_us"]["percentile"])
        if entry["end_to_end"]["sim_lat_tail_us"]["samples"] else "n/a"
        for entry in entries])
    _table(["metric", "unit"] + names, rows)
    print()
    print("per layer (self times from one cProfile-traced run; counts "
          "from the registry)")
    _table(["metric", "unit"] + names,
           [[name, unit] + [_fmt(entry["layers"].get(name))
                            for entry in entries]
            for name, unit, _better in LAYER_METRICS])
    for name, entry in zip(names, entries):
        for problem in entry["guard"]:
            print("GUARD %s: %s" % (name, problem))


def cmd_run(args):
    result = runner.run_set(list(load_spec()["workloads"]), args.seed,
                            args.repeats,
                            quick=args.quick, log=_log)
    print_set(result)
    _write(result, args.out or os.path.join(
        RESULTS_DIR, "run-seed%d%s.json" % (args.seed,
                                            "-quick" if args.quick else "")))
    return 0 if result["ok"] else 1


def _load(path):
    with open(path) as fh:
        return json.load(fh)


def cmd_compare(args):
    rows = runner.compare(_load(args.parent), _load(args.change))
    _table(["workload", "metric", "unit", "bound", "parent", "change",
            "verdict"],
           [[r["workload"], r["metric"], r["unit"], _fmt(r["bound"]),
             _cell(r["parent"]), _cell(r["change"]),
             r["verdict"] + (" (model changed)" if r["model_changed"]
                             else "")]
            for r in rows])
    return 1 if any(r["verdict"] == "worse" for r in rows) else 0


def cmd_ab(args):
    result = runner.ab(args.rev, list(load_spec()["workloads"]), args.pairs,
                       args.seed, log=_log)
    rows = []
    for name, entry in result["workloads"].items():
        for key, m in entry["metrics"].items():
            rows.append([
                name, key, _cell(m["parent"]), _cell(m["change"]),
                "%d/%d" % (round(m["won"] * result["pairs"]), result["pairs"]),
                m["verdict"], "yes" if m["claim"] else "no",
                "model changed" if entry["model_changed"] else ""])
    _table(["workload", "metric", "parent " + args.rev, "change", "won",
            "verdict", "claim", ""], rows)
    _write(result, os.path.join(RESULTS_DIR, "ab.json"))
    return 0


def cmd_measure(args):
    if not os.path.isdir(os.path.join(runner.SRC, "repro")):
        _log("no source tree at %s" % runner.SRC)
        return 2
    result = runner.measure(args.workload, args.seed, args.seconds,
                            bool(args.trace), load_benchmark())
    print(json.dumps(result, sort_keys=True))
    return 0


def main(argv=None):
    spec = load_spec()
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.shrimpbench",
        description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="repeated set over every workload")
    run.add_argument("--seed", type=int, default=spec["default_seed"])
    run.add_argument("--repeats", type=int, default=spec["repeats"])
    run.add_argument("--quick", action="store_true",
                     help="shrunk sizes, for a smoke test")
    run.add_argument("--out", help="result JSON path")
    run.set_defaults(fn=cmd_run)

    compare = sub.add_parser("compare", help="verdicts between two results")
    compare.add_argument("parent")
    compare.add_argument("change")
    compare.set_defaults(fn=cmd_compare)

    ab = sub.add_parser("ab", help="interleaved pairs against a git rev")
    ab.add_argument("rev")
    ab.add_argument("--pairs", type=int, default=runner.CLAIM_PAIRS)
    ab.add_argument("--seed", type=int, default=spec["default_seed"])
    ab.set_defaults(fn=cmd_ab)

    measure = sub.add_parser("measure", help="one BENCHMARK.json run")
    measure.add_argument("--workload", required=True,
                         choices=sorted(spec["workloads"]))
    measure.add_argument("--seed", type=int, required=True)
    measure.add_argument("--seconds", type=float, required=True)
    measure.add_argument("--trace", type=int, choices=(0, 1), default=0)
    measure.set_defaults(fn=cmd_measure)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (runner.ChildError, ValueError) as exc:
        _log("shrimpbench: %s" % exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
