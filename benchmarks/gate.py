"""The one regression gate of the deterministic benches.

``bench_ckpt``, ``bench_recovery``, ``bench_dsm`` and ``bench_workload``
each hand :func:`main` a table of scales (zero-argument callables that
return a dict of simulated observables) and the guarded keys.  Every
recorded field is a simulated observable, so two runs of a scale must
return equal dicts; host speed is ``benchmarks.shrimpbench``'s job.

The record is ``{"scales": {name: result}}``.  A guarded key that moved
past its tolerance in its bad direction refuses the write and leaves the
file untouched; ``--force`` records anyway.
"""

import argparse
import json
import os

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def check_regression(old, new, guards):
    """Human-readable regressions of ``new`` against ``old``.

    Both map scale name to result dict.  ``guards`` maps a key to
    ``(tolerance, better)``: a ``"lower"`` key may grow by at most
    ``tolerance``, a ``"higher"`` key may drop by at most that much.  A
    key missing (or null) on either side is skipped, since scales
    record different sets and an older record may predate a key.
    """
    problems = []
    for name, result in new.items():
        prior = old.get(name, {})
        for key, (tolerance, better) in guards.items():
            was, now = prior.get(key), result.get(key)
            if was is None or now is None:
                continue
            if better == "lower" and now > was * (1.0 + tolerance):
                side = "above"
            elif better == "higher" and now < was * (1.0 - tolerance):
                side = "below"
            else:
                continue
            problems.append("%s: %s %s is >%d%% %s the recorded %s"
                            % (name, key, now, round(tolerance * 100), side, was))
    return problems


def main(argv, scales, guards, output):
    """Run each scale twice, print it, and record the results in ``output``.

    Returns 1 (file untouched) on a guarded regression unless ``--force``.
    """
    parser = argparse.ArgumentParser(
        description="Record %s; refuse a guarded regression."
        % os.path.basename(output))
    parser.add_argument("--force", action="store_true",
                        help="record even on a regression")
    parser.add_argument("--output", default=output,
                        help="result file (default: %(default)s)")
    args = parser.parse_args(argv)

    results = {}
    for name, run in scales.items():
        first, second = run(), run()
        if first != second:
            raise AssertionError("%s: two runs differ:\n  %r\n  %r"
                                 % (name, first, second))
        results[name] = first
        print("%-24s %s" % (name, json.dumps(first, sort_keys=True)))

    if os.path.exists(args.output):
        with open(args.output) as fh:
            previous = json.load(fh).get("scales", {})
        problems = check_regression(previous, results, guards)
        if problems and not args.force:
            print("REFUSING to overwrite %s:" % args.output)
            for line in problems:
                print("  " + line)
            print("re-run with --force to record a known regression")
            return 1

    with open(args.output, "w") as fh:
        json.dump({"scales": results}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print("wrote %s" % args.output)
    return 0
