"""Command-line runner for the DSM app family.

Examples::

    python -m repro.dsm --kind stencil --width 8 --height 8
    python -m repro.dsm --kind bfs --width 4 --height 4 --json
    python -m repro.dsm --kind kv --requests 64
    python -m repro.dsm --kind homecrash --crash-home 1 --crash-at 400000

Reports the ``dsm.*`` metrics namespace -- faults, fetches,
invalidations, recalls, and the fetch/upgrade latency histograms -- and
checks the app's expected result where one is closed-form (stencil page
contents, BFS distances).
"""

import argparse
import json
import sys

from repro.sim.instrument import Instrumentation
from repro.workload.dsm_apps import APP_KINDS, DsmWorkload


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.dsm",
        description=__doc__.splitlines()[0],
    )
    parser.add_argument("--kind", choices=APP_KINDS, default="stencil")
    parser.add_argument("--width", type=int, default=4)
    parser.add_argument("--height", type=int, default=4)
    parser.add_argument("--iterations", type=int, default=2,
                        help="stencil iterations")
    parser.add_argument("--words", type=int, default=8,
                        help="stencil words written per page per iteration")
    parser.add_argument("--seed", type=int, default=1, help="kv seed")
    parser.add_argument("--requests", type=int, default=32,
                        help="kv request count")
    parser.add_argument("--crash-home", type=int, default=None, metavar="NODE",
                        help="crash this node mid-run and restore it "
                             "(requires --crash-at)")
    parser.add_argument("--crash-at", type=int, default=None, metavar="NS",
                        help="simulated time of the --crash-home crash")
    parser.add_argument("--dwell-ns", type=int, default=120_000,
                        help="how long the crashed node stays down")
    parser.add_argument("--json", action="store_true",
                        help="emit the metrics snapshot as JSON")
    args = parser.parse_args(argv)

    crash = args.crash_home is not None
    if crash != (args.crash_at is not None):
        parser.error("--crash-home and --crash-at go together")
    if crash:
        if not 0 <= args.crash_home < args.width * args.height:
            parser.error("--crash-home %d is not a node of a %dx%d mesh"
                         % (args.crash_home, args.width, args.height))
        if args.crash_at < 0:
            parser.error("--crash-at must be >= 0")
        if args.dwell_ns < 0:
            parser.error("--dwell-ns must be >= 0")

    workload = DsmWorkload(
        kind=args.kind, width=args.width, height=args.height,
        iterations=args.iterations, words=args.words, seed=args.seed,
        requests=args.requests,
    ).start()
    if crash:
        workload.crash_restore(args.crash_home, args.crash_at, args.dwell_ns)
    workload.run()
    instr = Instrumentation.of(workload.system.sim)

    checked = "unchecked"
    if args.kind == "stencil":
        ok = workload.final_shared_bytes() == workload.expected_stencil()
        checked = "ok" if ok else "MISMATCH"
    elif args.kind == "homecrash":
        ok = workload.final_shared_bytes() == workload.expected_homecrash()
        checked = "ok" if ok else "MISMATCH"
    elif args.kind == "bfs":
        dist = [workload.segments[0].peek(workload._bfs_addr(i))
                for i in range(workload.node_count)]
        ok = dist == workload.expected_bfs()
        checked = "ok" if ok else "MISMATCH"
    else:
        ok = True

    if args.json:
        record = {"kind": args.kind, "width": args.width,
                  "height": args.height, "duration_ns": workload.system.sim.now,
                  "result": checked, "metrics": instr.snapshot("dsm")}
        print(json.dumps(record, indent=2, sort_keys=True))
        return 0 if ok else 1

    print("dsm %s %dx%d: result %s, %d ns"
          % (args.kind, args.width, args.height, checked,
             workload.system.sim.now))
    for name in ("dsm.faults", "dsm.fetches", "dsm.invalidations",
                 "dsm.recalls"):
        print("  %-20s %d" % (name, instr.value(name)))
    for name in ("dsm.fetch_ns", "dsm.upgrade_ns"):
        summary = instr.summary(name)
        print("  %-20s n=%d p50=%s p99=%s" % (
            name, summary["count"], summary["p50"], summary["p99"]))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
