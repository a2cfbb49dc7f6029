"""Where a simulated machine's host memory goes, by ``src/repro`` module.

Builds and runs one machine under :mod:`tracemalloc`, then prints the
traced current and peak bytes and the allocations still live at the
end, grouped by the ``src/repro`` module whose line made them: each
module's total, then its heaviest lines.  The modules past the listed
ones share one row, and so does everything allocated outside
``src/repro`` (the standard library, the interpreter).

The machine is either a scenario of :mod:`repro.scenarios`, named by
its pin key (``ping_pong``, ``workload@seed=2``), or a started N x N
machine with the ``datacenter()`` parameters and no traffic::

    python tools/footprint.py --scenario contention
    python tools/footprint.py --datacenter 32

The report lists the :data:`MODULES` heaviest modules, each with its
:data:`LINES` heaviest lines.  ``make footprint`` runs the second form
at 32 x 32.  Exit status: 0, or 2 for a malformed key, an unknown
scenario or a keyword its builder does not take.
"""

import argparse
import sys
import tracemalloc
from collections import defaultdict
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "repro"
if str(REPO / "src") not in sys.path:
    sys.path.insert(0, str(REPO / "src"))

MODULES = 8  # modules listed by name; the rest share one row
LINES = 3    # heaviest lines listed under each module


def _module_of(filename):
    """``mesh/router.py`` for a file under ``src/repro``, else None."""
    try:
        return Path(filename).resolve().relative_to(PACKAGE).as_posix()
    except ValueError:
        return None


def build_and_run(scenario=None, datacenter=None):
    """Build the machine, run it to idle as the pins do, and return it;
    exactly one of ``scenario`` (a pin key) and ``datacenter`` (a side
    length) is given."""
    from repro.machine import ShrimpSystem
    from repro.machine.config import datacenter as params_factory
    from repro.scenarios import build_key

    if scenario is not None:
        system = build_key(scenario)
    else:
        system = ShrimpSystem(datacenter, datacenter,
                              params_factory=params_factory)
        system.start()
    system.run(max_events=2_000_000)
    return system


def breakdown(snapshot):
    """Rows ``(module, bytes, [(line, bytes, count), ...])`` of the live
    allocations in ``snapshot``, heaviest module first; ``module`` is
    None for everything outside ``src/repro``.  Lines within a module
    are heaviest first too."""
    totals = defaultdict(int)
    lines = defaultdict(list)
    for stat in snapshot.statistics("lineno"):
        frame = stat.traceback[0]
        module = _module_of(frame.filename)
        totals[module] += stat.size
        if module is not None:
            lines[module].append((frame.lineno, stat.size, stat.count))
    rows = []
    for module, size in totals.items():
        ranked = sorted(lines[module], key=lambda row: (-row[1], row[0]))
        rows.append((module, size, ranked))
    rows.sort(key=lambda row: (-row[1], row[0] or ""))
    return rows


def measure(scenario=None, datacenter=None):
    """Trace :func:`build_and_run`; return ``(current, peak, rows, system)``
    with the bytes traced at the end and at the peak, and the
    :func:`breakdown` of what is live at the end.  The package is
    imported first, so its code objects are not counted."""
    import repro.scenarios  # noqa: F401

    tracemalloc.start()
    try:
        system = build_and_run(scenario, datacenter)
        current, peak = tracemalloc.get_traced_memory()
        rows = breakdown(tracemalloc.take_snapshot())
    finally:
        tracemalloc.stop()
    return current, peak, rows, system


def _mib(size):
    return "%9.3f MiB" % (size / 1048576.0)


def report(current, peak, rows, system):
    """The printed report, as a list of lines."""
    out = ["machine: %d nodes, %d events, t=%d ns"
           % (system.node_count, system.sim.event_count, system.sim.now),
           "traced:  current %s  peak %s" % (_mib(current), _mib(peak))]
    inside = [row for row in rows if row[0] is not None]
    for module, size, ranked in inside[:MODULES]:
        out.append("%s  %s" % (_mib(size), module))
        for lineno, line_size, count in ranked[:LINES]:
            out.append("  %s    line %-5d %d blocks"
                       % (_mib(line_size), lineno, count))
    rest = inside[MODULES:]
    if rest:
        out.append("%s  (%d more modules)"
                   % (_mib(sum(row[1] for row in rest)), len(rest)))
    outside = sum(row[1] for row in rows if row[0] is None)
    out.append("%s  (outside src/repro)" % _mib(outside))
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="footprint", description=__doc__.split("\n\n")[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--scenario", metavar="KEY",
                       help="a repro.scenarios pin key")
    which.add_argument("--datacenter", type=int, metavar="N",
                       help="a started N x N datacenter() machine")
    args = parser.parse_args(argv)
    if args.datacenter is not None and args.datacenter < 1:
        parser.error("--datacenter must be at least 1")
    try:
        current, peak, rows, system = measure(args.scenario, args.datacenter)
    except ValueError as exc:  # build_key's word for a bad key
        parser.error(str(exc))
    print("\n".join(report(current, peak, rows, system)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
