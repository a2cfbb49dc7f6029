"""The ``python -m repro.lint`` command line.

Usage::

    python -m repro.lint [paths...] [options]

Defaults to linting ``src`` and ``tests``: the tree is parsed once into
a :class:`~repro.lint.project.ProjectGraph` and every rule runs on it.

``--sanitize KEY`` is the runtime companion: instead of linting source,
it arms the happens-before checker over one ``repro.scenarios`` run,
named by its pin key (``dsm``, ``dsm@seed=2``), and fails on any
ordering violation
(:mod:`repro.lint.sanitize`).

Exit codes: 0 -- no findings; 1 -- at least one finding or a sanitizer
violation; 2 -- usage or I/O error.
"""

import argparse
import json
import sys

from repro.lint.engine import LintUsageError, run_rules
from repro.lint.registry import all_rules


def _parser():
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="simlint: AST-based invariant checks for determinism, "
        "checkpoint coverage, instrumentation hygiene, callback safety and "
        "whole-program protocol/vocabulary rules (docs/static-analysis.md)",
    )
    parser.add_argument(
        "paths", nargs="*", default=["src", "tests"],
        help="files or directories to lint (default: src tests)",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--select", metavar="CODES",
        help="comma-separated rule codes to run (default: all)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="list rule codes and titles, then exit",
    )
    parser.add_argument(
        "--explain", metavar="CODE",
        help="print a rule's full documentation, then exit",
    )
    parser.add_argument(
        "--sanitize", metavar="KEY",
        help="run the repro.scenarios pin KEY (e.g. dsm or dsm@seed=2) "
        "with the happens-before sanitizer armed instead of linting source",
    )
    return parser


def _report_text(findings, suppressed, out):
    for finding in findings:
        print(repr(finding), file=out)
    print(
        "simlint: %d finding(s), %d suppressed in-code"
        % (len(findings), suppressed),
        file=out,
    )


def _report_json(findings, suppressed, out):
    by_code = {}
    for finding in findings:
        by_code[finding.code] = by_code.get(finding.code, 0) + 1
    payload = {
        "version": 2,
        "tool": "simlint",
        "summary": {
            "total": len(findings),
            "suppressed": suppressed,
            "by_code": dict(sorted(by_code.items())),
        },
        "findings": [finding.to_dict() for finding in findings],
    }
    json.dump(payload, out, indent=2, sort_keys=True)
    out.write("\n")


def _explain(rules, code, out):
    for rule in rules:
        if rule.code == code:
            doc = (rule.__doc__ or "").strip()
            print("%s: %s\n\n%s" % (rule.code, rule.title, doc), file=out)
            return 0
    print("unknown rule code: %s" % code, file=sys.stderr)
    print("known codes:", file=sys.stderr)
    for rule in rules:
        print("  %s  %s" % (rule.code, rule.title), file=sys.stderr)
    return 2


def main(argv=None, out=None):
    out = out if out is not None else sys.stdout
    args = _parser().parse_args(argv)
    rules = all_rules()
    if args.list_rules:
        for rule in rules:
            print("%s  %s" % (rule.code, rule.title), file=out)
        return 0
    if args.explain:
        return _explain(rules, args.explain, out)
    selected = None
    if args.select:
        selected = {code.strip() for code in args.select.split(",")
                    if code.strip()}
    try:
        if args.sanitize:
            from repro.lint.sanitize import run_sanitized

            return run_sanitized(args.sanitize, out=out)
        findings, suppressed = run_rules(args.paths, rules, selected)
    except LintUsageError as exc:
        print("simlint: error: %s" % exc, file=sys.stderr)
        return 2
    if args.format == "json":
        _report_json(findings, suppressed, out)
    else:
        _report_text(findings, suppressed, out)
    return 1 if findings else 0
