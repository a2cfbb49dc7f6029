"""The ``python -m repro.lint`` command line.

Usage::

    python -m repro.lint [paths...] [options]

Defaults to linting ``src`` and ``tests``.  Two static phases run by
default (select with ``--phase``): the *per-file* pass (one module at a
time) and the *whole-program* pass over the
:class:`~repro.lint.project.ProjectGraph`.  The project graph is cached
under ``.lint_cache/`` keyed on a content hash of the input tree, so a
warm run skips parsing entirely (``--no-cache`` disables this).

``--sanitize SCENARIO`` is the runtime companion: instead of linting
source, it arms the happens-before checker over one ``repro.scenarios``
scenario run and fails on any ordering violation
(:mod:`repro.lint.sanitize`).

Exit codes: 0 -- no new findings (baselined findings are reported but do
not fail the run); 1 -- at least one new finding, a stale baseline
entry (the baseline no longer matches reality and must be refreshed), or
a sanitizer violation; 2 -- usage or I/O error.
"""

import argparse
import json
import sys
from pathlib import Path

from repro.lint.engine import (
    DEFAULT_BASELINE_NAME,
    LintUsageError,
    apply_baseline,
    baseline_payload,
    load_baseline,
    run_rules,
)
from repro.lint.registry import all_rules

DEFAULT_CACHE_DIR = ".lint_cache"

_PHASES = {
    "per-file": ("file",),
    "project": ("project",),
    "all": ("file", "project"),
}


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
        "--phase", choices=sorted(_PHASES), default="all",
        help="run only the per-file or only the whole-program pass "
        "(default: all)",
    )
    parser.add_argument(
        "--cache-dir", metavar="DIR", default=DEFAULT_CACHE_DIR,
        help="project-graph cache directory (default: %s)"
        % DEFAULT_CACHE_DIR,
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="parse and build the project graph from scratch",
    )
    parser.add_argument(
        "--baseline", metavar="PATH", default=None,
        help="baseline file absorbing known findings "
        "(default: %s when it exists)" % DEFAULT_BASELINE_NAME,
    )
    parser.add_argument(
        "--no-baseline", action="store_true",
        help="ignore any baseline; every finding is new",
    )
    parser.add_argument(
        "--write-baseline", action="store_true",
        help="record current findings as the new baseline and exit 0",
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
        "--sanitize", metavar="SCENARIO",
        help="run SCENARIO (a repro.scenarios name) with the "
        "happens-before sanitizer armed instead of linting source",
    )
    return parser


def _baseline_path(args):
    if args.no_baseline:
        return None
    if args.baseline is not None:
        return Path(args.baseline)
    default = Path(DEFAULT_BASELINE_NAME)
    if default.exists() or args.write_baseline:
        return default
    return None


def _report_text(findings, new, stale, suppressed, out):
    for finding in findings:
        tag = " [baselined]" if finding.baselined else ""
        print(
            "%s:%d:%d: %s %s%s"
            % (finding.path, finding.line, finding.col, finding.code,
               finding.message, tag),
            file=out,
        )
    for fingerprint in stale:
        print("stale baseline entry: %s" % fingerprint, file=out)
    print(
        "simlint: %d finding(s): %d new, %d baselined, %d suppressed "
        "in-code%s"
        % (len(findings), len(new), len(findings) - len(new), suppressed,
           ", %d stale baseline entr(ies)" % len(stale) if stale else ""),
        file=out,
    )


def _report_json(findings, new, stale, suppressed, out):
    by_code = {}
    for finding in findings:
        by_code[finding.code] = by_code.get(finding.code, 0) + 1
    payload = {
        "version": 1,
        "tool": "simlint",
        "summary": {
            "total": len(findings),
            "new": len(new),
            "baselined": len(findings) - len(new),
            "suppressed": suppressed,
            "by_code": dict(sorted(by_code.items())),
            "stale_baseline_entries": stale,
        },
        "findings": [finding.to_dict() for finding in findings],
    }
    json.dump(payload, out, indent=2, sort_keys=True)
    out.write("\n")


def _explain(rules, code, out):
    for rule in rules:
        if rule.code == code:
            doc = (type(rule).__doc__ or "").strip()
            print("%s: %s\n\n%s" % (rule.code, rule.title, doc), file=out)
            return 0
    print("unknown rule code: %s" % code, file=sys.stderr)
    print("known codes:", file=sys.stderr)
    for rule in rules:
        print("  %s  %s" % (rule.code, rule.title), file=sys.stderr)
    return 2


def main(argv=None, out=None):
    out = out if out is not None else sys.stdout
    parser = _parser()
    args = parser.parse_args(argv)
    rules = all_rules()
    if args.list_rules:
        for rule in rules:
            print("%s  %s" % (rule.code, rule.title), file=out)
        return 0
    if args.explain:
        return _explain(rules, args.explain, out)
    if args.sanitize:
        from repro.lint.sanitize import run_sanitized

        try:
            return run_sanitized(args.sanitize, out=out)
        except LintUsageError as exc:
            print("simlint: error: %s" % exc, file=sys.stderr)
            return 2
    selected = None
    if args.select:
        selected = {code.strip() for code in args.select.split(",")
                    if code.strip()}
    cache_dir = None if args.no_cache else Path(args.cache_dir)
    try:
        findings, suppressed = run_rules(
            args.paths, rules, selected,
            phases=_PHASES[args.phase], cache_dir=cache_dir,
        )
        baseline_file = _baseline_path(args)
        if args.write_baseline:
            if baseline_file is None:
                raise LintUsageError(
                    "--write-baseline conflicts with --no-baseline"
                )
            payload = baseline_payload(findings)
            baseline_file.write_text(
                json.dumps(payload, indent=2, sort_keys=True) + "\n",
                encoding="utf-8",
            )
            print(
                "wrote %s: %d finding(s) baselined"
                % (baseline_file, payload["counts"]["total"]),
                file=out,
            )
            return 0
        if baseline_file is not None:
            baseline = load_baseline(baseline_file)
            new, stale = apply_baseline(findings, baseline)
        else:
            new, stale = findings, []
    except LintUsageError as exc:
        print("simlint: error: %s" % exc, file=sys.stderr)
        return 2
    if args.format == "json":
        _report_json(findings, new, stale, suppressed, out)
    else:
        _report_text(findings, new, stale, suppressed, out)
    # A stale baseline entry means the baseline is out of date -- the
    # debt it records was paid (or renamed).  Failing forces a refresh,
    # so the checked-in file always matches reality.
    return 1 if new or stale else 0
