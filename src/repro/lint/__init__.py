"""simlint: AST-based invariant checks for this repository.

Rule families (full documentation: ``docs/static-analysis.md``):

- ``SL1xx`` determinism -- no wall clocks, entropy, hash-order or
  identity-order dependence in sim code;
- ``SL2xx`` checkpoint coverage -- mutable state must be covered by
  ``ckpt_capture``/``ckpt_restore``, and the two key sets must match;
- ``SL3xx`` instrumentation hygiene -- metric/event names are literal,
  grammatical, and registered through the hub;
- ``SL4xx`` callback safety -- engine callbacks never block on I/O or
  touch the clock;
- ``SL501``/``SL701`` owned operations, ``SL9xx`` DSM protocol order,
  ``SL10xx`` vocabulary drift.

Run with ``python -m repro.lint [paths]``; the gate is zero findings,
and ``# simlint: ignore[SLnnn] reason`` is the one exception mechanism.
"""

from repro.lint.engine import Finding, LintUsageError, Rule, run_rules
from repro.lint.registry import all_rules

__all__ = ["Finding", "LintUsageError", "Rule", "all_rules", "run_rules"]
