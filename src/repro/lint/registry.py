"""The rule registry: every shipped simlint rule, in code order.

Adding a rule (the full recipe is in docs/static-analysis.md):
subclass :class:`repro.lint.engine.Rule` in the appropriate
``rules_*`` module, append the instance to that module's ``RULES``
tuple, add a good/bad fixture pair under ``tests/lint_fixtures/`` and a
row to the rule table in the docs.
"""

from repro.lint import (
    rules_callback,
    rules_ckpt,
    rules_determinism,
    rules_instrument,
    rules_owner,
    rules_protocol,
    rules_vocab,
)


def all_rules():
    """Every registered rule, sorted by (numeric) code."""
    rules = (
        rules_determinism.RULES
        + rules_ckpt.RULES
        + rules_instrument.RULES
        + rules_callback.RULES
        + rules_owner.RULES
        + rules_protocol.RULES
        + rules_vocab.RULES
    )
    # Numeric sort: "SL1001" must come after "SL904", not before "SL201".
    return sorted(rules, key=lambda rule: int(rule.code[2:]))
