"""Shared helpers for the benchmark suite.

Every benchmark regenerates one of the paper's evaluation artifacts
(DESIGN.md has the index).  The simulations are deterministic, so each
experiment runs once; the printed tables are the deliverable, and the
assertions pin the paper's *shape* (who wins, by roughly what factor).
Host speed is shrimpbench's to measure, not these benches'.
"""

import pytest


@pytest.fixture
def run_once():
    """Run a deterministic experiment exactly once."""

    def runner(fn, *args, **kwargs):
        return fn(*args, **kwargs)

    return runner
