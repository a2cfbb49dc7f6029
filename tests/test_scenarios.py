"""The named scenario table (:mod:`repro.scenarios`).

Every scenario must build, drain its event queue under a runaway guard,
and be a pure function of its kwargs: two runs at the defaults give the
same fingerprint (clock, event count, every metric, every node's
memory image).
"""

import pytest

from repro.ckpt.divergence import fingerprint
from repro.scenarios import SCENARIOS, build


def _run(name):
    system = build(name)
    system.run(max_events=2_000_000)
    assert system.sim.peek() is None, "%s left events pending" % name
    return fingerprint(system)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_runs_to_completion_deterministically(name):
    assert _run(name) == _run(name)
