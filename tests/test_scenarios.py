"""The named scenario table (:mod:`repro.scenarios`).

Every scenario must build, drain its event queue under a runaway guard,
and be a pure function of its kwargs: two runs at the defaults give the
same fingerprint (clock, event count, every metric, every node's
memory image).  Each run -- at default kwargs and at every seeded
variant (``dsm@seed=2`` and the like) -- must also match the
fingerprint pinned in ``tests/fingerprints.json`` (event count aside),
so a change that moves any physical observable fails here until it is
re-pinned on purpose with ``make pin``.
"""

import json
from pathlib import Path

import pytest

from repro.ckpt.divergence import diff_fingerprints, fingerprint
from repro.ckpt.protocol import CkptError
from repro.ckpt.safepoint import seek_safepoint
from repro.ckpt.system import SystemCheckpoint
from repro.scenarios import (CHECKPOINTABLE, SCENARIOS, build, build_key,
                             parse_key, pin_keys, pinned_fingerprint,
                             variant_key)

PINS = Path(__file__).with_name("fingerprints.json")


def _run(name):
    system = build(name)
    system.run(max_events=2_000_000)
    assert system.sim.peek() is None, "%s left events pending" % name
    return fingerprint(system)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_runs_to_completion_deterministically(name):
    assert _run(name) == _run(name)


def test_pins_cover_every_scenario():
    assert sorted(json.loads(PINS.read_text())) == sorted(pin_keys())


def test_variant_keys_round_trip():
    assert variant_key("dsm", {}) == "dsm"
    assert variant_key("dsm", {"seed": 2}) == "dsm@seed=2"
    for key in pin_keys():
        assert variant_key(*parse_key(key)) == key


@pytest.mark.parametrize("key", pin_keys())
def test_scenario_matches_pinned_fingerprint(key):
    pinned = json.loads(PINS.read_text())[key]
    assert diff_fingerprints(pinned, pinned_fingerprint(key),
                             "pinned", key) == []


@pytest.mark.parametrize("key", ["dsm@seed", "dsm@seed=x", "dsm@=2"])
def test_malformed_key_names_itself(key):
    with pytest.raises(ValueError, match="malformed scenario key %r" % key):
        parse_key(key)


@pytest.mark.parametrize("key,message", [
    ("no_such@seed=1", "unknown scenario 'no_such'"),
    ("ping_pong@bogus=1", "scenario key 'ping_pong@bogus=1'"),
    ("dsm@bogus=1", "scenario key 'dsm@bogus=1'"),
])
def test_build_key_reports_unknown_names_and_keywords(key, message):
    with pytest.raises(ValueError, match=message):
        build_key(key)


# seek_safepoint on ``dsm`` steps ~160k events (~5 s); the other DSM
# scenario keeps the configuration-mismatch case in the fast lane.
@pytest.mark.parametrize("name", [
    pytest.param(name, marks=pytest.mark.slow) if name == "dsm" else name
    for name in sorted(SCENARIOS)
])
def test_checkpointable_names_exactly_the_scenarios_that_restore(name):
    """A mid-run whole-system checkpoint restores exactly for the names in
    ``CHECKPOINTABLE`` -- the ckpt CLI's choices cannot drift from what
    works.  The others fail with a configuration mismatch."""
    system = build(name)
    system.run(until=5_000)
    seek_safepoint(system)
    state = SystemCheckpoint.capture(system)
    if name in CHECKPOINTABLE:
        SystemCheckpoint.restore(state)
    else:
        with pytest.raises(CkptError, match="configuration mismatch"):
            SystemCheckpoint.restore(state)
