# simlint: scope=sim
"""SL002 pass: every suppression excuses a finding on its anchor line."""

import random  # simlint: ignore[SL101] a host-side fixture, never simulated


def jitter(limit):
    return random.randrange(limit)
