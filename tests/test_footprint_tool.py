"""``tools/footprint.py``: where a machine's host memory goes, by module."""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "footprint.py"


def _run(*args):
    return subprocess.run([sys.executable, str(TOOL), *args],
                          capture_output=True, text=True, timeout=120)


def _mib(line):
    return float(line.split()[0])


def test_datacenter_build_breakdown_by_module():
    result = _run("--datacenter", "2")
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert lines[0] == "machine: 4 nodes, 24 events, t=0 ns"
    current = float(lines[1].split()[2])
    assert lines[1].startswith("traced:  current") and current > 0
    # Each module row is followed by its heaviest lines, at most three.
    groups = []
    for line in lines[2:]:
        if " line " in line:
            groups[-1][1].append(line)
        else:
            groups.append((line, []))
    rows = [row for row, _ in groups]
    named = rows[:-2]
    assert 1 <= len(named) <= 8
    assert "mesh/router.py" in [row.split()[-1] for row in named]
    assert all(row.endswith(".py") for row in named)
    assert all(1 <= len(under) <= 3 for _, under in groups[:len(named)])
    assert rows[-2].endswith("more modules)")
    assert rows[-1].endswith("(outside src/repro)")
    assert not groups[-2][1] and not groups[-1][1]
    # The rows split the live bytes, heaviest module first.
    assert abs(sum(_mib(row) for row in rows) - current) < 0.005
    sizes = [_mib(row) for row in named]
    assert sizes == sorted(sizes, reverse=True)


def test_scenario_key_and_usage_errors():
    result = _run("--scenario", "contention")
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("machine: 16 nodes, ")
    unknown = _run("--scenario", "nope")
    assert unknown.returncode == 2
    assert "unknown scenario 'nope'" in unknown.stderr
    malformed = _run("--scenario", "ping_pong@rounds")
    assert malformed.returncode == 2
    assert "not KEYWORD=INTEGER" in malformed.stderr
    keyword = _run("--scenario", "contention@nope=1")
    assert keyword.returncode == 2
    assert "unexpected keyword argument 'nope'" in keyword.stderr
