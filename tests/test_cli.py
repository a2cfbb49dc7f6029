"""Tests for the ``python -m repro.analysis`` experiment CLI."""

import subprocess
import sys


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "repro.analysis", *args],
        capture_output=True, text=True, timeout=300,
    )


def test_table1_section():
    result = run_cli("table1")
    assert result.returncode == 0
    assert "single buffering" in result.stdout
    assert "151 (73+78)" in result.stdout


def test_comparison_section():
    result = run_cli("comparison")
    assert result.returncode == 0
    assert "iPSC/2" in result.stdout


def test_comparison_row_is_measured(monkeypatch, capsys):
    """The SHRIMP row prints the csend/crecv measurement, not literals."""
    from repro.analysis import __main__ as cli
    from repro.analysis.table1 import Table1Row

    measured = Table1Row("csend and crecv", 151, 73, 78, 70, 80)
    monkeypatch.setattr(cli, "measure_csend_crecv", lambda: measured)
    assert cli.main(["comparison"]) == 0
    row = next(line for line in capsys.readouterr().out.splitlines()
               if line.startswith("SHRIMP user-level"))
    assert row.split()[-3:] == ["70", "80", "150"]


def test_unknown_section_fails():
    result = run_cli("nonsense")
    assert result.returncode == 2
    assert "usage: python -m repro.analysis" in result.stdout
    assert "unknown section(s): nonsense" in result.stdout
    assert "available:" in result.stdout


def test_metrics_section_emits_jsonl():
    import json

    result = run_cli("metrics")
    assert result.returncode == 0
    lines = [line for line in result.stdout.splitlines() if line.strip()]
    assert lines
    records = [json.loads(line) for line in lines]
    by_name = {record["name"]: record for record in records}
    # Every record carries the stable schema.
    assert all({"name", "kind"} <= set(record) for record in records)
    # The workload stored 4 words through node0's NIC into node1's memory.
    assert by_name["node0.nic.packetized"]["value"] == 4
    assert by_name["node1.nic.delivered"]["value"] == 4
    assert by_name["node1.nic.words_delivered"]["value"] == 4
    # Metrics come out sorted by name (stable output for diffing).
    assert [record["name"] for record in records] == sorted(by_name)


def test_trace_export_section_emits_jsonl():
    import json

    result = run_cli("trace-export")
    assert result.returncode == 0
    lines = [line for line in result.stdout.splitlines() if line.strip()]
    assert lines
    events = [json.loads(line) for line in lines]
    assert all(
        {"time", "source", "kind", "fields"} <= set(event) for event in events
    )
    kinds = {event["kind"] for event in events}
    # The automatic-update datapath appears end to end.
    assert {"bus.write", "nic.packetized", "nic.injected", "mesh.route",
            "nic.accepted", "nic.delivered"} <= kinds
    # Events are exported in emission (time) order.
    times = [event["time"] for event in events]
    assert times == sorted(times)


def test_breakdown_section():
    result = run_cli("breakdown")
    assert result.returncode == 0
    assert "TOTAL" in result.stdout
    assert "delivered" in result.stdout


def test_latency_section():
    result = run_cli("latency")
    assert result.returncode == 0
    assert "EISA prototype" in result.stdout
    assert "Latency vs hop count" in result.stdout


def test_bandwidth_section():
    result = run_cli("bandwidth")
    assert result.returncode == 0
    rows = [line.split() for line in result.stdout.splitlines()
            if line[:1].isdigit()]
    assert [int(row[0]) for row in rows] == [256, 1024, 4096, 16384, 65536]
    eisa = [float(row[1]) for row in rows]
    nextgen = [float(row[2]) for row in rows]
    # Bandwidth grows with transfer size toward each bus's peak.
    assert eisa == sorted(eisa) and eisa[-1] < 33
    assert nextgen == sorted(nextgen) and nextgen[-1] > eisa[-1]


def test_multiple_sections():
    result = run_cli("comparison", "table1")
    assert result.returncode == 0
    assert result.stdout.index("iPSC/2") < result.stdout.index(
        "single buffering"
    )
