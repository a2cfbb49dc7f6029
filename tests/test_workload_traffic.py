"""The datacenter workload: determinism, arenas, request accounting.

The headline property: the open-loop workload produces **bit-identical
fingerprints** (final time, event count, every metric, every node's
memory image) for the same parameters.  Everything the workload does
(Poisson arrivals, Zipf keys, channel construction order) is a pure
function of its parameters, and these tests are what keep it that way.
"""

import pytest

from repro.memsys.address import PAGE_SIZE
from repro.ckpt.divergence import fingerprint
from repro.scenarios import build
from repro.workload import (
    ArenaError,
    DatacenterWorkload,
    NodeArena,
    WorkloadError,
    WorkloadParams,
    ZipfSampler,
    build_schedule,
)
from repro.faults.plan import SeededStream
from repro.mesh.topology import MeshTopology


# -- the traffic model -------------------------------------------------------


def test_schedule_is_a_pure_function_of_the_seed():
    params = WorkloadParams(width=4, height=4, requests=64, seed=11)
    topo = MeshTopology(4, 4)
    first = build_schedule(params, topo)
    second = build_schedule(params, topo)
    assert [(r.arrival_ns, r.client, r.key) for r in first] == [
        (r.arrival_ns, r.client, r.key) for r in second
    ]
    other = build_schedule(
        WorkloadParams(width=4, height=4, requests=64, seed=12), topo
    )
    assert [(r.arrival_ns, r.client, r.key) for r in first] != [
        (r.arrival_ns, r.client, r.key) for r in other
    ]


def test_schedule_arrivals_are_monotonic_and_homes_valid():
    params = WorkloadParams(width=3, height=3, requests=40, seed=2)
    topo = MeshTopology(3, 3)
    schedule = build_schedule(params, topo)
    assert len(schedule) == 40
    last = 0
    for request in schedule:
        assert request.arrival_ns > last or request.arrival_ns == last + 0
        assert request.arrival_ns >= last
        last = request.arrival_ns
        assert 0 <= request.src_node < topo.node_count
        assert 0 <= request.home_node < topo.node_count
        assert request.src_node == request.client % topo.node_count


def test_zipf_head_is_hot():
    """With s > 1 the first key outdraws any key from deep in the tail."""
    sampler = ZipfSampler(256, 1.2)
    stream = SeededStream(5)
    counts = {}
    for _ in range(4000):
        key = sampler.sample(stream)
        counts[key] = counts.get(key, 0) + 1
    assert counts.get(0, 0) > 10 * counts.get(200, 0)
    assert counts.get(0, 0) > counts.get(1, 0) > counts.get(50, 0)


def test_blocked_concentrates_strided_spreads():
    """The same schedule's hot head lands on fewer nodes when blocked."""
    topo = MeshTopology(4, 4)
    blocked = build_schedule(
        WorkloadParams(requests=200, seed=3, addr_map="blocked"), topo
    )
    strided = build_schedule(
        WorkloadParams(requests=200, seed=3, addr_map="strided"), topo
    )
    # Identical arrivals and keys -- placement is the only difference.
    assert [r.key for r in blocked] == [r.key for r in strided]
    assert len({r.home_node for r in strided}) > len(
        {r.home_node for r in blocked}
    )


def test_bad_parameters_raise():
    with pytest.raises(WorkloadError):
        WorkloadParams(requests=0)
    with pytest.raises(WorkloadError):
        WorkloadParams(payload_words=2)
    with pytest.raises(WorkloadError):
        WorkloadParams(offered_load_rps=0)


# -- the arena ---------------------------------------------------------------


def test_mapout_regions_pack_two_halves_per_page():
    arena = NodeArena(0, PAGE_SIZE, 16 * PAGE_SIZE)
    first = arena.alloc_mapout(256)
    second = arena.alloc_mapout(256)
    third = arena.alloc_mapout(256)
    assert first == PAGE_SIZE
    assert second == PAGE_SIZE + 256  # same page, second half
    assert third == 2 * PAGE_SIZE  # two halves spent: new page


def test_mapout_region_never_crosses_a_page():
    arena = NodeArena(0, PAGE_SIZE, 16 * PAGE_SIZE)
    arena.alloc_mapout(PAGE_SIZE - 64)
    second = arena.alloc_mapout(128)  # would cross: fresh page
    assert second == 2 * PAGE_SIZE


def test_packed_regions_grow_down_word_aligned():
    limit = 16 * PAGE_SIZE
    arena = NodeArena(0, PAGE_SIZE, limit)
    first = arena.alloc_packed(6)  # word-aligned to 8
    second = arena.alloc_packed(4)
    assert first == limit - 8
    assert second == limit - 12
    assert first % 4 == 0 and second % 4 == 0


def test_arena_exhaustion_fails_loudly():
    arena = NodeArena(3, PAGE_SIZE, 2 * PAGE_SIZE)
    arena.alloc_packed(PAGE_SIZE - 64)
    with pytest.raises(ArenaError):
        arena.alloc_mapout(256)


# -- run determinism ----------------------------------------------------------


def _run_fingerprint(**kwargs):
    system = build("workload", **kwargs)
    system.run()
    return fingerprint(system)


def test_same_seed_same_fingerprint():
    kwargs = dict(width=4, height=4, requests=24, seed=9)
    assert _run_fingerprint(**kwargs) == _run_fingerprint(**kwargs)


def test_every_remote_request_is_answered_exactly_once():
    workload = DatacenterWorkload(
        WorkloadParams(width=4, height=4, requests=48, seed=7)
    ).run()
    remote = sum(
        1 for r in workload.schedule if r.home_node != r.src_node
    )
    results = workload.results()
    assert results["requests"] == remote
    assert results["responses"] == remote
    assert results["local"] == len(workload.schedule) - remote
    assert results["p50_ns"] is not None
    # Every channel drained: the go-back-N windows all closed.
    for channel in workload.req_channels.values():
        assert channel.complete
    for channel in workload.resp_channels.values():
        assert channel.complete



class TestCli:
    """``python -m repro.workload`` in process: a 4x4 ``--json`` run
    answers every remote request, and its record reads the registry."""

    def test_json_record_matches_the_registry(self, capsys, monkeypatch):
        import json

        import repro.workload.__main__ as cli

        built = []

        class Recorded(DatacenterWorkload):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        monkeypatch.setattr(cli, "DatacenterWorkload", Recorded)
        assert cli.main(["--width", "4", "--height", "4", "--requests", "32",
                         "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        (workload,) = built
        hub = workload.system.instrumentation
        local = sum(1 for request in workload.schedule
                    if request.home_node == request.src_node)
        assert record["requests"] == record["responses"] == 32 - local
        assert record["local"] == local == hub.value("workload.local")
        assert record["p99_ns"] == hub.summary("workload.latency_ns")["p99"]
        assert record["params"]["width"] == record["params"]["height"] == 4

    def test_text_report(self, capsys):
        from repro.workload.__main__ import main

        assert main(["--width", "2", "--height", "2", "--requests", "8"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("workload 2x2 seed=1 addr_map=blocked")
        assert "latency p50=" in out
