"""Unit tests for the instrumentation hub: registry, event bus, invariance.

The last test class is the tentpole guarantee: enabling the full event bus
(collection plus a live subscriber) must not move a single simulated
timestamp -- the workload's observables are bit-for-bit identical with
instrumentation on and off.
"""

import json

import pytest

from repro.cpu import Asm, Context, Mem
from repro.machine import ShrimpSystem, mapping
from repro.memsys.address import PAGE_SIZE
from repro.nic.nipt import MappingMode
from repro.sim import (
    Counter,
    Event,
    Histogram,
    Instrumentation,
    MetricError,
    Process,
    Simulator,
    TimeSeries,
)

SRC, DST = 0x10000, 0x20000


class TestHubRegistry:
    def test_of_caches_one_hub_per_simulator(self):
        sim = Simulator()
        hub = Instrumentation.of(sim)
        assert Instrumentation.of(sim) is hub
        assert sim.instrumentation is hub
        assert Instrumentation.of(Simulator()) is not hub

    def test_counter_register_or_get(self):
        hub = Instrumentation.of(Simulator())
        c1 = hub.counter("nic.delivered")
        c2 = hub.counter("nic.delivered")
        assert c1 is c2
        assert isinstance(c1, Counter)
        c1.bump(3)
        assert hub.value("nic.delivered") == 3

    def test_kind_clash_raises(self):
        """The registry stores the metric alone; its kind comes from its
        type, so every clash still names the kind registered first."""
        hub = Instrumentation.of(Simulator())
        register = {"counter": hub.counter, "timeseries": hub.timeseries,
                    "histogram": hub.histogram,
                    "probe": lambda name: hub.probe(name, lambda: 0)}
        for kind, make in register.items():
            make("m." + kind)
            assert hub.kind("m." + kind) == kind
        for have, new in [(a, b) for a in register for b in register
                          if a != b]:
            with pytest.raises(MetricError, match="already registered as %s, "
                               "not %s" % (have, new)):
                register[new]("m." + have)
            assert hub.kind("m." + have) == have
        assert sorted(hub.ckpt_capture()["metrics"]) == [
            "m.counter", "m.histogram", "m.timeseries"]

    def test_timeseries_and_histogram(self):
        hub = Instrumentation.of(Simulator())
        ts = hub.timeseries("fifo.occupancy")
        assert isinstance(ts, TimeSeries)
        ts.record(0, 4)
        assert hub.value("fifo.occupancy") == 4
        h = hub.histogram("lat")
        assert isinstance(h, Histogram)
        h.observe(3)
        h.observe(900)
        assert hub.value("lat") == 2
        summary = hub.summary("lat")
        assert summary["min"] == 3 and summary["max"] == 900

    def test_probe_is_evaluated_at_query_time(self):
        hub = Instrumentation.of(Simulator())
        state = {"n": 1}
        hub.probe("cpu.instructions", lambda: state["n"])
        assert hub.value("cpu.instructions") == 1
        state["n"] = 7
        assert hub.value("cpu.instructions") == 7
        # Probes rebind (a rebuilt component replaces its probes).
        rebound = hub.probe("cpu.instructions", lambda: -1)
        assert hub.value("cpu.instructions") == -1
        assert hub.get("cpu.instructions") is rebound
        assert hub.names() == ["cpu.instructions"]
        assert hub.summary("cpu.instructions") == {"kind": "probe",
                                                   "value": -1}

    def test_names_prefix_filter_and_unknown(self):
        hub = Instrumentation.of(Simulator())
        hub.counter("node0.nic.delivered")
        hub.counter("node0.cache.hits")
        hub.counter("node1.nic.delivered")
        hub.counter("node10.nic.delivered")
        assert hub.names("node0") == [
            "node0.cache.hits", "node0.nic.delivered",
        ]
        assert hub.names("node1") == ["node1.nic.delivered"]
        with pytest.raises(MetricError):
            hub.value("nope")

    def test_metrics_jsonl_is_sorted_and_parseable(self):
        hub = Instrumentation.of(Simulator())
        hub.counter("b").bump(2)
        hub.counter("a").bump(1)
        records = [json.loads(line) for line in hub.metrics_jsonl()]
        assert [r["name"] for r in records] == ["a", "b"]
        assert records[0] == {"name": "a", "kind": "counter", "value": 1}


class _Part:
    """A component shaped like the tree's: a name and a metric table."""

    METRICS = (("hits", "counter"), ("depth", "timeseries"),
               ("busy_ns", "probe"))

    def __init__(self, hub, name):
        self.name = name
        self.busy_ns = 0
        self.hits, self.depth = hub.register(self)


class _Other:
    METRICS = (("hits", "counter"),)

    def __init__(self, hub, name):
        self.name = name
        (self.hits,) = hub.register(self)


class TestComponentTables:
    """Components register a class-level table once; the registry builds
    each full name only when it reads it."""

    def test_register_returns_handles_named_on_read(self):
        hub = Instrumentation.of(Simulator())
        part = _Part(hub, "node3.cache")
        part.hits.bump(2)
        part.busy_ns = 40
        assert hub.names() == ["node3.cache.busy_ns", "node3.cache.depth",
                               "node3.cache.hits"]
        assert hub.value("node3.cache.hits") == 2
        assert hub.kind("node3.cache.depth") == "timeseries"
        assert hub.summary("node3.cache.busy_ns") == {"kind": "probe",
                                                      "value": 40}
        assert hub.get("node3.cache.busy_ns")() == 40

    def test_get_is_the_components_own_handle(self):
        system = ShrimpSystem(4, 1)
        hub = system.instrumentation
        node = system.nodes[3]
        assert hub.get("node3.cache.hits") is node.cache.hits
        assert hub.get("node3.nic.dma.words") is node.nic.dma_engine.words_sent

    def test_clashing_leaf_under_one_prefix_raises(self):
        hub = Instrumentation.of(Simulator())
        _Part(hub, "node3.cache")
        _Other(hub, "node3.cache")
        with pytest.raises(MetricError, match="registered twice"):
            hub.names()
        with pytest.raises(MetricError, match="registered twice"):
            hub.value("node3.cache.hits")
        # A one-off under a component's full name clashes the same way.
        hub = Instrumentation.of(Simulator())
        _Part(hub, "node3.cache")
        hub.counter("node3.cache.hits")
        with pytest.raises(MetricError, match="registered twice"):
            list(hub.metrics_jsonl())

    def test_nested_prefixes_enumerate_in_name_order(self):
        """``node3.nic`` and ``node3.nic.out`` interleave exactly as a
        sort of the full names does."""
        hub = Instrumentation.of(Simulator())
        _Other(hub, "node3.nic.out")
        _Part(hub, "node3.nic")
        _Other(hub, "node3.nic_x")
        names = hub.names()
        assert names == sorted(names) == [
            "node3.nic.busy_ns", "node3.nic.depth", "node3.nic.hits",
            "node3.nic.out.hits", "node3.nic_x.hits"]
        assert hub.names("node3.nic") == names[:4]
        assert hub.names("node3.nic.out") == ["node3.nic.out.hits"]

    def test_prefix_filter_matches_whole_segments(self):
        hub = Instrumentation.of(Simulator())
        for name in ("node1.cache", "node10.cache", "node1"):
            _Other(hub, name)
        assert hub.names("node1") == ["node1.cache.hits", "node1.hits"]
        assert hub.names("node1.cache.hits") == ["node1.cache.hits"]

    def test_build_and_run_never_index_names(self):
        """A datacenter run and its SLO record read only one-offs by
        name, so no prefix index is ever built; enumerating needs none."""
        from repro.workload import DatacenterWorkload, WorkloadParams

        workload = DatacenterWorkload(WorkloadParams(
            width=4, height=4, requests=16, addr_map="strided")).run()
        assert workload.results()["responses"] == 16 - workload.results()[
            "local"]
        store = workload.system.instrumentation._store
        assert store.index is None
        workload.system.instrumentation.names()
        list(workload.system.instrumentation.metrics_jsonl())
        assert store.index is None
        workload.system.instrumentation.value("node0.cache.hits")
        assert store.index is not None

    def test_registry_reads_the_registered_histogram(self):
        """A forwarding wrapper put on ``DsmRuntime.fetch_ns`` (as a
        benchmark observer does) changes no registry read: the registry
        holds the Histogram it made, not the attribute."""
        from repro.workload.dsm_apps import DsmWorkload

        class Forward:
            def __init__(self, inner):
                self.inner = inner

            def observe(self, value):
                self.inner.observe(value)

        def run(wrap):
            workload = DsmWorkload(kind="stencil", width=2, height=2).start()
            if wrap:
                runtime = workload.runtime
                runtime.fetch_ns = Forward(runtime.fetch_ns)
                runtime.upgrade_ns = Forward(runtime.upgrade_ns)
            workload.run()
            hub = workload.system.instrumentation
            return hub.summary("dsm.fetch_ns"), list(hub.metrics_jsonl())

        plain, wrapped = run(False), run(True)
        assert plain[0]["count"] > 0
        assert wrapped == plain


class TestHistogram:
    def test_power_of_two_buckets(self):
        h = Histogram()
        for value in (0, 1, 2, 3, 4, 100):
            h.observe(value)
        assert h.count == 6
        assert h.mean() == pytest.approx(110 / 6)
        bounds = dict(h.buckets())
        assert bounds[0] == 1  # the 0 observation
        assert bounds[2] == 2  # 2 and 3
        assert bounds[64] == 1  # 100 lands in [64, 128)

    def test_negative_observation_rejected(self):
        with pytest.raises(ValueError):
            Histogram().observe(-1)


class TestEventBus:
    def test_inactive_by_default_and_emit_is_noop(self):
        hub = Instrumentation.of(Simulator())
        assert not hub.active
        assert hub.emit("a", "k", n=1) is None
        assert hub.events() == []

    def test_collects_with_schema(self):
        sim = Simulator()
        hub = Instrumentation.of(sim)
        hub.enable_events()
        sim.schedule(
            42, lambda: hub.emit("nic0", "nic.delivered", words=4)
        )
        sim.run()
        (event,) = hub.events()
        assert isinstance(event, Event)
        assert (event.time, event.source, event.kind) == (
            42, "nic0", "nic.delivered",
        )
        assert event.fields == {"words": 4}

    def test_kind_filter_and_index(self):
        hub = Instrumentation.of(Simulator())
        hub.enable_events(only_kinds={"keep"})
        hub.emit("a", "keep", n=1)
        hub.emit("a", "drop", n=2)
        assert [e.kind for e in hub.events()] == ["keep"]
        assert len(hub.events("keep")) == 1
        assert hub.events("drop") == []
        assert hub.event_kinds() == ["keep"]

    def test_limit_counts_drops(self):
        hub = Instrumentation.of(Simulator())
        hub.enable_events(limit=2)
        for _ in range(5):
            hub.emit("a", "k")
        assert len(hub.events()) == 2
        assert hub.dropped == 3

    def test_subscribe_unsubscribe(self):
        hub = Instrumentation.of(Simulator())
        seen = []
        callback = hub.subscribe(seen.append, kinds={"x"})
        assert hub.active
        hub.emit("a", "x")
        hub.emit("a", "y")
        assert [e.kind for e in seen] == ["x"]
        hub.unsubscribe(callback)
        assert not hub.active

    def test_disable_clears_active_unless_subscribed(self):
        hub = Instrumentation.of(Simulator())
        hub.enable_events()
        hub.disable_events()
        assert not hub.active
        hub.subscribe(lambda e: None)
        hub.enable_events()
        hub.disable_events()
        assert hub.active  # the subscriber still needs events

    def test_events_jsonl_sanitizes_fields(self):
        hub = Instrumentation.of(Simulator())
        hub.enable_events()
        hub.emit("a", "k", obj=object(), n=1, coords=[1, 2])
        (line,) = list(hub.events_jsonl())
        record = json.loads(line)
        assert set(record) == {"time", "source", "kind", "fields"}
        assert record["fields"]["n"] == 1
        assert record["fields"]["coords"] == [1, 2]
        assert isinstance(record["fields"]["obj"], str)


def _run_workload(instrument):
    """A 2-node automatic-update workload; returns its observables."""
    system = ShrimpSystem(2, 1)
    system.start()
    hub = system.instrumentation
    seen = []
    if instrument:
        hub.enable_events()
        hub.subscribe(seen.append)
    a, b = system.nodes
    mapping.establish(a, SRC, b, DST, PAGE_SIZE, MappingMode.AUTO_SINGLE)
    asm = Asm("invariance-probe")
    for i in range(8):
        asm.mov(Mem(disp=SRC + 4 * i), i + 1)
    asm.halt()
    Process(
        system.sim,
        a.cpu.run_to_halt(asm.build(), Context(stack_top=0x3F000)),
        "invariance-probe",
    ).start()
    system.run()
    observables = {
        "now": system.sim.now,
        "instructions": a.cpu.counts.total,
        "cycles": a.cpu.cycles_retired,
        "delivered": hub.value(b.nic.name + ".delivered"),
        "words": hub.value(b.nic.name + ".words_delivered"),
        "memory": tuple(b.memory.read_words(DST, 8)),
        "flits": hub.value("eject(1).flits"),
    }
    return observables, hub, seen


class TestTimingInvariance:
    def test_instrumentation_on_off_bit_for_bit(self):
        """The tentpole guarantee: enabling collection plus a live
        subscriber changes no simulated observable."""
        off, _hub_off, _ = _run_workload(instrument=False)
        on, hub_on, seen = _run_workload(instrument=True)
        assert on == off
        # And the instrumented run actually observed the datapath.
        assert hub_on.events("nic.delivered")
        assert seen
        delivered = hub_on.events("nic.delivered")
        assert len(delivered) == 8
        assert all(e.source == "node1.nic" for e in delivered)

    def test_events_appear_in_time_order(self):
        _, hub, _ = _run_workload(instrument=True)
        times = [e.time for e in hub.events()]
        assert times == sorted(times)
