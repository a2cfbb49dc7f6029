"""Tests for the fault-injection subsystem (repro.faults)."""

import pytest

from repro.ckpt.divergence import diff_fingerprints, fingerprint
from repro.cpu import Asm, Context, Mem
from repro.faults import (
    CorruptEveryNth,
    CorruptWindow,
    FaultController,
    FaultError,
    FaultPlan,
    FifoPressure,
    LinkDown,
    LinkUp,
    MisrouteEveryNth,
    MisrouteWindow,
    RouterResume,
    RouterStall,
)
from repro.machine import ShrimpSystem, mapping
from repro.memsys.address import PAGE_SIZE
from repro.nic.nipt import MappingMode
from repro.sim import Process
from repro.sim.instrument import Instrumentation

SRC, DST = 0x10000, 0x20000


def make_system(nodes=2):
    system = ShrimpSystem(nodes, 1)
    system.start()
    a, b = system.nodes[0], system.nodes[1]
    mapping.establish(a, SRC, b, DST, PAGE_SIZE, MappingMode.AUTO_SINGLE)
    return system, a, b


def drive_stores(system, node, count):
    asm = Asm("driver")
    for i in range(count):
        asm.mov(Mem(disp=SRC + 4 * i), i + 1)
    asm.halt()
    Process(
        system.sim,
        node.cpu.run_to_halt(asm.build(), Context(stack_top=0x3F000)),
        "driver",
    ).start()
    system.run()


class TestFaultPlan:
    def test_events_sorted_by_time(self):
        plan = FaultPlan()
        plan.add(LinkUp(500, "inject(0)"))
        plan.add(LinkDown(100, "inject(0)"))
        assert [e.at for e in plan.events] == [100, 500]

    def test_roundtrips_through_dict(self):
        plan = FaultPlan(
            events=[
                LinkDown(10, "inject(0)"),
                LinkUp(20, "inject(0)"),
                RouterStall(5, (1, 0)),
                RouterResume(15, (1, 0)),
                CorruptWindow(0, 0, 3, until=100),
                MisrouteWindow(2, 0, 2, wrong_node=2, until=50),
                FifoPressure(1, 1, 256, until=99, fifo="in"),
            ],
            seed=7,
        )
        clone = FaultPlan.from_dict(plan.to_dict())
        assert clone.to_dict() == plan.to_dict()
        assert len(clone) == len(plan)

    def test_seeded_plans_are_deterministic(self):
        kwargs = dict(
            duration_ns=10_000,
            link_names=["inject(0)", "eject(1)"],
            router_coords=[(0, 0), (1, 0)],
            nodes=[0, 1],
            corrupt_every_nth=3,
            misroute_every_nth=4,
            misroute_to=1,
            pressure_bytes=128,
        )
        one = FaultPlan.seeded(99, **kwargs)
        two = FaultPlan.seeded(99, **kwargs)
        other = FaultPlan.seeded(100, **kwargs)
        assert one.to_dict() == two.to_dict()
        assert other.to_dict() != one.to_dict()

    def test_seeded_windows_are_paired_within_duration(self):
        plan = FaultPlan.seeded(
            3, duration_ns=5_000, link_names=["inject(0)"],
            router_coords=[(0, 0)], flaps_per_link=2, stalls_per_router=2,
        )
        downs = [e for e in plan if e.type_name == "link_down"]
        ups = [e for e in plan if e.type_name == "link_up"]
        assert len(downs) == len(ups) == 2
        stalls = [e for e in plan if e.type_name == "router_stall"]
        resumes = [e for e in plan if e.type_name == "router_resume"]
        assert len(stalls) == len(resumes) == 2
        assert all(0 <= e.at <= 5_000 for e in plan)

    def test_validation(self):
        with pytest.raises(ValueError):
            LinkDown(-1, "inject(0)")
        with pytest.raises(ValueError):
            CorruptWindow(100, 0, 2, until=100)
        with pytest.raises(ValueError):
            CorruptWindow(0, 0, 0)
        with pytest.raises(ValueError):
            FifoPressure(0, 0, 64, fifo="sideways")
        with pytest.raises(TypeError):
            FaultPlan().add("not an event")


class TestInjectors:
    def test_corruption_drop_accounting(self):
        system, a, b = make_system()
        injector = CorruptEveryNth(a.nic, 4)
        drive_stores(system, a, 20)
        assert injector.injected == 5
        assert b.nic.crc_drops.value == 5
        assert b.nic.packets_delivered.value == 15

    def test_detach_restores_clean_path(self):
        system, a, b = make_system()
        injector = CorruptEveryNth(a.nic, 1)
        injector.detach()
        drive_stores(system, a, 5)
        assert b.nic.crc_drops.value == 0
        assert b.nic.packets_delivered.value == 5

    def test_bad_interval_rejected(self):
        system, a, _b = make_system()
        with pytest.raises(ValueError):
            CorruptEveryNth(a.nic, 0)

    def test_misrouted_packets_rejected_by_coordinate_check(self):
        system = ShrimpSystem(3, 1)
        system.start()
        a, b, c = system.nodes
        mapping.establish(a, SRC, b, DST, PAGE_SIZE, MappingMode.AUTO_SINGLE)
        injector = MisrouteEveryNth(a.nic, every_nth=2, wrong_node=2)
        drive_stores(system, a, 10)
        # Half the packets physically arrive at node 2 with their headers
        # intact; the absolute-coordinate check (not the CRC) rejects them.
        assert injector.injected == 5
        assert c.nic.coord_drops.value == 5
        assert c.nic.crc_drops.value == 0
        assert c.nic.packets_delivered.value == 0
        assert b.nic.packets_delivered.value == 5
        assert all(c.memory.read_word(DST + 4 * i) == 0 for i in range(10))


class TestController:
    def test_unknown_targets_rejected_at_arm_time(self):
        system, _a, _b = make_system()
        for plan in (
            FaultPlan([LinkDown(0, "no-such-link")]),
            FaultPlan([RouterStall(0, (9, 9))]),
            FaultPlan([CorruptWindow(0, 99, 2)]),
            FaultPlan([MisrouteWindow(0, 0, 2, wrong_node=99)]),
        ):
            with pytest.raises(FaultError):
                FaultController(system, plan).arm()

    def test_arming_twice_rejected(self):
        system, _a, _b = make_system()
        controller = FaultController(system, FaultPlan()).arm()
        with pytest.raises(FaultError):
            controller.arm()

    def test_link_flap_delays_but_does_not_lose_traffic(self):
        system, a, b = make_system()
        hub = Instrumentation.of(system.sim)
        hub.enable_events()
        plan = FaultPlan([
            LinkDown(0, "inject(0)"),
            LinkUp(40_000, "inject(0)"),
        ])
        FaultController(system, plan).arm()
        drive_stores(system, a, 5)
        assert b.nic.packets_delivered.value == 5
        assert hub.value("faults.link_down") == 1
        assert hub.value("faults.link_up") == 1
        assert len(hub.events("fault.link_down")) == 1
        assert len(hub.events("fault.link_up")) == 1
        # The flap is visible in the delivery time: everything waited for
        # the link to come back.
        assert system.sim.now > 40_000

    def test_router_stall_window(self):
        system = ShrimpSystem(3, 1)
        system.start()
        a, c = system.nodes[0], system.nodes[2]
        mapping.establish(a, SRC, c, DST, PAGE_SIZE, MappingMode.AUTO_SINGLE)
        plan = FaultPlan([
            RouterStall(0, (1, 0)),
            RouterResume(50_000, (1, 0)),
        ])
        FaultController(system, plan).arm()
        drive_stores(system, a, 5)
        assert c.nic.packets_delivered.value == 5
        assert not system.backplane.routers[(1, 0)].is_stalled
        assert system.sim.now > 50_000

    def test_corrupt_window_detaches_at_until(self):
        system, a, b = make_system()
        plan = FaultPlan([CorruptWindow(0, 0, 1, until=1)])
        controller = FaultController(system, plan).arm()
        # The window closes at t=1ns, before any CPU store reaches the
        # NIC, so everything is delivered cleanly.
        drive_stores(system, a, 5)
        assert b.nic.packets_delivered.value == 5
        assert b.nic.crc_drops.value == 0
        assert controller.injectors[0].injected == 0

    def test_fifo_pressure_window(self):
        system, a, b = make_system()
        hub = Instrumentation.of(system.sim)
        fifo = a.nic.outgoing_fifo
        plan = FaultPlan([
            FifoPressure(0, 0, fifo.threshold_bytes - 1, until=30_000),
        ])
        FaultController(system, plan).arm()
        drive_stores(system, a, 5)
        assert b.nic.packets_delivered.value == 5
        assert hub.value("faults.fifo_pressure") == 1
        assert fifo.reserved_bytes == 0  # window closed


class TestGoldenZeroFaultPlan:
    def test_empty_plan_is_bit_for_bit_invisible(self):
        def run_one(with_plan):
            system, a, _b = make_system()
            if with_plan:
                FaultController(system, FaultPlan()).arm()
            drive_stores(system, a, 10)
            return fingerprint(system)

        plain = run_one(False)
        planned = run_one(True)
        assert diff_fingerprints(plain, planned) == []
