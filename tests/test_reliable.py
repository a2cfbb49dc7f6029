"""Tests for the reliable-delivery channel (repro.msg.reliable)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.faults import (
    CorruptWindow,
    FaultController,
    FaultPlan,
    LinkDown,
    LinkUp,
    MisrouteWindow,
)
from repro.machine import ShrimpSystem
from repro.memsys.address import PAGE_SIZE
from repro.msg.reliable import ReliableChannel

BASE = 0x40000


def build_channel(payloads, **kwargs):
    system = ShrimpSystem(2, 1)
    system.start()
    channel = ReliableChannel(system, 0, 1, BASE, BASE, **kwargs)
    for payload in payloads:
        channel.send(payload)
    channel.close()
    return system, channel


def sibling_channels(payloads):
    """Two started classic channels out of node 0 of a 2x2, to nodes 1
    and 2, each carrying ``payloads``: they share node 0's DMA engine."""
    system = ShrimpSystem(2, 2)
    system.start()
    channels = [
        ReliableChannel(system, 0, dst, BASE + 4 * PAGE_SIZE * index, BASE)
        for index, dst in enumerate((1, 2))
    ]
    for channel in channels:
        for payload in payloads:
            channel.send(payload)
        channel.close()
        channel.start()
    return system, channels


def assert_exactly_once(channel, payloads):
    """The exactly-once, in-order contract every run must satisfy."""
    assert channel.complete
    assert [seq for seq, _ in channel.delivered] == list(range(len(payloads)))
    assert [payload for _, payload in channel.delivered] == payloads
    flat = [word for payload in payloads for word in payload]
    assert channel.app_words() == flat


def some_payloads(count=10):
    return [[(k << 8) | 1, 2 * k, 3 * k + 7] for k in range(count)]


class TestFaultFree:
    def test_delivers_exactly_once_in_order(self):
        payloads = some_payloads()
        system, channel = build_channel(payloads)
        channel.start()
        system.run()
        assert_exactly_once(channel, payloads)
        assert channel.retransmits.value == 0
        assert channel.frames_replayed.value == 0

    def test_single_and_max_size_payloads(self):
        payloads = [[42], list(range(8))]
        system, channel = build_channel(payloads)
        channel.start()
        system.run()
        assert_exactly_once(channel, payloads)

    def test_sibling_channels_share_the_dma_engine(self):
        # Two channels out of node 0 fill and arm one DMA engine: the
        # node's lock serialises them, so no arm is dropped as busy and
        # no frame needs a retransmit.
        payloads = some_payloads()
        system, channels = sibling_channels(payloads)
        system.run()
        for channel in channels:
            assert_exactly_once(channel, payloads)
            assert channel.retransmits.value == 0
        assert system.instrumentation.value("node0.nic.dma.busy") == 0

    def test_sender_queued_for_the_dma_lock_is_not_killable(self):
        # The crash gate must not kill a sender holding a lock ticket:
        # the lock would then wait forever for a release that never comes.
        system, channels = sibling_channels([[1, 2, 3]])
        lock = system.nodes[0].nic.dma_engine.lock
        while lock._next_ticket - lock._serving < 2:
            system.sim.step()
        queued = [ch for ch in channels if ch.name != lock.owner]
        assert len(queued) == 1
        assert not queued[0].killable(0)
        system.run()
        assert all(channel.complete for channel in channels)

    def test_validation(self):
        system = ShrimpSystem(2, 1)
        system.start()
        with pytest.raises(ValueError):
            ReliableChannel(system, 0, 1, BASE + 4, BASE)  # unaligned
        with pytest.raises(ValueError):
            ReliableChannel(system, 0, 1, BASE, BASE,
                            window_slots=64, payload_words=32)  # > one page
        channel = ReliableChannel(system, 0, 1, BASE, BASE)
        with pytest.raises(ValueError):
            channel.send([])
        with pytest.raises(ValueError):
            channel.send(list(range(9)))
        channel.close()
        with pytest.raises(RuntimeError):
            channel.send([1])


class TestUnderFaults:
    def test_survives_corrupted_data_frames(self):
        payloads = some_payloads()
        system, channel = build_channel(payloads)
        # Every outgoing packet from the sender corrupted for a while:
        # data frames die at the receiver's CRC check until the window
        # closes, then retransmission catches everything up.
        plan = FaultPlan([CorruptWindow(0, 0, 1, until=60_000)])
        FaultController(system, plan).arm()
        channel.start()
        system.run()
        assert_exactly_once(channel, payloads)
        assert channel.retransmits.value > 0

    def test_survives_corrupted_acks(self):
        payloads = some_payloads()
        system, channel = build_channel(payloads)
        # The receiver's acks die instead: data frames arrive fine, the
        # sender times out and retransmits delivered frames, and the
        # receiver must suppress the duplicates.
        plan = FaultPlan([CorruptWindow(0, 1, 1, until=60_000)])
        FaultController(system, plan).arm()
        channel.start()
        system.run()
        assert_exactly_once(channel, payloads)
        assert channel.retransmits.value > 0

    def test_survives_misrouted_frames(self):
        payloads = some_payloads()
        system, channel = build_channel(payloads)
        # Every 2nd sender packet steered back to node 0 itself, where
        # the coordinate check drops it.
        plan = FaultPlan([MisrouteWindow(0, 0, 2, wrong_node=0,
                                         until=60_000)])
        FaultController(system, plan).arm()
        channel.start()
        system.run()
        assert_exactly_once(channel, payloads)
        assert system.nodes[0].nic.coord_drops.value > 0

    def test_survives_link_flaps(self):
        payloads = some_payloads()
        system, channel = build_channel(payloads)
        plan = FaultPlan([
            LinkDown(5_000, "inject(0)"),
            LinkUp(45_000, "inject(0)"),
            LinkDown(20_000, "eject(1)"),
            LinkUp(70_000, "eject(1)"),
        ])
        FaultController(system, plan).arm()
        channel.start()
        system.run()
        assert_exactly_once(channel, payloads)


class TestRetransmitDeadline:
    """The retransmit timeout must be exact, not aliased to the poll tick.

    The sender used to check ``now - last_send >= timeout`` only at
    ``ack_poll_ns`` intervals, so the effective backoff carried up to a
    full poll interval of jitter that depended on where the poll ticks
    happened to land.  With the explicit deadline wake-up the first
    retransmit time is independent of ``ack_poll_ns``.
    """

    def first_retransmit_time(self, ack_poll_ns):
        system, channel = build_channel([[1, 2, 3]], ack_poll_ns=ack_poll_ns)
        hub = system.instrumentation
        hub.enable_events(only_kinds={"msg.retransmit"})
        # Outbound link dead from the start: the data frame never arrives,
        # no ack ever comes back, and the sender must hit its deadline.
        plan = FaultPlan([LinkDown(0, "inject(0)"), LinkUp(120_000, "inject(0)")])
        FaultController(system, plan).arm()
        channel.start()
        system.run()
        assert_exactly_once(channel, [[1, 2, 3]])
        events = hub.events("msg.retransmit")
        assert events, "expected at least one retransmit"
        return events[0].time

    def test_first_retransmit_independent_of_poll_interval(self):
        times = {self.first_retransmit_time(poll) for poll in (600, 700, 901)}
        assert len(times) == 1, times


class TestSeededFaultPlanProperty:
    """The tentpole property: ANY seeded FaultPlan (no crashes -- those
    need recovery orchestration) leaves the reliable channel delivering
    every payload exactly once, in order."""

    def run_seeded(self, seed):
        payloads = some_payloads(8)
        system, channel = build_channel(payloads)
        plan = FaultPlan.seeded(
            seed,
            duration_ns=80_000,
            link_names=["inject(0)", "eject(1)", "inject(1)", "eject(0)"],
            router_coords=[(0, 0), (1, 0)],
            nodes=[0, 1],
            corrupt_every_nth=2,
            pressure_bytes=96,
        )
        FaultController(system, plan).arm()
        channel.start()
        system.run()
        assert_exactly_once(channel, payloads)

    @pytest.mark.parametrize("seed", [0, 1, 7, 1234, 0xDEADBEEF])
    def test_known_seeds(self, seed):
        self.run_seeded(seed)

    @pytest.mark.slow
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**64 - 1))
    def test_any_seed(self, seed):
        self.run_seeded(seed)
