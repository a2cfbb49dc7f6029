"""Integration tests for the mesh: delivery, ordering, backpressure, deadlock."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import Simulator, Process
from repro.mesh import Backplane, Packet
from repro.memsys.params import MeshParams


def make_mesh(width=4, height=4, **overrides):
    sim = Simulator()
    params = MeshParams(**overrides)
    mesh = Backplane(sim, params, width, height)
    mesh.start()
    return sim, mesh


def sender(sim, mesh, node_id, packets):
    def proc():
        for pkt in packets:
            yield from mesh.inject(node_id, pkt)

    return Process(sim, proc(), "sender%d" % node_id).start()


def receiver(sim, mesh, node_id, count, out):
    def proc():
        for _ in range(count):
            pkt = yield from mesh.receive_packet(node_id)
            out.append((sim.now, pkt))

    return Process(sim, proc(), "receiver%d" % node_id).start()


def test_geometry_round_trip():
    _sim, mesh = make_mesh(4, 4)
    assert mesh.node_count == 16
    for node in range(16):
        assert mesh.node_at(mesh.coords_of(node)) == node
    assert mesh.coords_of(0) == (0, 0)
    assert mesh.coords_of(5) == (1, 1)
    assert mesh.hop_count(0, 15) == 6


def test_bad_geometry_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        Backplane(sim, MeshParams(), 0, 4)
    _sim, mesh = make_mesh(2, 2)
    with pytest.raises(ValueError):
        mesh.coords_of(4)
    with pytest.raises(ValueError):
        mesh.node_at((2, 0))


def test_single_packet_delivery():
    sim, mesh = make_mesh(4, 4)
    pkt = Packet(mesh.coords_of(0), mesh.coords_of(15), 0x1000, [1, 2, 3])
    out = []
    sender(sim, mesh, 0, [pkt])
    receiver(sim, mesh, 15, 1, out)
    sim.run_until_idle()
    assert len(out) == 1
    _t, delivered = out[0]
    assert delivered is pkt
    delivered.verify(mesh.coords_of(15))


def test_delivery_to_self_not_through_mesh_edge():
    sim, mesh = make_mesh(2, 2)
    pkt = Packet(mesh.coords_of(0), mesh.coords_of(0), 0x0, [7])
    out = []
    sender(sim, mesh, 0, [pkt])
    receiver(sim, mesh, 0, 1, out)
    sim.run_until_idle()
    assert out[0][1] is pkt


def test_latency_scales_with_hops():
    results = {}
    for dest in (1, 3, 15):
        sim, mesh = make_mesh(4, 4)
        pkt = Packet(mesh.coords_of(0), mesh.coords_of(dest), 0, [1])
        out = []
        sender(sim, mesh, 0, [pkt])
        receiver(sim, mesh, dest, 1, out)
        sim.run_until_idle()
        results[mesh.hop_count(0, dest)] = out[0][0]
    assert results[1] < results[3] < results[6]


def test_network_latency_is_sub_microsecond():
    """Hardware routing latency is nearly negligible (paper sections 1, 5.1)."""
    sim, mesh = make_mesh(4, 4)
    pkt = Packet(mesh.coords_of(0), mesh.coords_of(15), 0, [1])
    out = []
    sender(sim, mesh, 0, [pkt])
    receiver(sim, mesh, 15, 1, out)
    sim.run_until_idle()
    assert out[0][0] < 1000  # under 1 us even corner to corner


def test_in_order_delivery_same_pair():
    """The backplane preserves order from each sender to each receiver."""
    sim, mesh = make_mesh(4, 4)
    packets = [
        Packet(mesh.coords_of(0), mesh.coords_of(15), 0, [i + 1]) for i in range(20)
    ]
    out = []
    sender(sim, mesh, 0, packets)
    receiver(sim, mesh, 15, 20, out)
    sim.run_until_idle()
    assert [p.payload[0] for _t, p in out] == list(range(1, 21))


def test_wormhole_worms_do_not_interleave():
    """Two senders target one receiver; each packet arrives whole."""
    sim, mesh = make_mesh(4, 1)
    a = [Packet(mesh.coords_of(0), mesh.coords_of(3), 0, [100 + i] * 8)
         for i in range(5)]
    b = [Packet(mesh.coords_of(1), mesh.coords_of(3), 0, [200 + i] * 8)
         for i in range(5)]
    out = []
    sender(sim, mesh, 0, a)
    sender(sim, mesh, 1, b)
    receiver(sim, mesh, 3, 10, out)
    sim.run_until_idle()
    # receive_packet itself raises on interleaved worms; check totals too.
    assert len(out) == 10
    froms = [p.payload[0] for _t, p in out]
    assert sorted(froms) == sorted([x.payload[0] for x in a + b])


def test_backpressure_blocks_sender():
    """With a slow receiver and tiny buffers, injection must stall."""
    sim, mesh = make_mesh(2, 1, input_buffer_flits=2)
    packets = [Packet((0, 0), (1, 0), 0, [i] * 16) for i in range(4)]
    send_done = []

    def send_proc():
        for pkt in packets:
            yield from mesh.inject(0, pkt)
        send_done.append(sim.now)

    out = []

    def slow_receive():

        for _ in range(4):
            yield 50_000
            pkt = yield from mesh.receive_packet(1)
            out.append(pkt)

    Process(sim, send_proc(), "send").start()
    Process(sim, slow_receive(), "recv").start()
    sim.run_until_idle()
    assert len(out) == 4
    # The sender cannot have finished before the receiver started draining.
    assert send_done[0] > 50_000


@settings(max_examples=10, deadline=None)
@given(
    flows=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=8),  # src node (3x3)
            st.integers(min_value=0, max_value=8),  # dst node
            st.integers(min_value=1, max_value=5),  # packet count
        ),
        min_size=1,
        max_size=8,
    )
)
def test_all_traffic_eventually_delivered(flows):
    """Property (deadlock freedom): random many-to-many traffic all arrives,
    in per-pair order, with intact CRCs."""
    sim, mesh = make_mesh(3, 3, input_buffer_flits=4)
    expected = {}
    for src, dst, count in flows:
        expected.setdefault((src, dst), 0)
    # Build per-src packet sequences with sequence numbers per pair.
    per_src = {}
    for src, dst, count in flows:
        for _ in range(count):
            seq = expected[(src, dst)]
            expected[(src, dst)] += 1
            per_src.setdefault(src, []).append(
                Packet(mesh.coords_of(src), mesh.coords_of(dst), dst, [seq])
            )
    per_dst_count = {}
    for (src, dst), count in expected.items():
        per_dst_count[dst] = per_dst_count.get(dst, 0) + count
    outs = {dst: [] for dst in per_dst_count}
    for src, packets in per_src.items():
        sender(sim, mesh, src, packets)
    for dst, count in per_dst_count.items():
        receiver(sim, mesh, dst, count, outs[dst])
    sim.run(max_events=2_000_000)
    for dst, count in per_dst_count.items():
        assert len(outs[dst]) == count
        # Per-pair in-order delivery of sequence numbers.
        seen = {}
        for _t, pkt in outs[dst]:
            src_node = mesh.node_at(pkt.src_coords)
            expected_seq = seen.get(src_node, 0)
            assert pkt.payload[0] == expected_seq
            seen[src_node] = expected_seq + 1
        for _t, pkt in outs[dst]:
            pkt.verify(mesh.coords_of(dst))
