"""Coverage of all four mesh directions and router corner cases."""

import pytest

from repro.sim import Simulator, Process
from repro.mesh import Backplane, Packet
from repro.mesh.router import Router, NORTH, SOUTH, EAST, WEST, LOCAL
from repro.memsys.params import MeshParams


def make_mesh(width, height):
    sim = Simulator()
    mesh = Backplane(sim, MeshParams(), width, height)
    mesh.start()
    return sim, mesh


def send_one(sim, mesh, src, dst, payload=(1,)):
    pkt = Packet(mesh.coords_of(src), mesh.coords_of(dst), 0, list(payload))
    out = []

    def sender():
        yield from mesh.inject(src, pkt)

    def receiver():
        received = yield from mesh.receive_packet(dst)
        out.append(received)

    Process(sim, sender(), "s").start()
    Process(sim, receiver(), "r").start()
    sim.run_until_idle()
    assert out and out[0] is pkt
    out[0].verify(mesh.coords_of(dst))


class TestAllDirections:
    def test_east(self):
        sim, mesh = make_mesh(4, 1)
        send_one(sim, mesh, 0, 3)

    def test_west(self):
        sim, mesh = make_mesh(4, 1)
        send_one(sim, mesh, 3, 0)

    def test_south(self):
        sim, mesh = make_mesh(1, 4)
        send_one(sim, mesh, 0, 3)

    def test_north(self):
        sim, mesh = make_mesh(1, 4)
        send_one(sim, mesh, 3, 0)

    def test_northwest_diagonal(self):
        sim, mesh = make_mesh(4, 4)
        send_one(sim, mesh, 15, 0)  # west first, then north (X-then-Y)

    def test_southeast_diagonal(self):
        sim, mesh = make_mesh(4, 4)
        send_one(sim, mesh, 0, 15)

    def test_bidirectional_simultaneously(self):
        sim, mesh = make_mesh(4, 4)
        a = Packet(mesh.coords_of(0), mesh.coords_of(15), 0, [1] * 8)
        b = Packet(mesh.coords_of(15), mesh.coords_of(0), 0, [2] * 8)
        out = {0: [], 15: []}

        def sender(node, pkt):
            yield from mesh.inject(node, pkt)

        def receiver(node):
            pkt = yield from mesh.receive_packet(node)
            out[node].append(pkt)

        Process(sim, sender(0, a), "sa").start()
        Process(sim, sender(15, b), "sb").start()
        Process(sim, receiver(15), "ra").start()
        Process(sim, receiver(0), "rb").start()
        sim.run_until_idle()
        assert out[15] == [a] and out[0] == [b]


class TestRouterInternals:
    def test_route_decision_is_x_then_y(self):
        sim = Simulator()
        router = Router(sim, MeshParams(), (1, 1))
        assert router.route((2, 2)) == EAST  # X corrected first
        assert router.route((0, 0)) == WEST
        assert router.route((1, 2)) == SOUTH
        assert router.route((1, 0)) == NORTH
        assert router.route((1, 1)) == LOCAL

    def test_double_start_rejected(self):
        sim, mesh = make_mesh(2, 1)
        with pytest.raises(RuntimeError):
            mesh.routers[(0, 0)].start()

    def test_one_by_one_mesh_loopback(self):
        sim, mesh = make_mesh(1, 1)
        send_one(sim, mesh, 0, 0)


class TestRectangularMeshes:
    @pytest.mark.parametrize("width,height", [(2, 3), (5, 2), (3, 5)])
    def test_all_pairs_reachable(self, width, height):
        sim, mesh = make_mesh(width, height)
        n = mesh.node_count
        pairs = [(s, d) for s in range(n) for d in range(n) if s != d]
        out = []

        def sender(src, dst):
            pkt = Packet(mesh.coords_of(src), mesh.coords_of(dst),
                         0, [src * 100 + dst])
            yield from mesh.inject(src, pkt)

        def receiver(dst, expect):
            for _ in range(expect):
                pkt = yield from mesh.receive_packet(dst)
                out.append((mesh.node_at(pkt.dest_coords), pkt.payload[0]))

        expect_per_dst = {}
        for src, dst in pairs:
            expect_per_dst[dst] = expect_per_dst.get(dst, 0) + 1
        for src, dst in pairs:
            Process(sim, sender(src, dst), "s%d-%d" % (src, dst)).start()
        for dst, expect in expect_per_dst.items():
            Process(sim, receiver(dst, expect), "r%d" % dst).start()
        sim.run(max_events=5_000_000)
        assert len(out) == len(pairs)
        for dst, payload in out:
            assert payload % 100 == dst
