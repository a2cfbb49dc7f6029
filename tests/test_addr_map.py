"""Properties of MeshTopology and the pluggable AddrMap family.

The topology owns the node-id encoding (SL701 bans inline copies); the
address maps own every address-to-home-node decision.  The properties
here are the contracts the rest of the tree leans on: the id/coordinate
bijection, the locate/global_of round trip, and full node coverage for
blocked and strided placement alike -- including non-power-of-two node
counts, where the strided map falls off its mask/shift fast path onto
exact divmod.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.machine.addrmap import (
    ADDR_MAPS,
    AddrMapError,
    BlockedAddrMap,
    StridedAddrMap,
    make_addr_map,
)
from repro.mesh.topology import (
    EAST,
    LOCAL,
    NORTH,
    SOUTH,
    WEST,
    MeshTopology,
    TopologyError,
)

dims = st.integers(min_value=1, max_value=9)
map_kinds = st.sampled_from(sorted(ADDR_MAPS))
#: Includes primes and other non-powers-of-two on purpose.
node_counts = st.integers(min_value=1, max_value=96)
tiles = st.integers(min_value=1, max_value=12)


# -- MeshTopology ------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(width=dims, height=dims)
def test_node_id_coordinate_bijection(width, height):
    topo = MeshTopology(width, height)
    seen = set()
    for coords in topo.iter_coords():
        node_id = topo.node_at(coords)
        assert topo.coords_of(node_id) == coords
        seen.add(node_id)
    assert seen == set(range(topo.node_count))
    assert list(topo.iter_nodes()) == sorted(seen)


@settings(max_examples=40, deadline=None)
@given(width=dims, height=dims)
def test_neighbors_are_symmetric_and_in_bounds(width, height):
    topo = MeshTopology(width, height)
    for coords in topo.iter_coords():
        for port, ncoords in topo.neighbors(coords):
            assert port in (NORTH, SOUTH, EAST, WEST)
            assert topo.contains(ncoords)
            reverse_ports = {p for p, c in topo.neighbors(ncoords)
                             if c == coords}
            assert len(reverse_ports) == 1


@settings(max_examples=40, deadline=None)
@given(width=dims, height=dims)
def test_forward_pairs_cover_every_edge_once(width, height):
    topo = MeshTopology(width, height)
    edges = set()
    for coords, port, ncoords, reverse in topo.forward_neighbor_pairs():
        assert port in (EAST, SOUTH)
        assert reverse in (WEST, NORTH)
        assert (coords, ncoords) not in edges
        edges.add((coords, ncoords))
    expected = (width - 1) * height + width * (height - 1)
    assert len(edges) == expected


@settings(max_examples=40, deadline=None)
@given(width=dims, height=dims, data=st.data())
def test_route_port_steps_reduce_hop_count(width, height, data):
    topo = MeshTopology(width, height)
    src = data.draw(st.integers(0, topo.node_count - 1), label="src")
    dst = data.draw(st.integers(0, topo.node_count - 1), label="dst")
    here = topo.coords_of(src)
    dest = topo.coords_of(dst)
    steps = 0
    while here != dest:
        port = topo.route_port(here, dest)
        assert port != LOCAL
        moves = {EAST: (1, 0), WEST: (-1, 0), SOUTH: (0, 1), NORTH: (0, -1)}
        dx, dy = moves[port]
        here = (here[0] + dx, here[1] + dy)
        steps += 1
    assert steps == topo.hop_count(src, dst)
    assert topo.route_port(dest, dest) == LOCAL


def test_invalid_topologies_and_lookups_raise():
    with pytest.raises(TopologyError):
        MeshTopology(0, 4)
    topo = MeshTopology(3, 2)
    with pytest.raises(TopologyError):
        topo.node_at((3, 0))
    with pytest.raises(TopologyError):
        topo.coords_of(6)


# -- AddrMap -----------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(kind=map_kinds, node_count=node_counts, tiles_per_node=tiles,
       data=st.data())
def test_locate_global_round_trip(kind, node_count, tiles_per_node, data):
    amap = make_addr_map(kind, node_count, log2_tile_size=6,
                         tiles_per_node=tiles_per_node)
    addr = data.draw(
        st.integers(min_value=0, max_value=amap.space_bytes - 1),
        label="addr",
    )
    node, local = amap.locate(addr)
    assert 0 <= node < node_count
    assert 0 <= local < amap.node_bytes
    assert amap.global_of(node, local) == addr
    assert amap.node_of(addr) == node


@settings(max_examples=60, deadline=None)
@given(kind=map_kinds, node_count=node_counts, tiles_per_node=tiles,
       data=st.data())
def test_global_locate_round_trip(kind, node_count, tiles_per_node, data):
    amap = make_addr_map(kind, node_count, log2_tile_size=6,
                         tiles_per_node=tiles_per_node)
    node = data.draw(st.integers(0, node_count - 1), label="node")
    local = data.draw(
        st.integers(min_value=0, max_value=amap.node_bytes - 1),
        label="local",
    )
    addr = amap.global_of(node, local)
    assert amap.locate(addr) == (node, local)


@settings(max_examples=40, deadline=None)
@given(kind=map_kinds, node_count=node_counts, tiles_per_node=tiles)
def test_every_node_owns_its_share(kind, node_count, tiles_per_node):
    """Walking one address per tile touches every node equally."""
    amap = make_addr_map(kind, node_count, log2_tile_size=6,
                         tiles_per_node=tiles_per_node)
    owners = {}
    tile_bytes = amap.tile_bytes
    for tile in range(node_count * tiles_per_node):
        node = amap.node_of(tile * tile_bytes)
        owners[node] = owners.get(node, 0) + 1
    assert set(owners) == set(range(node_count))
    assert set(owners.values()) == {tiles_per_node}


def test_blocked_vs_strided_disagree_beyond_one_tile():
    """The two policies are genuinely different placements."""
    blocked = BlockedAddrMap(8, log2_tile_size=6, tiles_per_node=4)
    strided = StridedAddrMap(8, log2_tile_size=6, tiles_per_node=4)
    # Tiles 0..3 are node 0's block; strided spreads them across 0..3.
    assert [blocked.node_of(t << 6) for t in range(8)] == [0, 0, 0, 0,
                                                          1, 1, 1, 1]
    assert [strided.node_of(t << 6) for t in range(8)] == [0, 1, 2, 3,
                                                          4, 5, 6, 7]


def test_non_pow2_strided_uses_exact_divmod():
    amap = StridedAddrMap(6, log2_tile_size=6, tiles_per_node=3)
    homes = [amap.node_of(t << 6) for t in range(18)]
    assert homes == [0, 1, 2, 3, 4, 5] * 3


def test_out_of_range_and_bad_parameters_raise():
    amap = make_addr_map("blocked", 4, log2_tile_size=6)
    with pytest.raises(AddrMapError):
        amap.locate(amap.space_bytes)
    with pytest.raises(AddrMapError):
        amap.global_of(4, 0)
    with pytest.raises(AddrMapError):
        amap.global_of(0, amap.node_bytes)
    with pytest.raises(AddrMapError):
        make_addr_map("blocked", 0)
    with pytest.raises(AddrMapError):
        make_addr_map("diagonal", 4)
