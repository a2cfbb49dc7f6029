"""Pluggable address-to-node maps: who owns which slice of a global space.

Datacenter-style workloads address a flat *service address space* (keys,
pages, shared-memory offsets) that must be scattered across the mesh.
An :class:`AddrMap` owns that decision -- every address-to-node lookup in
the tree goes through one, so the placement policy is swappable without
touching the layers that consume it (kernel placement, the workload
generator, future DSM ownership).

Two policies, following the classic tile-mapping pair (the ``NetAddrMap``
exemplar of esesc-style simulators):

- **blocked** -- each node owns one contiguous run of
  ``tiles_per_node`` tiles.  Neighbouring addresses live on the same
  node: great locality, but a popularity-skewed key distribution lands
  its whole hot head on one tile owner.
- **strided** -- consecutive tiles round-robin across nodes.  Spatial
  locality is sacrificed to spread hot spots: adjacent tiles always live
  on different nodes.

Both directions of the map are exact: ``locate`` splits a global address
into ``(node, local offset)`` and ``global_of`` inverts it bit-for-bit,
which is what the hypothesis round-trip properties pin.

Each policy is one ``divmod`` on the tile index (for a power of two it
gives what a mask and a shift would).  The maps are off the hot path:
one ``node_of`` per DSM home lookup, and one per request while the
workload's schedule is built.  (The exemplar's non-power-of-two fold --
``tile & next_pow2_mask``, minus ``node_count`` when it overshoots -- is
equivalent to ``(tile & mask) % node_count`` but has no exact inverse
with even per-node indexing, so divmod it is, which keeps
``locate``/``global_of`` mutually inverse at any node count.)
"""


class AddrMapError(ValueError):
    """Raised for invalid construction parameters or out-of-range addresses."""


class AddrMap:
    """Base: a global space of ``node_count * tiles_per_node`` tiles.

    Subclasses implement the tile -> (node, local tile) policy in
    ``_split_tile`` and its inverse ``_join_tile``; everything else
    (offset handling, validation, the public API) is shared.
    """

    kind = None  # "blocked" | "strided", set by subclasses

    def __init__(self, node_count, log2_tile_size=12, tiles_per_node=1):
        if node_count < 1:
            raise AddrMapError("need at least one node, got %r" % node_count)
        if not 0 <= log2_tile_size <= 40:
            raise AddrMapError(
                "log2_tile_size must be in [0, 40], got %r" % log2_tile_size
            )
        if tiles_per_node < 1:
            raise AddrMapError(
                "need at least one tile per node, got %r" % tiles_per_node
            )
        self.node_count = node_count
        self.log2_tile_size = log2_tile_size
        self.tiles_per_node = tiles_per_node
        self.tile_bytes = 1 << log2_tile_size
        self.node_bytes = tiles_per_node << log2_tile_size
        self.total_tiles = node_count * tiles_per_node
        self.space_bytes = self.total_tiles << log2_tile_size
        self._offset_mask = self.tile_bytes - 1

    # -- the policy (subclass responsibility) ----------------------------------

    def _split_tile(self, tile):
        """Global tile index -> (node, local tile index)."""
        raise NotImplementedError

    def _join_tile(self, node, local_tile):
        """Exact inverse of :meth:`_split_tile`."""
        raise NotImplementedError

    # -- public API ------------------------------------------------------------

    def _check_addr(self, addr):
        if not 0 <= addr < self.space_bytes:
            raise AddrMapError(
                "address %#x outside the %d-byte global space" %
                (addr, self.space_bytes)
            )

    def node_of(self, addr):
        """Owning node of global byte address ``addr``."""
        self._check_addr(addr)
        return self._split_tile(addr >> self.log2_tile_size)[0]

    def locate(self, addr):
        """``(node, local byte offset)`` of a global address.

        The local offset is dense per node: it sweeps ``[0, node_bytes)``
        exactly once as the addresses owned by that node sweep the global
        space, so it indexes directly into a per-node arena.
        """
        self._check_addr(addr)
        node, local_tile = self._split_tile(addr >> self.log2_tile_size)
        return node, (local_tile << self.log2_tile_size) | (
            addr & self._offset_mask)

    def global_of(self, node, local_addr):
        """Global address of ``(node, local byte offset)`` -- the exact
        inverse of :meth:`locate`."""
        if not 0 <= node < self.node_count:
            raise AddrMapError("no node %r among %d" % (node, self.node_count))
        if not 0 <= local_addr < self.node_bytes:
            raise AddrMapError(
                "local address %#x outside the %d-byte node share"
                % (local_addr, self.node_bytes)
            )
        tile = self._join_tile(node, local_addr >> self.log2_tile_size)
        return (tile << self.log2_tile_size) | (local_addr & self._offset_mask)

    def __repr__(self):
        return "%s(nodes=%d, tile=%db, tiles/node=%d)" % (
            type(self).__name__, self.node_count, self.tile_bytes,
            self.tiles_per_node,
        )


class BlockedAddrMap(AddrMap):
    """Contiguous tile runs: node ``n`` owns tiles
    ``[n * tiles_per_node, (n+1) * tiles_per_node)``."""

    kind = "blocked"

    def _split_tile(self, tile):
        return divmod(tile, self.tiles_per_node)

    def _join_tile(self, node, local_tile):
        return node * self.tiles_per_node + local_tile


class StridedAddrMap(AddrMap):
    """Round-robin tiles: global tile ``t`` lives on node
    ``t % node_count`` as that node's local tile ``t // node_count``."""

    kind = "strided"

    def _split_tile(self, tile):
        local_tile, node = divmod(tile, self.node_count)
        return node, local_tile

    def _join_tile(self, node, local_tile):
        return local_tile * self.node_count + node


#: kind name -> class, the pluggable registry (CLIs accept these names).
ADDR_MAPS = {
    BlockedAddrMap.kind: BlockedAddrMap,
    StridedAddrMap.kind: StridedAddrMap,
}


def make_addr_map(kind, node_count, log2_tile_size=12, tiles_per_node=1):
    """Construct an :class:`AddrMap` by policy name."""
    try:
        cls = ADDR_MAPS[kind]
    except KeyError:
        raise AddrMapError(
            "unknown addr-map kind %r (have %s)"
            % (kind, ", ".join(sorted(ADDR_MAPS)))
        )
    return cls(node_count, log2_tile_size, tiles_per_node)
