"""The mesh topology: dimensions, node-id geometry, link naming.

Every layer of the stack used to hand-roll ``y * width + x`` node
arithmetic; :class:`MeshTopology` is now the single owner of that
geometry.  The backplane builds its routers and links from it, and
anything that needs to turn a node id into mesh coordinates (or back)
asks it.

A topology is pure data -- it knows nothing about simulators, params or
built hardware -- so construction stays O(nodes + links) at any scale.

Node ids are assigned row-major: node ``(x, y)`` has id ``y * width + x``
(that expression lives HERE and nowhere else; simlint SL701 enforces it).
"""


class TopologyError(ValueError):
    """Raised for invalid dimensions or out-of-range nodes/coords."""


#: Port names shared with :mod:`repro.mesh.router`.
NORTH, SOUTH, EAST, WEST, LOCAL = "north", "south", "east", "west", "local"


def route_port(here_coords, dest_coords):
    """Dimension-ordered (X then Y) output port from ``here_coords``
    toward ``dest_coords``.

    X-then-Y dimension order on a mesh is oblivious and deadlock-free
    (Dally & Seitz), which is the property the SHRIMP flow control
    scheme relies on: "since the routing network is deadlock-free, all
    packets will eventually be delivered" (paper section 4).
    """
    x, y = here_coords
    dx, dy = dest_coords
    if dx > x:
        return EAST
    if dx < x:
        return WEST
    if dy > y:
        return SOUTH  # y grows southwards
    if dy < y:
        return NORTH
    return LOCAL


class MeshTopology:
    """A ``width x height`` 2D mesh: id<->coordinate maps, neighbour and
    boundary enumeration, and the canonical link-name vocabulary.

    The instance is immutable and cheap; share one per machine.
    """

    __slots__ = ("width", "height", "node_count")

    def __init__(self, width, height):
        if width <= 0 or height <= 0:
            raise TopologyError(
                "mesh dimensions must be positive, got %dx%d" % (width, height)
            )
        self.width = width
        self.height = height
        self.node_count = width * height

    # -- id <-> coordinates ----------------------------------------------------

    def coords_of(self, node_id):
        """Mesh ``(x, y)`` of a node id (row-major layout)."""
        if not 0 <= node_id < self.node_count:
            raise TopologyError(
                "no node %r in %dx%d mesh" % (node_id, self.width, self.height)
            )
        return node_id % self.width, node_id // self.width

    def node_at(self, coords):
        """Node id at mesh ``(x, y)``."""
        x, y = coords
        if not (0 <= x < self.width and 0 <= y < self.height):
            raise TopologyError(
                "coords %r outside %dx%d mesh" % (coords, self.width,
                                                  self.height)
            )
        return y * self.width + x

    def contains(self, coords):
        x, y = coords
        return 0 <= x < self.width and 0 <= y < self.height

    def hop_count(self, src_node, dest_node):
        """Manhattan distance between two node ids."""
        sx, sy = self.coords_of(src_node)
        dx, dy = self.coords_of(dest_node)
        return abs(sx - dx) + abs(sy - dy)

    # -- enumeration -----------------------------------------------------------

    def iter_nodes(self):
        """Node ids in ascending (row-major) order."""
        return range(self.node_count)

    def iter_coords(self):
        """All ``(x, y)`` in row-major (node-id) order."""
        for y in range(self.height):
            for x in range(self.width):
                yield (x, y)

    def neighbors(self, coords):
        """``(port, neighbour_coords)`` pairs for the in-mesh neighbours."""
        x, y = coords
        out = []
        for port, nx, ny in (
            (EAST, x + 1, y),
            (WEST, x - 1, y),
            (SOUTH, x, y + 1),  # y grows southwards
            (NORTH, x, y - 1),
        ):
            if 0 <= nx < self.width and 0 <= ny < self.height:
                out.append((port, (nx, ny)))
        return out

    def forward_neighbor_pairs(self):
        """Each adjacent router pair exactly once, in build order.

        Yields ``(coords, port, neighbour_coords, reverse_port)`` for the
        east and south neighbour of every coordinate that has one -- the
        canonical construction walk the backplane wires links from.
        """
        for x, y in self.iter_coords():
            for port, ncoords, reverse in (
                (EAST, (x + 1, y), WEST),
                (SOUTH, (x, y + 1), NORTH),
            ):
                if self.contains(ncoords):
                    yield (x, y), port, ncoords, reverse

    # -- routing ---------------------------------------------------------------

    def route_port(self, here_coords, dest_coords):
        """Dimension-ordered output port toward ``dest_coords``
        (see the module-level :func:`route_port`)."""
        return route_port(here_coords, dest_coords)

    # -- the link-name vocabulary ----------------------------------------------
    #
    # Link names are identity under checkpointing (sparse link captures
    # and fault plans are keyed by them), so the format is part of the
    # on-disk contract, owned here.

    @staticmethod
    def link_name(src_coords, dest_coords):
        """Canonical name of the unidirectional router-to-router link."""
        return "link(%d,%d)->(%d,%d)" % (src_coords + dest_coords)

    @staticmethod
    def inject_name(node_id):
        """Name of the NIC -> router injection link of ``node_id``."""
        return "inject(%d)" % node_id

    @staticmethod
    def eject_name(node_id):
        """Name of the router -> NIC ejection link of ``node_id``."""
        return "eject(%d)" % node_id

    def __repr__(self):
        return "MeshTopology(%dx%d)" % (self.width, self.height)
