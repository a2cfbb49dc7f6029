"""SL403/SL501/SL701: operations that exactly one module may perform.

Some invariants have the shape "only module M may do X": only the
engine writes the clock and touches its queue, only ``repro.faults``
rewires the datapath, only ``MeshTopology`` encodes node ids.  One rule
class checks them all from a table; each row names its code, the owner
(a path fragment exempt from the row) and a matcher that returns a
message for an offending AST node.
"""

import ast

from repro.lint.astutil import dotted_name
from repro.lint.engine import Rule

#: Simulator attributes only the engine may store: the clock, the
#: sequence counter and the event count.
_CLOCK_ATTRS = frozenset({"_now", "_seq", "_event_count"})

#: Simulator attributes only the engine may touch at all: its queue.
_QUEUE_ATTRS = frozenset({"_heap", "_bucket"})

#: Datapath callables a fault (or test) must never rebind on another
#: object.  Covers the NIC FIFOs (put/put_functional/get/try_get), links
#: (send_burst/put/pull on the writer side, receive/take/drain on the
#: reader side), routers (route) and the backplane's
#: injection port (inject).  ``tests/test_lint.py`` checks every name is
#: still a callable on one of those classes.
_DATAPATH_CALLABLES = frozenset({
    "put_functional", "put", "get", "try_get",
    "send_burst", "pull",
    "receive", "take", "drain",
    "route", "inject",
})

#: Mesh-dimension spellings: a bare name or an attribute access whose
#: final component is one of these participates in node arithmetic.
_DIM_NAMES = frozenset({"width", "height"})


def _engine_private_access(node):
    if not isinstance(node, ast.Attribute):
        return None
    receiver = dotted_name(node.value)
    if receiver is None or receiver.split(".")[-1] != "sim":
        return None
    if node.attr in _QUEUE_ATTRS:
        return (
            "sim.%s is the engine's queue; list its entries with "
            "sim.live_entries()" % node.attr
        )
    if node.attr in _CLOCK_ATTRS and isinstance(node.ctx, ast.Store):
        return (
            "assignment to sim.%s; the clock, sequence counter and event "
            "count belong to the engine" % node.attr
        )
    return None


def _rebinds_datapath_callable(node):
    if not isinstance(node, ast.Assign):
        return None
    for target in node.targets:
        if (
            isinstance(target, ast.Attribute)
            and target.attr in _DATAPATH_CALLABLES
            and not (isinstance(target.value, ast.Name)
                     and target.value.id == "self")
        ):
            return (
                "assignment to .%s monkey-patches the datapath; use the "
                "repro.faults injection hooks instead" % target.attr
            )
    return None


def _is_dim_product(node):
    """True for a multiplication with a mesh dimension on either side."""
    return (
        isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.Mult)
        and any(
            (isinstance(side, ast.Name) and side.id in _DIM_NAMES)
            or (isinstance(side, ast.Attribute) and side.attr in _DIM_NAMES)
            for side in (node.left, node.right)
        )
    )


def _raw_node_arithmetic(node):
    if (
        isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.Add)
        and (_is_dim_product(node.left) or _is_dim_product(node.right))
    ):
        return (
            "inline row-major node arithmetic duplicates the mesh address "
            "layout; use topology.node_at(x, y) / coords_of(node_id) so "
            "MeshTopology stays the single owner of the encoding"
        )
    return None


class OwnerRule(Rule):
    """An operation performed outside the one module that owns it.

    One instance per row of the owner table; the row's docstring is its
    ``--explain`` text.
    """

    def __init__(self, code, title, owner, scope, match, doc):
        self.code = code
        self.title = title
        self.owner = owner
        self.scope = scope
        self.match = match
        self.__doc__ = doc

    def applies_to(self, module):
        return self.owner not in module.path and super().applies_to(module)

    def check_module(self, module):
        for node in module.nodes:
            message = self.match(node)
            if message:
                yield self.finding(module, node, message)


RULES = (
    OwnerRule(
        "SL403", "engine clock or queue used outside the engine",
        owner="repro/sim/engine.py", scope="all",
        match=_engine_private_access,
        doc="""SL403: a simulator's clock is written, or its queue touched,
    outside ``repro/sim/engine.py``.

    ``sim._now``, ``sim._seq`` and ``sim._event_count`` are the engine's:
    a store to them from anywhere else corrupts the (time, seq) total
    order that determinism and checkpoint replay are built on.  Reads
    (``sim._now`` on hot paths) are fine.  ``sim._heap`` and
    ``sim._bucket`` hold the queue entries, whose format the engine
    alone knows: any access to them elsewhere is flagged.  List pending
    entries with ``sim.live_entries()``; queue a parked poll's tick
    marker with ``sim.schedule_tick()``.  The receiver is any name or
    attribute chain ending in ``sim``.
    """,
    ),
    OwnerRule(
        "SL501", "datapath callable monkey-patched",
        owner="repro/faults/", scope="all",
        match=_rebinds_datapath_callable,
        doc="""SL501: a NIC/link/router callable is rebound outside repro.faults.

    ``obj.put_functional = wrapper`` (and friends) bypasses the
    sanctioned injection hooks: the patch is not checkpoint-captured, is
    invisible on the instrumentation bus, and composes with nothing.
    Use ``add_inject_hook`` / ``set_down`` / ``stall`` /
    ``set_reserved_bytes``, or a :class:`repro.faults.FaultPlan` armed
    through the :class:`repro.faults.FaultController`.  An object
    assigning its *own* attribute (``self.put = ...``) is its business
    and is not flagged.  Runs on every file except ``repro/faults/``.
    """,
    ),
    OwnerRule(
        "SL701", "raw y*width+x node arithmetic outside MeshTopology",
        owner="mesh/topology.py", scope="sim",
        match=_raw_node_arithmetic,
        doc="""SL701: inline ``y * width + x`` node arithmetic outside the
    topology module.

    An addition with a ``<something> * width`` (or ``* height``) term on
    either side re-implements :meth:`repro.mesh.topology.MeshTopology.
    node_at` -- the row-major node-id encoding.  Call
    ``topology.node_at(x, y)`` (or ``coords_of`` for the inverse)
    instead, so there is exactly one owner of the mesh address layout
    and alternative encodings stay a one-file change.  Area or capacity
    math (``width * height``) does not involve an addition and is not
    flagged; ``mesh/topology.py`` itself is exempt, being the owner.
    """,
    ),
)
