"""SL9xx: DSM protocol-order rules (whole-program, CFG dominance).

The directory protocol in :mod:`repro.dsm.runtime` rests on *ordering*
invariants that no per-file syntax check can see (``docs/dsm.md``
states them; these rules certify three of them):

- a ``WRITE_OK`` grant may only be sent once the section 4.4 sorted-
  reader invalidation walk has completed -- every control-flow path to
  the send must pass a "walk is empty / no acks outstanding" guard;
- the durable last-grant record (``set_last_grant``, the duplicate-
  request filter in DRAM) must be written before the page data push, so
  a crash between the two can never re-push stale bytes over a granted
  page;
- the crash-recovery claim collection (``RECOVER_REQ`` broadcast) must
  visit peers in sorted node order, so the rebuild's conflict
  resolution sees claims in one deterministic arrival order on every
  host.

The fourth, "the page push precedes its grant send" (the deliberate-
update deposit rides the same FIFO as the grant frame), needs no rule:
the happens-before sanitizer (:mod:`repro.lint.sanitize`) fails any run
whose grant has no push and NIC deposit before it.

The rules key on the protocol's own vocabulary: a module that defines a
top-level ``WRITE_OK`` constant is a protocol engine; ``_send(...)``
calls carrying ``WRITE_OK``/``READ_OK`` are grants; ``_push_page`` is
the data push; ``set_last_grant`` is the durable record.  Guard
expressions are recognized when they mention the walk state -- a
``waiting`` name/key/attribute, a ``.readers(...)`` call, or a local
name assigned from one.

Cross-function flows are followed through the class: if a method sends
a grant unguarded, every call site of that method (transitively, within
the class) must sit behind a walk guard -- exactly how
``_grant_write`` is reached from ``_proceed`` (the empty-walk branch)
and ``_home_inval_ack`` (the last-ack branch).
"""

import ast

from repro.lint.cfg import build_cfg
from repro.lint.engine import Rule

GRANT_SEND = "_send"
PUSH_CALL = "_push_page"
DURABLE_CALL = "set_last_grant"
WRITE_GRANT_CONSTANTS = {"WRITE_OK"}
GRANT_CONSTANTS = {"WRITE_OK", "READ_OK"}
RECOVER_CONSTANT = "RECOVER_REQ"
_WALK_HINTS = {"waiting", "walk"}
_WALK_CALLS = {"readers"}


def _protocol_modules(graph):
    """Modules that *are* a coherence engine: they define the grant
    message vocabulary at module level."""
    for name in sorted(graph.modules):
        info = graph.modules[name]
        if "WRITE_OK" in info.top_defs:
            yield info


def _call_attr(node):
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        return node.func.attr
    return None


def _is_grant_send(expr, constants):
    """A ``*._send(...)`` call whose arguments carry a grant constant."""
    for node in ast.walk(expr):
        if _call_attr(node) != GRANT_SEND:
            continue
        for arg in node.args:
            if isinstance(arg, ast.Name) and arg.id in constants:
                return True
            if isinstance(arg, ast.Attribute) and arg.attr in constants:
                return True
    return False


def _contains_attr_call(expr, attr):
    return any(_call_attr(node) == attr for node in ast.walk(expr))


class _MethodCfg:
    """A method's CFG plus the protocol-relevant node sets."""

    def __init__(self, func, constants):
        self.func = func
        self.cfg = build_cfg(func)
        self.walk_names = self._derived_walk_names(func)
        self.grant_sends = self.cfg.nodes_matching(
            lambda e: _is_grant_send(e, constants)
        )
        self.write_sends = self.cfg.nodes_matching(
            lambda e: _is_grant_send(e, WRITE_GRANT_CONSTANTS)
        )
        self.pushes = self.cfg.nodes_matching(
            lambda e: _contains_attr_call(e, PUSH_CALL)
        )
        self.durables = self.cfg.nodes_matching(
            lambda e: _contains_attr_call(e, DURABLE_CALL)
        )
        self.guard_edges = self._guard_edges()

    def _derived_walk_names(self, func):
        """Local names assigned from an expression that mentions the
        walk state (``walk = [r for r in directory.readers(page) ...]``)."""
        names = set()
        for node in ast.walk(func):
            if isinstance(node, ast.Assign) and self._mentions_walk(
                node.value, ()
            ):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
        return names

    @staticmethod
    def _mentions_walk(expr, extra_names):
        for node in ast.walk(expr):
            if isinstance(node, ast.Name) and (
                node.id in _WALK_HINTS or node.id in extra_names
            ):
                return True
            if isinstance(node, ast.Attribute) and (
                node.attr in _WALK_HINTS or node.attr in _WALK_CALLS
            ):
                return True
            if isinstance(node, ast.Constant) and node.value in _WALK_HINTS:
                return True  # txn["waiting"] subscripts
        return False

    def _guard_edges(self):
        """Branch edges that certify "the walk has completed".

        ``if <walk-state>:`` guards its *false* edge (the walk is
        empty); ``if not <walk-state>:`` guards its *true* edge (no
        acks outstanding).
        """
        edges = set()
        for nid, stmt in self.cfg.stmts.items():
            if not isinstance(stmt, ast.If):
                continue
            test = stmt.test
            if isinstance(test, ast.UnaryOp) and isinstance(
                test.op, ast.Not
            ):
                if self._mentions_walk(test.operand, self.walk_names):
                    edges.add((nid, "true"))
            elif self._mentions_walk(test, self.walk_names):
                edges.add((nid, "false"))
        return edges

    def call_sites_of(self, method_name):
        """Node ids whose statement calls ``self.<method_name>``/
        ``obj.<method_name>`` (attribute calls only)."""
        return self.cfg.nodes_matching(
            lambda e: _contains_attr_call(e, method_name)
        )

    def guarded(self, nid):
        """True when every ENTRY path to ``nid`` crosses a guard edge."""
        return not self.cfg.reaches_without(
            nid, blocked_edges=self.guard_edges
        )


def _class_method_cfgs(class_info, constants):
    return {
        name: _MethodCfg(func, constants)
        for name, func in sorted(class_info.methods.items())
    }


class WriteGrantWalkRule(Rule):
    """SL901: a WRITE_OK grant not dominated by a completed inval walk.

    Sending ``WRITE_OK`` while a reader copy may survive breaks single-
    writer: the new owner's stores race stale readers that the section
    4.4 walk was supposed to shoot down.  Every control-flow path to a
    ``WRITE_OK`` ``_send`` must pass a branch proving the walk is
    complete -- ``if walk:`` (taking the empty side), or ``if not
    txn["waiting"]:`` (the last ``INVAL_ACK`` arrived).  The check
    follows calls through the class: an unguarded sender method is fine
    when *every* call site of it (transitively) sits behind such a
    guard.  Flagged sites either need the guard restored or the send
    moved behind the walk completion.
    """

    code = "SL901"
    title = "WRITE_OK grant not dominated by a completed inval walk"

    def check(self, graph):
        for info in _protocol_modules(graph):
            if not self.applies_to(info):
                continue
            for class_info in _classes_of(graph, info):
                yield from self._check_class(info, class_info)

    def _check_class(self, info, class_info):
        cfgs = _class_method_cfgs(class_info, WRITE_GRANT_CONSTANTS)
        entry_ok = {}  # method name -> every entry into it is post-walk

        def method_entry_guarded(name, visiting):
            if name in entry_ok:
                return entry_ok[name]
            if name in visiting:
                return False  # recursion: assume the worst
            sites = []
            for caller, mcfg in cfgs.items():
                if caller == name:
                    continue
                for nid in mcfg.call_sites_of(name):
                    sites.append((caller, mcfg, nid))
            if not sites:
                entry_ok[name] = False
                return False
            ok = all(
                mcfg.guarded(nid)
                or method_entry_guarded(caller, visiting | {name})
                for caller, mcfg, nid in sites
            )
            entry_ok[name] = ok
            return ok

        for name in sorted(cfgs):
            mcfg = cfgs[name]
            for nid in sorted(mcfg.write_sends):
                if mcfg.guarded(nid):
                    continue
                if method_entry_guarded(name, set()):
                    continue
                yield self.finding(
                    info, mcfg.cfg.stmts[nid],
                    "%s.%s sends WRITE_OK on a path not dominated by a "
                    "completed reader-invalidation walk (no 'walk is "
                    "empty' / 'not waiting' guard on the way, locally or "
                    "at every call site)" % (class_info.name, name),
                )


class DurableBeforePushRule(Rule):
    """SL902: a page push not dominated by the durable last-grant write.

    ``set_last_grant`` is the DRAM record that makes an already-granted
    request recognizable after a retry races its own grant; if the data
    push can happen first, a crash between push and record leaves a
    granted page whose duplicate request would be re-granted -- and
    re-pushed with the home's stale copy.  Every ``_push_page`` call in
    a grant-sending method must be preceded by ``set_last_grant`` on
    all paths.
    """

    code = "SL902"
    title = "page push not dominated by the durable last-grant update"

    def check(self, graph):
        for info in _protocol_modules(graph):
            if not self.applies_to(info):
                continue
            for class_info in _classes_of(graph, info):
                cfgs = _class_method_cfgs(class_info, GRANT_CONSTANTS)
                for name in sorted(cfgs):
                    mcfg = cfgs[name]
                    if not mcfg.grant_sends:
                        continue
                    for nid in sorted(mcfg.pushes):
                        if mcfg.cfg.reaches_without(
                            nid, blocked_nodes=mcfg.durables
                        ):
                            yield self.finding(
                                info, mcfg.cfg.stmts[nid],
                                "%s.%s pushes page data on a path where "
                                "set_last_grant has not run; write the "
                                "durable last-grant record before the "
                                "push" % (class_info.name, name),
                            )


def _carries_constant(call, constant):
    """Does this ``_send`` call pass the named message constant?"""
    for arg in call.args:
        if isinstance(arg, ast.Name) and arg.id == constant:
            return True
        if isinstance(arg, ast.Attribute) and arg.attr == constant:
            return True
    return False


def _is_sorted_iter(expr):
    return (isinstance(expr, ast.Call)
            and isinstance(expr.func, ast.Name)
            and expr.func.id == "sorted")


class SortedRecoverBroadcastRule(Rule):
    """SL904: a RECOVER_REQ broadcast loop not iterating in sorted order.

    The directory rebuild collects surviving peers' claims over per-pair
    FIFO channels; the only ordering the protocol can rely on is the one
    the broadcast loop itself establishes.  If the restored home walks
    its peers in hash/dict/set order, the claim arrival order -- and
    with it the rebuild's tie-breaking, walk scheduling, and the run
    fingerprint -- varies by host.  Every ``for`` loop that sends
    ``RECOVER_REQ`` must therefore iterate a ``sorted(...)`` expression
    directly.
    """

    code = "SL904"
    title = "RECOVER_REQ broadcast loop must iterate in sorted order"

    def check(self, graph):
        for info in _protocol_modules(graph):
            if not self.applies_to(info):
                continue
            if RECOVER_CONSTANT not in info.top_defs:
                continue
            yield from self._check_module(info)

    def _check_module(self, info):
        flagged = []

        def visit(node, loops):
            if isinstance(node, ast.For):
                loops = loops + (node,)
            elif (_call_attr(node) == GRANT_SEND
                  and _carries_constant(node, RECOVER_CONSTANT)
                  and loops and not _is_sorted_iter(loops[-1].iter)
                  and loops[-1] not in flagged):
                flagged.append(loops[-1])
            for child in ast.iter_child_nodes(node):
                visit(child, loops)

        visit(info.tree, ())
        for loop in flagged:
            yield self.finding(
                info, loop,
                "this loop broadcasts RECOVER_REQ but does not iterate a "
                "sorted(...) iterable: the rebuild claim collection must "
                "visit peers in sorted node order so conflict resolution "
                "is deterministic across hosts",
            )


def _classes_of(graph, module):
    """The module's top-level classes, by name."""
    return sorted((c for c in graph.classes.values() if c.module is module),
                  key=lambda c: c.name)


RULES = (WriteGrantWalkRule(), DurableBeforePushRule(),
         SortedRecoverBroadcastRule())
