"""SL1xx: determinism rules.

Simulation results in this repository are pinned bit-for-bit by golden
traces and the checkpoint divergence detector; any dependence on wall
clocks, entropy sources, hash order or object identity order silently
shifts those traces.  These rules flag the constructs that introduce
such dependence in sim code (everything under ``src/repro``).
"""

import ast

from repro.lint.astutil import (
    dotted_name,
    resolved_call_name,
    self_attr,
)
from repro.lint.engine import Rule

_WALL_CLOCK_CALLS = {
    "time.time", "time.time_ns",
    "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "time.process_time", "time.process_time_ns",
    "time.localtime", "time.gmtime",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
}

_ENTROPY_CALLS = {
    "os.urandom", "os.getrandom",
    "uuid.uuid1", "uuid.uuid4",
}

_ENTROPY_MODULES = {"secrets"}

# Iteration contexts: calling one of these on a set materializes its
# (hash-ordered) iteration order.  sorted()/min()/max()/len()/sum() and
# membership tests are order-independent and deliberately absent.
_ORDER_SENSITIVE_CALLS = {"list", "tuple", "enumerate", "iter", "reversed"}

class RandomModuleRule(Rule):
    """SL101: the ``random`` module is off-limits in sim code.

    Even seeded, module-level ``random`` is process-global state that any
    import can perturb; deterministic workloads must derive pseudo-random
    streams from explicit per-component counters or hash-free generators
    they own.  Flags ``import random`` and ``from random import ...``.
    """

    code = "SL101"
    title = "random module used in sim code"

    def check_module(self, module):
        for node in module.nodes:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "random":
                        yield self.finding(
                            module, node,
                            "import of the random module; sim code must be "
                            "deterministic (derive pseudo-randomness from "
                            "owned, explicitly-seeded state)",
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.module and node.module.split(".")[0] == "random":
                    yield self.finding(
                        module, node,
                        "import from the random module; sim code must be "
                        "deterministic",
                    )


class WallClockRule(Rule):
    """SL102: wall-clock reads leak host time into simulated time.

    ``time.time()``, ``time.perf_counter()``, ``datetime.now()`` and
    friends differ between runs; simulation code must read time only
    from ``sim.now``.  (Benchmarks live outside ``src/repro`` and may
    measure wall time freely.)
    """

    code = "SL102"
    title = "wall-clock read in sim code"

    def check_module(self, module):
        for node in module.nodes:
            if not isinstance(node, ast.Call):
                continue
            name = resolved_call_name(node, module.aliases)
            if name in _WALL_CLOCK_CALLS or (
                name is not None
                and any(name.endswith("." + c) for c in _WALL_CLOCK_CALLS)
            ):
                yield self.finding(
                    module, node,
                    "wall-clock call %s(); sim code must take time from "
                    "sim.now" % name,
                )


class EntropyRule(Rule):
    """SL103: OS entropy sources make runs unreproducible.

    ``os.urandom``, ``uuid.uuid1/uuid4`` and anything from ``secrets``
    produce different values every run, so no golden trace can pin a
    path that consumes them.
    """

    code = "SL103"
    title = "entropy source in sim code"

    def check_module(self, module):
        for node in module.nodes:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = (
                    [alias.name for alias in node.names]
                    if isinstance(node, ast.Import)
                    else [node.module or ""]
                )
                for name in names:
                    if name.split(".")[0] in _ENTROPY_MODULES:
                        yield self.finding(
                            module, node,
                            "import of entropy module %r in sim code" % name,
                        )
            elif isinstance(node, ast.Call):
                name = resolved_call_name(node, module.aliases)
                if name in _ENTROPY_CALLS or (
                    name is not None
                    and any(name.endswith("." + c) for c in _ENTROPY_CALLS)
                ):
                    yield self.finding(
                        module, node,
                        "entropy source %s(); runs would not be "
                        "reproducible" % name,
                    )


class _SetValueTracker:
    """Static approximation of which expressions are sets.

    Tracks, per module: attributes a class body assigns set values
    (``self.ready = set()``), attributes used as dict-of-sets
    (``self.index.setdefault(k, set())`` or ``self.index[k] = set(...)``),
    and, per outermost function, the local names bound to set values.
    """

    def __init__(self, scoped):
        self.set_attrs = set()
        self.dict_of_set_attrs = set()
        self.local_sets = {}  # outermost FunctionDef -> set of local names
        for node, func, in_class in scoped:
            if isinstance(node, ast.Assign):
                if (
                    func is not None
                    and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)
                    and _is_set_expr(node.value)
                ):
                    self.local_sets.setdefault(func, set()).add(
                        node.targets[0].id
                    )
                if in_class:
                    self._scan_assign(node)
            elif in_class and isinstance(node, ast.Call):
                func_node = node.func
                if (
                    isinstance(func_node, ast.Attribute)
                    and func_node.attr == "setdefault"
                    and self_attr(func_node.value)
                    and len(node.args) == 2
                    and _is_set_expr(node.args[1])
                ):
                    self.dict_of_set_attrs.add(self_attr(func_node.value))

    def _scan_assign(self, node):
        if not _is_set_expr(node.value):
            return
        for target in node.targets:
            attr = self_attr(target)
            if attr:
                self.set_attrs.add(attr)
            if isinstance(target, ast.Subscript) and self_attr(target.value):
                self.dict_of_set_attrs.add(self_attr(target.value))


def _scoped_nodes(tree):
    """(node, outermost enclosing function or None, inside a class?) for
    every node of ``tree``, in one pass."""
    scoped = []
    stack = [(tree, None, False)]
    while stack:
        node, func, in_class = stack.pop()
        for child in ast.iter_child_nodes(node):
            scoped.append((child, func, in_class))
            child_func = func
            if func is None and isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                child_func = child
            stack.append((child, child_func,
                          in_class or isinstance(child, ast.ClassDef)))
    return scoped


def _is_set_expr(node, tracker=None, local_sets=()):
    """True if ``node`` statically looks like a set (or dict-of-sets read).

    With a ``tracker`` (and the enclosing function's ``local_sets``),
    attribute and local-name reads resolve through the tracked
    assignments; without one only direct constructions count.
    """
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in {"set", "frozenset"}
    ):
        return True
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        return _is_set_expr(node.left, tracker, local_sets) or _is_set_expr(
            node.right, tracker, local_sets
        )
    if tracker is None:
        return False
    attr = self_attr(node)
    if attr and attr in tracker.set_attrs:
        return True
    if isinstance(node, ast.Name) and node.id in local_sets:
        return True
    # Reads out of a dict-of-sets: self.index[k] or self.index.get(k, ...)
    if isinstance(node, ast.Subscript):
        attr = self_attr(node.value)
        if attr and attr in tracker.dict_of_set_attrs:
            return True
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "get"
    ):
        attr = self_attr(node.func.value)
        if attr and attr in tracker.dict_of_set_attrs:
            return True
    return False


def _iteration_target(node):
    """The iterated expression of a for loop or comprehension, else None."""
    if isinstance(node, ast.For):
        return node.iter
    if isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.DictComp,
                         ast.SetComp)):
        return node.generators[0].iter
    return None


class SetIterationRule(Rule):
    """SL104: iterating a set exposes hash order.

    ``for x in some_set``, ``list(some_set)`` and friends yield elements
    in hash order, which depends on insertion history (and, for strings,
    on ``PYTHONHASHSEED``).  Sim code must wrap set iteration in
    ``sorted(...)`` or keep an explicitly ordered container.  Detected
    set expressions: literals, ``set()`` calls, set operators, class
    attributes assigned sets, and reads out of dict-of-sets attributes
    (``self.index[k]`` / ``.get(k)`` where values are sets).
    """

    code = "SL104"
    title = "unordered set iteration in sim code"

    def check_module(self, module):
        scoped = _scoped_nodes(module.tree)
        tracker = _SetValueTracker(scoped)
        for node, func, _ in scoped:
            target = _iteration_target(node)
            if (
                target is None
                and isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in _ORDER_SENSITIVE_CALLS
                and node.args
            ):
                target = node.args[0]
            if target is not None and _is_set_expr(
                target, tracker, tracker.local_sets.get(func, ())
            ):
                yield self.finding(
                    module, node,
                    "iteration over a set exposes hash order; wrap in "
                    "sorted(...) or use an ordered container",
                )


class IdentityOrderRule(Rule):
    """SL105: ordering by object identity varies between runs.

    ``id()`` values depend on allocation addresses.  Using them as sort
    keys, or iterating a dict keyed by ``id(...)`` (the iteration order
    replays allocation history), makes ordering unreproducible across
    processes -- exactly what checkpoint replay forbids.  Lookups into an
    identity-keyed dict are fine; only ordering is flagged.
    """

    code = "SL105"
    title = "id()-dependent ordering in sim code"

    def check_module(self, module):
        id_keyed = self._id_keyed_attrs(module.nodes)
        for node in module.nodes:
            if isinstance(node, ast.Call):
                name = dotted_name(node.func)
                if name in {"sorted", "min", "max"}:
                    for keyword in node.keywords:
                        if keyword.arg == "key" and self._mentions_id(
                            keyword.value
                        ):
                            yield self.finding(
                                module, node,
                                "%s() keyed on id(); identity order differs "
                                "between runs" % name,
                            )
            target = _iteration_target(node)
            if target is None:
                continue
            attr = self._dict_view_attr(target)
            if attr and attr in id_keyed:
                yield self.finding(
                    module, node,
                    "iteration over identity-keyed dict self.%s; order "
                    "replays allocation history (sort the result or re-key "
                    "by a stable id)" % attr,
                )

    @staticmethod
    def _mentions_id(node):
        if isinstance(node, ast.Name) and node.id == "id":
            return True
        for child in ast.walk(node):
            if (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Name)
                and child.func.id == "id"
            ):
                return True
        return False

    @staticmethod
    def _id_keyed_attrs(nodes):
        """Attributes used as dicts with id(...)-bearing keys."""
        attrs = set()
        for node in nodes:
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Subscript):
                        attr = self_attr(target.value)
                        if attr and IdentityOrderRule._mentions_id(
                            target.slice
                        ):
                            attrs.add(attr)
        return attrs

    @staticmethod
    def _dict_view_attr(node):
        """self.X for ``self.X.items()/keys()/values()`` or bare ``self.X``
        when X is known -- caller filters against the id-keyed set."""
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in {"items", "keys", "values"}
        ):
            return self_attr(node.func.value)
        return self_attr(node)


RULES = (
    RandomModuleRule(),
    WallClockRule(),
    EntropyRule(),
    SetIterationRule(),
    IdentityOrderRule(),
)
