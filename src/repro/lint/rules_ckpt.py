"""SL201: checkpoint state is declared, once.

A checkpointable component declares its state in two class-level tables
(``repro.ckpt.protocol``): ``CKPT_STATE`` rows ``(attribute, codec)``
name what the checkpoint holds, and ``CKPT_SKIP`` maps every attribute
left out to the reason.  Capture and restore of a table class both walk
the one ``CKPT_STATE`` list, so they cannot drift apart; what can drift
is the list itself.  The classic regression is a new mutable attribute
added to ``__init__`` and touched on the datapath that nobody declares,
so checkpoints silently stop being complete.  This rule checks, per
class in scope, that each such attribute sits in exactly one table and
that each table row names a real attribute.  Tables and methods resolve
along the class's MRO in the project graph, as Python resolves them, so
a split between a base and a subclass -- in one file or across files --
is checked like a local one, and each finding is reported once, at its
anchor.

Heuristics (documented in docs/static-analysis.md):

- An ``__init__`` attribute counts as *mutable simulation state* when its
  initial value is a plain literal or container construction (``0``,
  ``None``, ``{}``, ``deque()``...) AND some other method of the class
  mutates it (reassignment, augmented assignment, subscript store, or a
  mutating method call such as ``.append``/``.add``/``.setdefault``).
- Attributes initialized from ``__init__`` parameters are configuration;
  attributes initialized by instantiating another class (``Signal(...)``,
  ``PacketFifo(...)``, ``self.instr.counter(...)``) are sub-components
  that own their own checkpoint state.  Neither is required here.
- A class is in scope when a ``CKPT_STATE`` table or both
  ``ckpt_capture`` and ``ckpt_restore`` resolve along its MRO.
"""

import ast

from repro.lint.astutil import self_attr
from repro.lint.engine import Rule
from repro.lint.project import REGISTRATION_METHODS

_CONTAINER_CALLS = {
    "dict", "list", "set", "deque", "defaultdict", "OrderedDict", "bytearray",
}

_MUTATOR_METHODS = {
    "append", "appendleft", "add", "insert", "extend", "extendleft",
    "update", "setdefault", "pop", "popleft", "popitem", "remove",
    "discard", "clear", "sort", "reverse",
}

_PROTOCOL_METHODS = {"ckpt_capture", "ckpt_restore"}

_TABLES = ("CKPT_STATE", "CKPT_SKIP")


def _init_params(init):
    return {
        arg.arg
        for arg in (
            init.args.posonlyargs + init.args.args + init.args.kwonlyargs
        )
        if arg.arg != "self"
    }


def _mentions_any_name(node, names):
    for child in ast.walk(node):
        if isinstance(child, ast.Name) and child.id in names:
            return True
    return False


def _is_instantiation(node):
    """A Call whose target looks like a class or a hub registration."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Attribute):
        if func.attr in REGISTRATION_METHODS:
            return True
        return func.attr[:1].isupper() or _is_capitalized_chain(func)
    if isinstance(func, ast.Name):
        return func.id[:1].isupper()
    return False


def _is_capitalized_chain(node):
    while isinstance(node, ast.Attribute):
        if node.attr[:1].isupper():
            return True
        node = node.value
    return isinstance(node, ast.Name) and node.id[:1].isupper()


def _candidate_attrs(init):
    """{attr: line} of __init__ assignments that look like own mutable state."""
    params = _init_params(init)
    candidates = {}
    for node in ast.walk(init):
        if not isinstance(node, ast.Assign):
            continue
        for target in node.targets:
            attr = self_attr(target)
            if attr is None:
                continue
            value = node.value
            if _mentions_any_name(value, params):
                continue  # configuration taken from constructor args
            if _is_instantiation(value):
                continue  # sub-component; it checkpoints itself
            if isinstance(value, ast.Constant) or isinstance(
                value, (ast.Dict, ast.List, ast.Set, ast.Tuple)
            ):
                candidates[attr] = node.lineno
            elif (
                isinstance(value, ast.Call)
                and isinstance(value.func, ast.Name)
                and value.func.id in _CONTAINER_CALLS
            ):
                candidates[attr] = node.lineno
    return candidates


def _init_helpers(init):
    """Names of methods __init__ invokes as ``self.helper(...)``.

    Construction often factors into helpers (``self._build()``); attrs
    they populate are still initialization, not datapath mutation.
    """
    helpers = set()
    for node in ast.walk(init):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "self"
        ):
            helpers.add(node.func.attr)
    return helpers


def _mutated_attrs(methods, skip=()):
    """{attr: method name} for attributes mutated outside init/protocol."""
    mutated = {}
    for name, method in methods.items():
        if name == "__init__" or name in _PROTOCOL_METHODS or name in skip:
            continue
        for node in ast.walk(method):
            attr = None
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    attr = self_attr(target)
                    if attr is None and isinstance(target, ast.Subscript):
                        attr = self_attr(target.value)
                    if attr is not None:
                        mutated.setdefault(attr, name)
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    if isinstance(target, ast.Subscript):
                        attr = self_attr(target.value)
                        if attr is not None:
                            mutated.setdefault(attr, name)
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _MUTATOR_METHODS
            ):
                attr = self_attr(node.func.value)
                if attr is not None:
                    mutated.setdefault(attr, name)
    return mutated


def _class_assigns(class_info):
    """{name: value node} of the class body's plain assignments."""
    assigns = {}
    for item in class_info.node.body:
        if isinstance(item, ast.Assign):
            for target in item.targets:
                if isinstance(target, ast.Name):
                    assigns[target.id] = item.value
    return assigns


def _table_names(value):
    """{attribute: line} a table names: the string first element of each
    ``CKPT_STATE`` row, or each string key of ``CKPT_SKIP``."""
    if isinstance(value, ast.Dict):
        nodes = value.keys
    elif isinstance(value, (ast.Tuple, ast.List)):
        nodes = [row.elts[0] for row in value.elts
                 if isinstance(row, (ast.Tuple, ast.List)) and row.elts]
    else:
        return {}
    return {node.value: node.lineno for node in nodes
            if isinstance(node, ast.Constant) and isinstance(node.value, str)}


def _declared_attrs(mro):
    """Attributes an ``__init__`` along the MRO assigns, plus every
    ``__slots__`` name."""
    declared = set()
    for ancestor in mro:
        init = ancestor.methods.get("__init__")
        for node in ast.walk(init) if init else ():
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
                while targets:
                    target = targets.pop()
                    if isinstance(target, (ast.Tuple, ast.List)):
                        targets.extend(target.elts)
                    elif self_attr(target) is not None:
                        declared.add(self_attr(target))
        slots = _class_assigns(ancestor).get("__slots__")
        if slots is not None:
            declared.update(
                node.value for node in ast.walk(slots)
                if isinstance(node, ast.Constant)
                and isinstance(node.value, str))
    return declared


class CkptCoverageRule(Rule):
    """SL201: checkpoint tables out of step with the class's attributes.

    For every class in scope (a ``CKPT_STATE`` table, or both
    ``ckpt_capture`` and ``ckpt_restore``, along its inheritance chain,
    the MRO): each ``__init__`` attribute that is
    (heuristically) own mutable simulation state and is mutated by
    another method along the chain must be named by exactly one of
    ``CKPT_STATE`` and ``CKPT_SKIP``, and every row of either table must
    name an attribute some ``__init__`` along the MRO assigns, or a
    ``__slots__`` name.  An undeclared attribute anchors on its
    ``__init__`` assignment line; a bad row anchors on the row.
    """

    code = "SL201"
    title = "checkpoint tables out of step with the class's attributes"

    def check(self, graph):
        reported = set()
        for qualname in sorted(graph.classes):
            class_info = graph.classes[qualname]
            if not self.applies_to(class_info.module):
                continue
            mro = graph.mro(class_info)
            methods = {}
            tables = {}
            for ancestor in mro:
                for name, node in ancestor.methods.items():
                    methods.setdefault(name, (ancestor, node))
                assigns = _class_assigns(ancestor)
                for table in _TABLES:
                    if table in assigns and table not in tables:
                        tables[table] = (ancestor,
                                         _table_names(assigns[table]))
            if "CKPT_STATE" not in tables and not _PROTOCOL_METHODS.issubset(
                    methods):
                continue
            yield from self._check_class(class_info, mro, methods, tables,
                                         reported)

    def _check_class(self, class_info, mro, methods, tables, reported):
        declared = _declared_attrs(mro)
        named = set()
        for table in _TABLES:
            owner, names = tables.get(table, (None, {}))
            for attr, line in sorted(names.items()):
                if attr in declared and attr not in named:
                    named.add(attr)
                    continue
                anchor = (owner.module.path, line, attr)
                if anchor in reported:
                    continue
                reported.add(anchor)
                problem = ("CKPT_STATE names too" if attr in named else
                           "no __init__ of %s assigns and no __slots__ "
                           "declares" % class_info.name)
                yield self.finding(
                    owner.module, owner.node,
                    "%s.%s names %r, which %s" % (owner.name, table, attr,
                                                   problem),
                    line=line,
                )
        owner, init = methods.get("__init__", (None, None))
        candidates = _candidate_attrs(init) if init else {}
        mutated = _mutated_attrs(
            {name: node for name, (_, node) in methods.items()},
            skip=_init_helpers(init) if init else (),
        )
        for attr, line in sorted(candidates.items()):
            anchor = (owner.module.path, line)
            if attr not in mutated or attr in named or anchor in reported:
                continue
            reported.add(anchor)
            yield self.finding(
                owner.module, init,
                "%s.%s is mutable state (mutated in %s) but neither "
                "CKPT_STATE nor CKPT_SKIP of %s names it; checkpoint it or "
                "skip it with the reason"
                % (owner.name, attr, mutated[attr], class_info.name),
                line=line,
            )


RULES = (CkptCoverageRule(),)
