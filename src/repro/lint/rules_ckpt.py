"""SL2xx: checkpoint-coverage rules.

The ``Checkpointable`` protocol (``repro.ckpt.protocol``) demands that
``ckpt_capture`` fully describe a component's mutable simulation state
and that ``ckpt_restore`` be its exact inverse.  The classic regression
is *drift*: a new mutable attribute is added to ``__init__`` and touched
on the datapath, but nobody extends capture/restore, so checkpoints
silently stop being complete.  These rules cross-check, per class
implementing the protocol, the attribute set assigned in ``__init__``
against the key set captured and restored.  Methods resolve along the
class's MRO in the project graph, so a triple split between a base and
a subclass -- in one file or across files -- is checked like a local
one, and each finding is reported once, at its anchor.

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
- An attribute is *covered* when ``ckpt_restore`` assigns it, or when its
  name (modulo a leading underscore) appears among the captured keys.

Deliberate exclusions (transient wiring, observer output, state rebuilt
by ``SystemCheckpoint``) should carry an inline
``# simlint: ignore[SL201]`` with a one-line justification -- that
comment is exactly the documentation the next reader needs.
"""

import ast

from repro.lint.astutil import literal_str_keys, self_attr
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


def _captured_keys(capture):
    """Every string dict key appearing anywhere in ckpt_capture.

    Over-approximate on purpose: composite captures build nested dicts
    and helper variables, and a missed key would be a false positive.
    """
    keys = set()
    for node in ast.walk(capture):
        if isinstance(node, ast.Dict):
            keys.update(literal_str_keys(node))
        elif isinstance(node, ast.Call):
            for keyword in node.keywords:
                if keyword.arg:
                    keys.add(keyword.arg)
    return keys


def _top_level_capture_keys(capture):
    """Keys of the dict literal(s) ckpt_capture actually returns.

    Follows one level of ``name = {...}; ...; return name`` indirection
    and ``name["k"] = ...`` additions.  Returns None when the return
    value cannot be resolved to dict literals (rule SL202/SL203 then
    stays silent rather than guessing).
    """
    returned_names = set()
    keys = set()
    resolved = False
    for node in ast.walk(capture):
        if isinstance(node, ast.Return) and node.value is not None:
            if isinstance(node.value, ast.Dict):
                keys.update(literal_str_keys(node.value))
                resolved = True
            elif isinstance(node.value, ast.Name):
                returned_names.add(node.value.id)
            else:
                return None
    if returned_names:
        for node in ast.walk(capture):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if (
                    isinstance(target, ast.Name)
                    and target.id in returned_names
                ):
                    if isinstance(node.value, ast.Dict):
                        keys.update(literal_str_keys(node.value))
                        resolved = True
                    else:
                        return None
                elif (
                    isinstance(target, ast.Subscript)
                    and isinstance(target.value, ast.Name)
                    and target.value.id in returned_names
                    and isinstance(target.slice, ast.Constant)
                    and isinstance(target.slice.value, str)
                ):
                    keys.add(target.slice.value)
    return keys if resolved else None


def _restored_keys(restore):
    """String keys subscripted off the state parameter in ckpt_restore."""
    args = restore.args.posonlyargs + restore.args.args
    if len(args) < 2:
        return set(), set()
    state_name = args[1].arg
    keys = set()
    for node in ast.walk(restore):
        if (
            isinstance(node, ast.Subscript)
            and isinstance(node.value, ast.Name)
            and node.value.id == state_name
            and isinstance(node.slice, ast.Constant)
            and isinstance(node.slice.value, str)
        ):
            keys.add(node.slice.value)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "get"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == state_name
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, str)
        ):
            keys.add(node.args[0].value)
    assigned_attrs = set()
    for node in ast.walk(restore):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                attr = self_attr(target)
                if attr is None and isinstance(target, ast.Subscript):
                    attr = self_attr(target.value)
                if attr is not None:
                    assigned_attrs.add(attr)
        elif isinstance(node, ast.Call) and isinstance(
            node.func, ast.Attribute
        ):
            if node.func.attr in _MUTATOR_METHODS:
                attr = self_attr(node.func.value)
                if attr is not None:
                    assigned_attrs.add(attr)
    return keys, assigned_attrs


def _normalize(name):
    return name.lstrip("_")


def _protocol_classes(rule, graph):
    """(class, MRO, {method name: (owner, FunctionDef)}) for every
    in-scope class with ``ckpt_capture`` and ``ckpt_restore`` along its
    MRO.  Methods resolve derived-first, so a triple split between a
    base and a subclass is checked like a local one."""
    for qualname in sorted(graph.classes):
        class_info = graph.classes[qualname]
        if not rule.applies_to(class_info.module):
            continue
        mro = graph.mro(class_info)
        methods = {}
        for ancestor in mro:
            for name, node in ancestor.methods.items():
                methods.setdefault(name, (ancestor, node))
        if _PROTOCOL_METHODS.issubset(methods):
            yield class_info, mro, methods


def _definitions(mro, name):
    """Every definition of ``name`` along the MRO (super() chains)."""
    return [ancestor.methods[name] for ancestor in mro
            if name in ancestor.methods]


class CkptCoverageRule(Rule):
    """SL201: mutable state not covered by ckpt_capture/ckpt_restore.

    For every class implementing both protocol methods, itself or
    through its inheritance chain (the MRO): each ``__init__`` attribute
    that is (heuristically) own mutable simulation state and is mutated
    by another method along the chain must be captured (its name, modulo
    a leading underscore, appears among the keys of any ``ckpt_capture``
    in the chain) or assigned by any ``ckpt_restore`` in the chain.
    Anchors on the ``__init__`` assignment line, in whichever module
    defines it, so deliberate exclusions take an inline ignore *with a
    justification* right where the attribute is born.
    """

    code = "SL201"
    title = "mutable attribute missing from checkpoint capture/restore"

    def check(self, graph):
        reported = set()
        for class_info, mro, methods in _protocol_classes(self, graph):
            owner, init = methods.get("__init__", (None, None))
            candidates = _candidate_attrs(init) if init else {}
            if not candidates:
                continue
            mutated = _mutated_attrs(
                {name: node for name, (_, node) in methods.items()},
                skip=_init_helpers(init),
            )
            captured = {
                _normalize(key)
                for capture in _definitions(mro, "ckpt_capture")
                for key in _captured_keys(capture)
            }
            restored = set().union(*(
                _restored_keys(restore)[1]
                for restore in _definitions(mro, "ckpt_restore")
            ))
            for attr, line in sorted(candidates.items()):
                anchor = (owner.module.path, line)
                if (attr not in mutated or anchor in reported
                        or _normalize(attr) in captured or attr in restored):
                    continue
                reported.add(anchor)
                yield self.finding(
                    owner.module, init,
                    "%s.%s is mutable state (mutated in %s) but no "
                    "ckpt_capture/ckpt_restore of %s covers it; checkpoint "
                    "it or mark the assignment with an ignore explaining "
                    "why it is not state"
                    % (owner.name, attr, mutated[attr], class_info.name),
                    line=line,
                )


class _KeyDriftRule(Rule):
    """Shared driver of SL202/SL203: compare the key sets unioned along
    the MRO and anchor each drifted key on the first ``ckpt_restore``.
    Silent when some capture does not resolve to dict literals."""

    message = ""

    def drifted(self, captured, restored):
        raise NotImplementedError

    def check(self, graph):
        reported = set()
        for class_info, mro, methods in _protocol_classes(self, graph):
            captured = set()
            for capture in _definitions(mro, "ckpt_capture"):
                keys = _top_level_capture_keys(capture)
                if keys is None:
                    break
                captured |= keys
            else:
                restored = set().union(*(
                    _restored_keys(restore)[0]
                    for restore in _definitions(mro, "ckpt_restore")
                ))
                owner, restore = methods["ckpt_restore"]
                for key in sorted(self.drifted(captured, restored)):
                    anchor = (owner.module.path, restore.lineno, key)
                    if anchor not in reported:
                        reported.add(anchor)
                        yield self.finding(
                            owner.module, restore,
                            self.message % (class_info.name, key),
                        )


class CkptSymmetryRule(_KeyDriftRule):
    """SL202: ckpt_capture writes a key ckpt_restore never reads.

    ``ckpt_restore`` must consume exactly what ``ckpt_capture`` produces:
    a captured key never read back is dead weight or a missed restore.
    Keys are the union over every capture and restore along the MRO, so
    a pair split between a base and a subclass is checked too.  Only
    checked when every capture's returned dict resolves statically.
    """

    code = "SL202"
    title = "ckpt_capture key never consumed by ckpt_restore"
    message = "%s: ckpt_capture writes key %r but no ckpt_restore reads it"

    def drifted(self, captured, restored):
        return captured - restored


class CkptPhantomKeyRule(_KeyDriftRule):
    """SL203: ckpt_restore reads a key ckpt_capture never writes.

    Restoring a key the capture does not produce fails with ``KeyError``
    on every real checkpoint -- this is the "renamed the capture key,
    forgot the restore" drift, caught before a checkpoint file ever
    exists.  Keys are the union along the MRO, as for SL202; only
    checked when every capture's dict resolves statically.
    """

    code = "SL203"
    title = "ckpt_restore key never produced by ckpt_capture"
    message = "%s: ckpt_restore reads key %r that no ckpt_capture writes"

    def drifted(self, captured, restored):
        return restored - captured


RULES = (CkptCoverageRule(), CkptSymmetryRule(), CkptPhantomKeyRule())
