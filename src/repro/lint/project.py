"""The project graph: the whole linted tree, parsed once, for every rule.

:class:`ProjectGraph` is built once per run from the parsed modules and
gives rules:

- **module resolution**: dotted module names inferred from the
  ``__init__.py`` chain, import aliases (absolute *and* relative) per
  module, and :meth:`resolve_symbol` following re-export chains
  (``from repro.dsm import DsmRuntime`` resolves to
  ``repro.dsm.runtime.DsmRuntime``);
- **class hierarchy**: every top-level class indexed by qualified name,
  base classes resolved across modules, and a C3 :meth:`mro`
  (unresolvable external bases are skipped, so ``object``/stdlib mixins
  do not block linearization);
- **string-literal tables**: every ``hub.emit`` site with its statically
  resolved event kinds, every metric a class declares in its
  ``METRICS`` table and every one-off registration by literal name, and
  every module-level ``EVENT_KINDS``/``METRIC_LEAVES`` vocabulary table.
"""

import ast
from pathlib import PurePosixPath

from repro.lint.astutil import dotted_name

#: Module-level names recognized as the central vocabulary tables.
EVENT_VOCAB_NAME = "EVENT_KINDS"
METRIC_VOCAB_NAME = "METRIC_LEAVES"

#: Class-level name of a component's ``(leaf, kind)`` metric table.
METRIC_TABLE_NAME = "METRICS"

#: The hub's one-off registrations, by full name.
REGISTRATION_METHODS = {"counter", "timeseries", "histogram", "probe"}
_HUB_RECEIVER_HINTS = ("instr", "instrumentation", "hub")


def _is_hub_receiver(node):
    """Heuristic: the receiver of a call is the instrumentation hub."""
    name = dotted_name(node)
    if name is not None:
        last = name.split(".")[-1].lower()
        return any(hint in last for hint in _HUB_RECEIVER_HINTS)
    if isinstance(node, ast.Call):
        func_name = dotted_name(node.func)
        return func_name is not None and func_name.endswith(
            "Instrumentation.of"
        )
    return False


def is_hub_register(node):
    """A ``<hub>.register(self)`` call: a component registering its table."""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "register"
        and len(node.args) == 1
        and isinstance(node.args[0], ast.Name)
        and node.args[0].id == "self"
        and _is_hub_receiver(node.func.value)
    )


def _literal_str(node):
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


class ClassInfo:
    """One class definition: where it lives and what it inherits."""

    def __init__(self, qualname, node, module, base_qualnames):
        self.qualname = qualname
        self.name = node.name
        self.node = node
        self.module = module
        self.base_qualnames = base_qualnames  # resolved where possible
        self.methods = {  # name -> FunctionDef, direct methods only
            item.name: item
            for item in node.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        # The class's own METRICS table as MetricSite rows, or None.
        self.metrics = None

    def __repr__(self):
        return "ClassInfo(%s)" % self.qualname


class EmitSite:
    """One ``hub.emit(source, kind, ...)`` call and its resolved kinds."""

    __slots__ = ("module", "node", "kinds")

    def __init__(self, module, node, kinds):
        self.module = module
        self.node = node
        self.kinds = kinds  # list of literal kinds, or None if unresolvable


class MetricSite:
    """One declared metric: a row of a class's ``METRICS`` table, or a
    one-off hub registration by full name."""

    __slots__ = ("module", "node", "method", "name", "leaf", "kind")

    def __init__(self, module, node, method, name, leaf, kind):
        self.module = module
        self.node = node
        self.method = method  # METRIC_TABLE_NAME, or the hub method called
        self.name = name  # a one-off's literal full name, else None
        self.leaf = leaf  # literal leaf (a one-off's last segment), or None
        self.kind = kind  # literal kind, or None


class VocabEntry:
    """One entry of a module-level vocabulary table."""

    __slots__ = ("module", "node")

    def __init__(self, module, node):
        self.module = module
        self.node = node


def _module_names(parsed_modules):
    """Infer dotted names from the ``__init__.py`` chain *within the
    linted set* -- no filesystem access, so the result is a pure function
    of the inputs."""
    package_dirs = set()
    for parsed in parsed_modules:
        pure = PurePosixPath(parsed.path)
        if pure.name == "__init__.py":
            package_dirs.add(pure.parent)
    names = {}
    for parsed in parsed_modules:
        pure = PurePosixPath(parsed.path)
        is_package = pure.name == "__init__.py"
        directory = pure.parent
        parts = [] if is_package else [pure.stem]
        while directory in package_dirs:
            parts.append(directory.name)
            directory = directory.parent
        names[parsed.path] = (".".join(reversed(parts)) or None, is_package)
    return names


class ProjectGraph:
    """The whole linted tree as one queryable structure."""

    def __init__(self, parsed_modules):
        self.files = list(parsed_modules)  # input order
        self.modules = {}       # dotted name -> ParsedModule
        self.by_path = {}       # posix path -> ParsedModule
        self.classes = {}       # canonical qualname -> ClassInfo
        self.emit_sites = []
        self.metric_sites = []
        self.event_vocab = {}   # kind -> VocabEntry
        self.metric_vocab = {}  # leaf -> VocabEntry
        self._mro_cache = {}
        names = _module_names(self.files)
        for module in self.files:
            module.name, module.is_package = names[module.path]
            self.by_path[module.path] = module
            if module.name is not None:
                self.modules[module.name] = module
        for module in self.files:
            self._index_module(module)
        for module in self.files:
            self._index_classes(module)

    # -- construction ---------------------------------------------------------

    def _index_module(self, module):
        for node in module.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                module.top_defs[node.name] = node
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        module.top_defs[target.id] = node
                self._index_literal(module, node)
            elif isinstance(node, ast.AnnAssign) and isinstance(
                node.target, ast.Name
            ):
                module.top_defs[node.target.id] = node
        for node in module.nodes:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    module.aliases[local] = (
                        alias.name if alias.asname else local
                    )
            elif isinstance(node, ast.ImportFrom):
                base = self._import_base(module, node)
                if base is None:
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    module.aliases[local] = (
                        base + "." + alias.name if base else alias.name
                    )
        self._index_string_sites(module)

    def _index_literal(self, module, node):
        """Module-level ``NAME = "literal"`` constants, dicts whose values
        are all string literals, and the vocabulary tables."""
        if len(node.targets) != 1 or not isinstance(node.targets[0],
                                                    ast.Name):
            return
        name = node.targets[0].id
        value = node.value
        if isinstance(value, ast.Constant) and isinstance(value.value, str):
            module.constants[name] = value.value
        elif isinstance(value, ast.Dict):
            values = [
                v.value for v in value.values
                if isinstance(v, ast.Constant) and isinstance(v.value, str)
            ]
            if values and len(values) == len(value.values):
                module.tables[name] = values
        if name == EVENT_VOCAB_NAME:
            vocab = self.event_vocab
        elif name == METRIC_VOCAB_NAME:
            vocab = self.metric_vocab
        else:
            return
        if isinstance(value, ast.Dict):
            items = value.keys
        elif isinstance(value, (ast.Set, ast.Tuple, ast.List)):
            items = value.elts
        else:
            return
        for item in items:
            if isinstance(item, ast.Constant) and isinstance(item.value, str):
                vocab.setdefault(item.value, VocabEntry(module, item))

    @staticmethod
    def _import_base(module, node):
        """The dotted prefix an ImportFrom binds names under."""
        if not node.level:
            return node.module
        package = module.package
        if package is None:
            return None
        parts = package.split(".")
        up = node.level - 1
        if up > len(parts):
            return None
        if up:
            parts = parts[:-up]
        if node.module:
            parts += node.module.split(".")
        return ".".join(parts) if parts else None

    def _index_string_sites(self, module):
        for node in module.nodes:
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)):
                continue
            if (
                node.func.attr == "emit"
                and len(node.args) >= 2
                and _is_hub_receiver(node.func.value)
            ):
                kinds = self._resolve_kind(module, node.args[1])
                self.emit_sites.append(EmitSite(module, node, kinds))
            elif (
                node.func.attr in REGISTRATION_METHODS
                and node.args
                and _is_hub_receiver(node.func.value)
            ):
                name = _literal_str(node.args[0])
                if name is None and isinstance(node.args[0], ast.Name):
                    name = module.constants.get(node.args[0].id)
                leaf = name.rsplit(".", 1)[-1] if name else None
                self.metric_sites.append(MetricSite(
                    module, node, node.func.attr, name, leaf,
                    node.func.attr))

    @staticmethod
    def _table_rows(module, assign):
        """A ``METRICS = ((leaf, kind), ...)`` table as MetricSite rows;
        a table that is not a literal sequence is one row of Nones."""
        rows = []
        value = assign.value
        if not isinstance(value, (ast.Tuple, ast.List)):
            return [MetricSite(module, value, METRIC_TABLE_NAME, None, None,
                               None)]
        for row in value.elts:
            leaf = kind = None
            if isinstance(row, ast.Tuple) and len(row.elts) == 2:
                leaf, kind = (_literal_str(elt) for elt in row.elts)
            rows.append(MetricSite(module, row, METRIC_TABLE_NAME, None, leaf,
                                   kind))
        return rows

    @staticmethod
    def _resolve_kind(module, node):
        """An emit's kind as literal strings: a literal, a module-level
        constant, or a subscript into a module-level literal table."""
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return [node.value]
        if isinstance(node, ast.Name) and node.id in module.constants:
            return [module.constants[node.id]]
        if (
            isinstance(node, ast.Subscript)
            and isinstance(node.value, ast.Name)
            and node.value.id in module.tables
        ):
            return module.tables[node.value.id]
        return None

    def _index_classes(self, module):
        if module.name is None:
            prefix = module.path + "::"
        else:
            prefix = module.name + "."
        for node in module.tree.body:
            if not isinstance(node, ast.ClassDef):
                continue
            bases = []
            for base in node.bases:
                qualified = self._qualify(module, base)
                if qualified is not None:
                    bases.append(self.resolve_symbol(qualified))
            info = ClassInfo(prefix + node.name, node, module, bases)
            for item in node.body:
                if (isinstance(item, ast.Assign) and len(item.targets) == 1
                        and isinstance(item.targets[0], ast.Name)
                        and item.targets[0].id == METRIC_TABLE_NAME):
                    info.metrics = self._table_rows(module, item)
                    self.metric_sites.extend(info.metrics)
            self.classes[prefix + node.name] = info

    @staticmethod
    def _qualify(module, node):
        """A base-class expression as a qualified dotted name, through
        the module's import aliases and top-level defs."""
        name = dotted_name(node)
        if name is None:
            return None
        head, _, rest = name.partition(".")
        if head in module.aliases:
            return module.aliases[head] + ("." + rest if rest else "")
        if head in module.top_defs and not rest:
            if module.name is None:
                return module.path + "::" + head
            return module.name + "." + head
        return None

    # -- queries --------------------------------------------------------------

    def resolve_symbol(self, qualified, _seen=None):
        """Canonicalize ``pkg.mod.Name`` through re-export chains.

        Finds the longest module prefix in the graph; if the trailing
        name is imported there rather than defined, follows the import.
        Unresolvable names are returned unchanged.
        """
        if _seen is None:
            _seen = set()
        if qualified in _seen or "::" in qualified:
            return qualified
        _seen.add(qualified)
        parts = qualified.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            module = self.modules.get(".".join(parts[:cut]))
            if module is None:
                continue
            if len(parts) - cut != 1:
                return qualified  # attribute chains stop at the module
            attr = parts[cut]
            if attr not in module.top_defs and attr in module.aliases:
                return self.resolve_symbol(module.aliases[attr], _seen)
            return qualified
        return qualified

    def metric_table(self, class_info):
        """The ``METRICS`` rows ``class_info`` registers: its own table,
        else the first along its MRO; None when no class declares one."""
        for info in self.mro(class_info):
            if info.metrics is not None:
                return info.metrics
        return None

    def class_named(self, qualified):
        """The :class:`ClassInfo` for a (possibly re-exported) name."""
        return self.classes.get(self.resolve_symbol(qualified))

    def mro(self, class_info):
        """C3 linearization over the classes the graph can resolve.

        Bases outside the graph (``object``, stdlib mixins) are skipped;
        on an inconsistent hierarchy the DFS preorder is returned rather
        than failing, since a lint pass must not crash on odd code.
        """
        cached = self._mro_cache.get(class_info.qualname)
        if cached is None:
            cached = self._linearize(class_info, set())
            self._mro_cache[class_info.qualname] = cached
        return cached

    def _linearize(self, class_info, visiting):
        if class_info.qualname in visiting:
            return [class_info]  # inheritance cycle: stop
        visiting = visiting | {class_info.qualname}
        parents = [
            self.classes[base] for base in class_info.base_qualnames
            if base in self.classes
        ]
        if not parents:
            return [class_info]
        sequences = [self._linearize(p, visiting) for p in parents]
        sequences.append(list(parents))
        merged = _c3_merge(sequences)
        if merged is None:  # inconsistent hierarchy: DFS preorder fallback
            merged, seen = [], set()
            for sequence in sequences[:-1]:
                for item in sequence:
                    if item.qualname not in seen:
                        seen.add(item.qualname)
                        merged.append(item)
        return [class_info] + merged


def _c3_merge(sequences):
    sequences = [list(s) for s in sequences if s]
    result = []
    while sequences:
        for sequence in sequences:
            head = sequence[0]
            if not any(
                head.qualname in {c.qualname for c in other[1:]}
                for other in sequences
            ):
                break
        else:
            return None
        result.append(head)
        sequences = [
            [c for c in s if c.qualname != head.qualname]
            for s in sequences
        ]
        sequences = [s for s in sequences if s]
    return result
