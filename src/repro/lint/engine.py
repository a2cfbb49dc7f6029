"""The simlint rule engine: parsing, scoping, suppressions, one pass.

simlint is an AST-based static checker for this repository's own
invariants -- the contracts that golden traces, checkpoint/replay and the
instrumentation hub rely on but that ordinary linters cannot see
(``docs/static-analysis.md`` documents every rule).  The engine is
deliberately small:

- The linted tree is parsed once into a
  :class:`~repro.lint.project.ProjectGraph`, and every rule runs on it.
  A rule is a :class:`Rule` subclass with a stable code (``SL1xx``
  determinism, ``SL2xx`` checkpoint coverage, ...), a one-line title,
  and a ``check(graph)`` generator yielding :class:`Finding` objects;
  a rule that looks at one file at a time implements ``check_module``
  instead, and the default ``check`` runs it on each module in scope.
- Rules declare a *scope*: ``"sim"`` rules only run on files under
  ``src/repro`` (simulation code), ``"all"`` rules run everywhere.  A
  fixture file can opt into a scope with a ``# simlint: scope=sim``
  pragma in its first lines, which is how the test corpus under
  ``tests/lint_fixtures/`` exercises sim-scoped rules.
- Findings are suppressed in code with ``# simlint: ignore[SL104]`` --
  trailing on the finding's anchor line, or on a comment-only line
  directly above it (the comment then applies to the next code line).
  Several codes: ``ignore[SL104,SL201]``; bare ``# simlint: ignore``
  suppresses every code.  ``# simlint: ignore-file[SLnnn]`` in the first
  20 lines suppresses for the whole file.  Suppressions are the only
  exception mechanism: the gate is zero findings, a coded suppression
  must carry its justification in the same comment, and a suppression
  that suppresses nothing is itself a finding.
"""

import ast
import io
import re
import tokenize
from pathlib import Path

from repro.lint.project import ProjectGraph

# Directories never walked into: caches, and the lint fixture corpus
# (fixture files are deliberate rule violations; tests lint them by
# explicit path).
_SKIP_DIR_NAMES = {"__pycache__", "lint_fixtures", ".git"}

_SUPPRESS_RE = re.compile(
    r"#\s*simlint:\s*ignore(?:\[([A-Z0-9,\s]+)\])?\s*(?:--\s*)?(\S?.*)$"
)
_SUPPRESS_FILE_RE = re.compile(
    r"#\s*simlint:\s*ignore-file\[([A-Z0-9,\s]+)\]\s*(?:--\s*)?(\S?.*)$"
)
_SCOPE_RE = re.compile(r"#\s*simlint:\s*scope=(\w+)")


class LintUsageError(Exception):
    """Bad invocation (unknown rule code, unreadable path); CLI exit 2."""


class Finding:
    """One rule violation anchored to a source line."""

    __slots__ = ("code", "path", "line", "col", "message")

    def __init__(self, code, path, line, col, message):
        self.code = code
        self.path = path
        self.line = line
        self.col = col
        self.message = message

    def sort_key(self):
        return (self.path, self.line, self.col, self.code)

    def to_dict(self):
        return {
            "code": self.code,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }

    def __repr__(self):
        return "%s:%d:%d: %s %s" % (
            self.path, self.line, self.col, self.code, self.message
        )


class Rule:
    """Base class for simlint rules.

    Subclasses set ``code``, ``title`` and ``scope``, and implement
    :meth:`check` (given the whole
    :class:`~repro.lint.project.ProjectGraph`) or :meth:`check_module`
    (given one in-scope module) as a generator over :class:`Finding`.
    The rule's docstring is its long-form documentation (``--explain``).
    """

    code = "SL000"
    title = ""
    scope = "sim"  # "sim" (src/repro only) or "all"
    skip_path_suffixes = ()  # posix path suffixes this rule never checks

    def applies_to(self, module):
        if self.scope == "sim" and module.scope != "sim":
            return False
        return not any(
            module.path.endswith(suffix) for suffix in self.skip_path_suffixes
        )

    def check(self, graph):
        """Every finding in ``graph``: by default, each in-scope module's
        :meth:`check_module` findings; cross-module rules override this."""
        for module in graph.files:
            if self.applies_to(module):
                yield from self.check_module(module)

    def check_module(self, module):
        raise NotImplementedError

    def finding(self, module, node, message, line=None):
        return Finding(
            self.code, module.path,
            line or getattr(node, "lineno", 1), getattr(node, "col_offset", 0),
            message,
        )


class ParsedModule:
    """One parsed source file plus its suppression and scope pragmas.

    The project graph fills in the rest: the dotted ``name``, import
    ``aliases``, ``top_defs`` and the module-level literal ``constants``
    and ``tables``.
    """

    def __init__(self, path, source):
        self.path = path  # posix-style, as given on the command line
        self.tree = ast.parse(source, filename=path)
        self.nodes = list(ast.walk(self.tree))  # every rule walks these
        # (pragma line, anchor line or None for ignore-file, codes or {"*"})
        self.pragmas = []
        self.used_pragmas = set()  # pragma lines that suppressed a finding
        self.unjustified = []   # (pragma line, sorted codes) missing a reason
        self.scope = self._infer_scope(path)
        if "simlint:" in source:
            self._scan_pragmas(source)
        self.name = None          # dotted module name, or None
        self.is_package = False
        self.aliases = {}         # local name -> qualified dotted name
        self.top_defs = {}        # top-level def/class/assign name -> node
        self.constants = {}       # module-level str constants
        self.tables = {}          # module-level dicts of str literals

    @property
    def package(self):
        """The package this module's relative imports are rooted at."""
        if self.name is None:
            return None
        if self.is_package:
            return self.name
        return self.name.rpartition(".")[0] or None

    def __repr__(self):
        return "ParsedModule(%s)" % (self.name or self.path)

    @staticmethod
    def _infer_scope(path):
        posix = path.replace("\\", "/")
        if "src/repro/" in posix or posix.startswith("repro/"):
            return "sim"
        return "other"

    def _scan_pragmas(self, source):
        try:
            tokens = tokenize.generate_tokens(io.StringIO(source).readline)
            comments = [
                (tok.start[0], tok.string)
                for tok in tokens if tok.type == tokenize.COMMENT
            ]
        except tokenize.TokenError:
            comments = [
                (number, line)
                for number, line in enumerate(source.splitlines(), 1)
                if "#" in line
            ]
        lines = source.splitlines()
        for line_number, comment in comments:
            match = _SUPPRESS_FILE_RE.search(comment)
            if match and line_number <= 20:
                codes = _codes(match.group(1))
                self.pragmas.append((line_number, None, codes))
                if not match.group(2).strip():
                    self.unjustified.append(
                        (line_number, ",".join(sorted(codes)))
                    )
                continue
            match = _SUPPRESS_RE.search(comment)
            if match:
                codes = _codes(match.group(1)) if match.group(1) else {"*"}
                anchor = self._anchor_line(lines, line_number)
                self.pragmas.append((line_number, anchor, codes))
                # A *coded* suppression is a claim ("this specific rule
                # does not apply here") and must say why; a bare ignore
                # is already flagged by review convention.
                if match.group(1) and not match.group(2).strip():
                    self.unjustified.append(
                        (line_number, ",".join(sorted(codes)))
                    )
            match = _SCOPE_RE.search(comment)
            if match and line_number <= 20:
                self.scope = match.group(1)

    @staticmethod
    def _anchor_line(lines, line_number):
        """The line an ignore comment applies to.

        A trailing comment anchors to its own line; a comment-only line
        anchors to the next code line below it (skipping blank and
        comment lines), so a justification can sit above the statement.
        """
        if not lines[line_number - 1].lstrip().startswith("#"):
            return line_number
        for offset in range(line_number, len(lines)):
            stripped = lines[offset].strip()
            if stripped and not stripped.startswith("#"):
                return offset + 1
        return line_number

    def is_suppressed(self, finding):
        """Whether a pragma covers ``finding``; marks that pragma used."""
        for line, anchor, codes in self.pragmas:
            if anchor in (None, finding.line) and (
                    "*" in codes or finding.code in codes):
                self.used_pragmas.add(line)
                return True
        return False


def _codes(spec):
    return {code.strip() for code in spec.split(",") if code.strip()}


# -- running ------------------------------------------------------------------


def iter_python_files(paths):
    """Expand files/directories into .py files, skipping caches/fixtures."""
    for raw in paths:
        path = Path(raw)
        if path.is_file():
            yield path
        elif path.is_dir():
            for candidate in sorted(path.rglob("*.py")):
                if not _SKIP_DIR_NAMES.intersection(candidate.parts):
                    yield candidate
        else:
            raise LintUsageError("no such file or directory: %s" % raw)


UNJUSTIFIED_MESSAGE = (
    "coded suppression ignore[%s] carries no justification; say why in "
    "the same comment (the reason is the documentation the next reader "
    "needs)"
)
UNUSED_MESSAGE = (
    "suppression ignore[%s] suppresses no finding; delete it (the code "
    "it excused is gone, or the rule never flagged that line)"
)


def run_rules(paths, rules, selected_codes=None):
    """Lint ``paths`` with ``rules``; returns (findings, suppressed_count).

    Findings are sorted by (path, line, col, code); suppressed findings
    are dropped and only counted.  Unparseable files produce an ``SL000``
    finding instead of crashing the run (a syntax error is a finding);
    a coded suppression with no justification produces an ``SL001``,
    and a suppression that suppressed no finding an ``SL002`` -- judged
    only when every code it names ran.
    """
    if selected_codes:
        known = {rule.code for rule in rules} | {"SL000", "SL001", "SL002"}
        unknown = set(selected_codes) - known
        if unknown:
            raise LintUsageError(
                "unknown rule code(s): %s" % ", ".join(sorted(unknown))
            )
        rules = [rule for rule in rules if rule.code in selected_codes]

    findings = []
    modules = []
    for file_path in iter_python_files(paths):
        posix = file_path.as_posix()
        try:
            source = file_path.read_text(encoding="utf-8")
            modules.append(ParsedModule(posix, source))
        except (UnicodeDecodeError, SyntaxError) as exc:
            line = getattr(exc, "lineno", 1) or 1
            findings.append(
                Finding("SL000", posix, line, 0, "unparseable: %s" % exc)
            )
    graph = ProjectGraph(modules)

    suppressed = 0
    for rule in rules:
        for finding in rule.check(graph):
            if graph.by_path[finding.path].is_suppressed(finding):
                suppressed += 1
            else:
                findings.append(finding)
    if selected_codes is None or "SL001" in selected_codes:
        for module in modules:
            for line, codes in module.unjustified:
                findings.append(Finding(
                    "SL001", module.path, line, 0, UNJUSTIFIED_MESSAGE % codes,
                ))
    if selected_codes is None or "SL002" in selected_codes:
        ran = {rule.code for rule in rules}
        for module in modules:
            for line, _anchor, codes in module.pragmas:
                judged = selected_codes is None or (
                    "*" not in codes and codes <= ran)
                if judged and line not in module.used_pragmas:
                    findings.append(Finding(
                        "SL002", module.path, line, 0,
                        UNUSED_MESSAGE % ",".join(sorted(codes)),
                    ))
    findings.sort(key=Finding.sort_key)
    return findings, suppressed
