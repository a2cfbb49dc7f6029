"""Small AST helpers shared by the simlint rules."""

import ast


def dotted_name(node):
    """``a.b.c`` for a Name/Attribute chain, or None for anything else."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def resolved_call_name(node, aliases):
    """The qualified dotted name of a call target, through import aliases.

    ``pc()`` with ``from time import perf_counter as pc`` resolves to
    ``time.perf_counter``; ``time.time()`` resolves to ``time.time``.
    Unresolvable targets return the raw dotted name (or None).
    """
    name = dotted_name(node.func)
    if name is None:
        return None
    head, _, rest = name.partition(".")
    qualified_head = aliases.get(head, head)
    return qualified_head + "." + rest if rest else qualified_head


def self_attr(node):
    """The attribute name X for a ``self.X`` node, else None."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None
