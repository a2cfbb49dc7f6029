"""A small statement-level control-flow graph for dominance queries.

The SL9xx protocol-order rules need one question answered precisely:
*"can execution reach statement S without first passing through X?"*
where X is either a set of statements (a ``set_last_grant`` call must
precede every page push) or a set of *branch edges* (the only way to a
``WRITE_OK`` send must be the walk-is-empty side of an ``if``).  That is
plain graph reachability over a CFG whose nodes are statements and whose
branch edges are labeled -- no dominator trees required.

The builder covers the statement forms the simulation tree uses
(``if``/``for``/``while``/``try``/``with``, ``return``/``raise``/
``break``/``continue``) and is deliberately conservative where Python is
dynamic: every statement inside a ``try`` body may jump to every
handler, and loop bodies may execute zero times.
"""

import ast

#: The synthetic entry node (no statement attached).
ENTRY = 0


class Cfg:
    """Control-flow graph of one function body.

    - ``stmts``: node id -> the ``ast.stmt`` it represents (node 0 is the
      synthetic entry and has no statement).
    - ``succ``: node id -> list of ``(dst, tag)`` edges.  ``tag`` is
      ``"true"``/``"false"`` for the two sides of an ``if``/loop test,
      ``"except"`` for a potential exception edge, else ``None``.
    """

    def __init__(self):
        self.stmts = {}
        self.succ = {ENTRY: []}

    def nodes_matching(self, predicate):
        """Node ids whose statement's *shallow* expressions satisfy
        ``predicate`` (bodies of compound statements are their own
        nodes and are not searched)."""
        found = set()
        for nid, stmt in self.stmts.items():
            if any(predicate(expr) for expr in shallow_exprs(stmt)):
                found.add(nid)
        return found

    def reaches_without(self, target, blocked_nodes=(), blocked_edges=()):
        """True when a path ENTRY -> ``target`` exists that enters no
        node in ``blocked_nodes`` and traverses no edge whose
        ``(src, tag)`` pair is in ``blocked_edges``."""
        blocked_nodes = set(blocked_nodes)
        blocked_edges = set(blocked_edges)
        if target in blocked_nodes:
            return False
        seen = {ENTRY}
        stack = [ENTRY]
        while stack:
            nid = stack.pop()
            for dst, tag in self.succ.get(nid, ()):
                if dst == target and (nid, tag) not in blocked_edges:
                    return True
                if (
                    dst not in seen
                    and dst not in blocked_nodes
                    and (nid, tag) not in blocked_edges
                ):
                    seen.add(dst)
                    stack.append(dst)
        return False


def shallow_exprs(stmt):
    """The expressions evaluated *at* a statement node, excluding the
    bodies of compound statements (those are separate CFG nodes)."""
    if isinstance(stmt, (ast.If, ast.While)):
        return [stmt.test]
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        return [stmt.target, stmt.iter]
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        return [item.context_expr for item in stmt.items]
    if isinstance(stmt, (ast.Try, ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef)):
        return []
    if isinstance(stmt, ast.Return):
        return [stmt.value] if stmt.value is not None else []
    return [stmt]


class _Builder:
    def __init__(self):
        self.cfg = Cfg()
        self._next = ENTRY + 1
        self._loops = []  # [breaks-list, header-nid] per enclosing loop

    def _new(self, stmt):
        nid = self._next
        self._next += 1
        self.cfg.stmts[nid] = stmt
        self.cfg.succ[nid] = []
        return nid

    def _connect(self, edges, dst):
        for src, tag in edges:
            self.cfg.succ[src].append((dst, tag))

    def block(self, stmts, incoming):
        """Wire a statement list; returns the fall-through edges."""
        for stmt in stmts:
            # Statements after a return/raise get nodes but no incoming
            # edges: present in the graph, unreachable -- which is true.
            nid = self._new(stmt)
            self._connect(incoming, nid)
            incoming = self._outgoing(stmt, nid)
        return incoming

    def _outgoing(self, stmt, nid):
        if isinstance(stmt, ast.If):
            body_out = self.block(stmt.body, [(nid, "true")])
            if stmt.orelse:
                else_out = self.block(stmt.orelse, [(nid, "false")])
            else:
                else_out = [(nid, "false")]
            return body_out + else_out
        if isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
            self._loops.append([[], nid])
            body_out = self.block(stmt.body, [(nid, "true")])
            breaks, _header = self._loops.pop()
            self._connect(body_out, nid)  # back edge
            exits = [(nid, "false")]
            if stmt.orelse:
                exits = self.block(stmt.orelse, exits)
            return exits + breaks
        if isinstance(stmt, ast.Try):
            first_body = self._next
            body_out = self.block(stmt.body, [(nid, None)])
            body_nodes = [(n, "except") for n in range(first_body, self._next)]
            handler_outs = []
            for handler in stmt.handlers:
                handler_outs += self.block(
                    handler.body, [(nid, "except")] + list(body_nodes)
                )
            if stmt.orelse:
                body_out = self.block(stmt.orelse, body_out)
            outs = body_out + handler_outs
            if stmt.finalbody:
                outs = self.block(stmt.finalbody, outs)
            return outs
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return self.block(stmt.body, [(nid, None)])
        if isinstance(stmt, (ast.Return, ast.Raise)):
            return []
        if isinstance(stmt, ast.Break):
            if self._loops:
                self._loops[-1][0].append((nid, None))
            return []
        if isinstance(stmt, ast.Continue):
            if self._loops:
                self.cfg.succ[nid].append((self._loops[-1][1], None))
            return []
        return [(nid, None)]


def build_cfg(func):
    """The :class:`Cfg` of a FunctionDef/AsyncFunctionDef body."""
    builder = _Builder()
    builder.block(func.body, [(ENTRY, None)])
    return builder.cfg
