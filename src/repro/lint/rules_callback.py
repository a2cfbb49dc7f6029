"""SL402: engine-callback safety.

Everything the simulator executes is a callback: engine events
(``sim.schedule``/``sim.post``) and live event-bus subscribers
(``hub.subscribe``).  A callback must never block on host I/O
(``time.sleep``, ``input``, ``open``...): simulated time is decoupled
from wall time, and a blocking call stalls the whole single-threaded
engine.  (Writing the engine clock is SL403, a row of the owner table
in :mod:`repro.lint.rules_owner`, checked everywhere, not only in
callbacks.)

(Re-entering the run loop needs no rule: ``Simulator.run`` raises
``SimulationError("run() is not reentrant")`` the moment it happens.)

This rule resolves, module-locally, which functions are posted as
callbacks (lambdas inline; ``self._method`` / bare function references by
name) and scan their bodies.  Cross-module callbacks are out of scope --
the fixture corpus documents the supported shapes.
"""

import ast

from repro.lint.astutil import resolved_call_name
from repro.lint.engine import Rule

# (method attribute, positional index of the callback argument)
_SCHEDULING_CALLS = {
    "schedule": 1,
    "schedule_at": 1,
    "post": 0,
    "subscribe": 0,
}

_BLOCKING_CALLS = {
    "time.sleep",
    "os.system", "os.popen",
    "subprocess.run", "subprocess.call", "subprocess.check_output",
    "socket.socket", "socket.create_connection",
}

_BLOCKING_BARE = {"open", "input"}


def _callback_targets(nodes):
    """(method/function names, lambda nodes) referenced as callbacks."""
    names = set()
    lambdas = []
    for node in nodes:
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not isinstance(func, ast.Attribute):
            continue
        index = _SCHEDULING_CALLS.get(func.attr)
        if index is None or len(node.args) <= index:
            continue
        callback = node.args[index]
        if isinstance(callback, ast.Lambda):
            lambdas.append(callback)
        elif isinstance(callback, ast.Attribute):
            names.add(callback.attr)
        elif isinstance(callback, ast.Name):
            names.add(callback.id)
    return names, lambdas


class BlockingIoRule(Rule):
    """SL402: an engine callback blocks on host I/O.

    The engine is single-threaded: a ``time.sleep``/``input``/``open``
    inside a callback stalls every simulated component and couples
    simulated timing to the host.  I/O belongs outside the run loop
    (checkpoint save/load, analysis exports).
    """

    code = "SL402"
    title = "callback performs blocking host I/O"
    skip_path_suffixes = ("repro/sim/engine.py",)

    def check_module(self, module):
        names, lambdas = _callback_targets(module.nodes)
        bodies = list(lambdas)
        for node in module.nodes:
            if (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node.name in names
            ):
                bodies.append(node)
        for body in bodies:
            yield from self.scan_body(module, body)

    def scan_body(self, module, body):
        for node in ast.walk(body):
            if not isinstance(node, ast.Call):
                continue
            name = resolved_call_name(node, module.aliases)
            if name in _BLOCKING_BARE or name in _BLOCKING_CALLS or (
                name is not None
                and any(name.endswith("." + c) for c in _BLOCKING_CALLS)
            ):
                yield self.finding(
                    module, node,
                    "engine callback calls %s(); blocking host I/O stalls "
                    "the single-threaded engine" % name,
                )


RULES = (BlockingIoRule(),)
