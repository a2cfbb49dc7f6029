"""SL4xx: engine-callback safety rules.

Everything the simulator executes is a callback: engine events
(``sim.schedule``/``sim.post``) and live event-bus subscribers
(``hub.subscribe``).  Two things a callback must never do:

- block on host I/O (``time.sleep``, ``input``, ``open``...): simulated
  time is decoupled from wall time, and a blocking call stalls the whole
  single-threaded engine;
- mutate the engine clock or sequence counter: ``sim._now``/``sim._seq``
  are owned exclusively by the run loop, and the event-bus contract
  (docs/observability.md) requires subscribers to be timing-invisible.

(Re-entering the run loop needs no rule: ``Simulator.run`` raises
``SimulationError("run() is not reentrant")`` the moment it happens.)

These rules resolve, module-locally, which functions are posted as
callbacks (lambdas inline; ``self._method`` / bare function references by
name) and scan their bodies.  Cross-module callbacks are out of scope --
the fixture corpus documents the supported shapes.
"""

import ast

from repro.lint.astutil import dotted_name, resolved_call_name
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

_CLOCK_ATTRS = {"_now", "_seq", "now", "_event_count"}


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


def _is_sim_receiver(node):
    name = dotted_name(node)
    return name is not None and name.split(".")[-1] == "sim"


class _CallbackRule(Rule):
    """Shared driving logic: locate callback bodies, delegate scanning."""

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
        raise NotImplementedError


class BlockingIoRule(_CallbackRule):
    """SL402: an engine callback blocks on host I/O.

    The engine is single-threaded: a ``time.sleep``/``input``/``open``
    inside a callback stalls every simulated component and couples
    simulated timing to the host.  I/O belongs outside the run loop
    (checkpoint save/load, analysis exports).
    """

    code = "SL402"
    title = "callback performs blocking host I/O"

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


class ClockMutationRule(_CallbackRule):
    """SL403: an engine callback writes the engine clock.

    ``sim._now``, ``sim._seq`` and ``sim._event_count`` are owned by the
    run loop; a callback writing them corrupts the (time, seq) total
    order that determinism and checkpoint replay are built on.  Reads
    (``sim._now`` on hot paths) are fine; only stores are flagged.
    """

    code = "SL403"
    title = "callback mutates the engine clock"

    def scan_body(self, module, body):
        for node in ast.walk(body):
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and target.attr in _CLOCK_ATTRS
                        and _is_sim_receiver(target.value)
                    ):
                        yield self.finding(
                            module, node,
                            "engine callback assigns sim.%s; the clock and "
                            "sequence counter belong to the run loop"
                            % target.attr,
                        )


RULES = (BlockingIoRule(), ClockMutationRule())
