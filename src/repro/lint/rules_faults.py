"""SL5xx: fault-injection hygiene rules.

Fault injection used to mean monkey-patching the datapath -- rebinding
``fifo.put_functional`` (or a link's ``send``, a router's ``route``...)
to a wrapper.  That pattern is invisible to checkpoints (the rebound
callable is not captured, so a restore silently un-injects the fault),
invisible to the event bus, and detaches by object identity that a
second patcher breaks.  ``repro.faults`` replaced it with sanctioned
hooks (``PacketFifo.add_inject_hook``, ``Link.set_down``,
``Router.stall``, ``PacketFifo.set_reserved_bytes``) driven by a seeded
:class:`~repro.faults.plan.FaultPlan`; this rule family keeps the old
pattern from creeping back.
"""

import ast

from repro.lint.engine import Rule

#: Datapath callables a fault (or test) must never rebind on another
#: object.  Covers the NIC FIFOs (put/put_functional/get/try_get), links
#: (send_burst/put/pull on the writer side, receive/take/drain on the
#: reader side), routers (route) and the backplane's
#: injection port (inject).  ``tests/test_lint.py`` checks every name is
#: still a callable on one of those classes.
_DATAPATH_CALLABLES = frozenset({
    "put_functional", "put", "get", "try_get",
    "send_burst", "pull",
    "receive", "take", "drain",
    "route", "inject",
})


class DatapathMonkeyPatchRule(Rule):
    """SL501: a NIC/link/router callable is rebound outside repro.faults.

    ``obj.put_functional = wrapper`` (and friends) bypasses the
    sanctioned injection hooks: the patch is not checkpoint-captured, is
    invisible on the instrumentation bus, and composes with nothing.
    Use ``add_inject_hook`` / ``set_down`` / ``stall`` /
    ``set_reserved_bytes``, or a :class:`repro.faults.FaultPlan` armed
    through the :class:`repro.faults.FaultController`.  An object
    assigning its *own* attribute (``self.put = ...``) is its business
    and is not flagged.
    """

    code = "SL501"
    title = "datapath callable monkey-patched"
    scope = "all"

    def applies_to(self, module):
        # repro.faults is the sanctioned home of fault wiring.
        if "repro/faults/" in module.path.replace("\\", "/"):
            return False
        return super().applies_to(module)

    def check(self, module):
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Assign):
                continue
            for target in node.targets:
                if (
                    isinstance(target, ast.Attribute)
                    and target.attr in _DATAPATH_CALLABLES
                    and not (
                        isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    )
                ):
                    yield self.finding(
                        module, node,
                        "assignment to .%s monkey-patches the datapath; "
                        "use the repro.faults injection hooks instead"
                        % target.attr,
                    )


RULES = (DatapathMonkeyPatchRule(),)
