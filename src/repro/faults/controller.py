"""FaultController: arm a FaultPlan against a live system.

The controller translates plan entries into simulator events at arm
time; when each fires it drives the corresponding sanctioned hook
(``Link.set_down``, ``Router.stall``, injector windows,
``PacketFifo.set_reserved_bytes``), bumps a ``faults.*`` counter and
emits a typed ``fault.*`` event.  An empty plan schedules nothing,
registers nothing, and leaves the run bit-for-bit identical to one
without a controller at all.  Node crashes are not plan events; run
them with :func:`repro.faults.recovery.crash_restore`.
"""

from repro.sim.instrument import Instrumentation


class FaultError(Exception):
    """Raised for plans that do not fit the target system."""


class FaultController:
    """Owns the live fault state a plan creates on one system."""

    def __init__(self, system, plan):
        self.system = system
        self.plan = plan
        self.injectors = []  # live injector windows, for introspection
        self.instr = Instrumentation.of(system.sim)
        self._counters = {}
        self._links_by_name = None
        self._armed = False

    # -- resolution ------------------------------------------------------------

    def _link(self, name):
        if self._links_by_name is None:
            self._links_by_name = {
                link.name: link for link in self.system.backplane.iter_links()
            }
        link = self._links_by_name.get(name)
        if link is None:
            raise FaultError("plan names unknown link %r" % (name,))
        return link

    def _router(self, coords):
        router = self.system.backplane.routers.get(tuple(coords))
        if router is None:
            raise FaultError("plan names unknown router %r" % (coords,))
        return router

    def _node(self, node_id):
        nodes = self.system.nodes
        if not 0 <= node_id < len(nodes):
            raise FaultError("plan names unknown node %d" % node_id)
        return nodes[node_id]

    def _bump(self, name):
        counter = self._counters.get(name)
        if counter is None:
            # Lazily registered: a plan that never fires an event of this
            # type leaves no trace in the metrics snapshot.
            # simlint: ignore[SL302] every caller passes a "faults.*" literal
            counter = self._counters[name] = self.instr.counter(name)
        counter.bump()

    # -- arming ----------------------------------------------------------------

    def arm(self):
        """Schedule every plan entry.  Validates targets eagerly."""
        if self._armed:
            raise FaultError("plan is already armed")
        self._armed = True
        sim = self.system.sim
        now = sim.now
        for event in self.plan.events:
            apply_fn = getattr(self, "_apply_" + event.type_name)
            self._resolve(event)  # fail at arm time, not mid-run
            sim.schedule(max(0, event.at - now), apply_fn, event)
        return self

    def _resolve(self, event):
        kind = event.type_name
        if kind in ("link_down", "link_up"):
            self._link(event.link)
        elif kind in ("router_stall", "router_resume"):
            self._router(event.coords)
        elif kind == "misroute":
            self._node(event.node)
            self._node(event.wrong_node)
        else:
            self._node(event.node)

    # -- the per-event appliers ------------------------------------------------

    def _apply_link_down(self, event):
        self._link(event.link).set_down(True)
        self._bump("faults.link_down")
        hub = self.instr
        if hub.active:
            hub.emit("faults", "fault.link_down", link=event.link)

    def _apply_link_up(self, event):
        self._link(event.link).set_down(False)
        self._bump("faults.link_up")
        hub = self.instr
        if hub.active:
            hub.emit("faults", "fault.link_up", link=event.link)

    def _apply_router_stall(self, event):
        self._router(event.coords).stall()
        self._bump("faults.router_stall")
        hub = self.instr
        if hub.active:
            hub.emit("faults", "fault.router_stall", coords=list(event.coords))

    def _apply_router_resume(self, event):
        self._router(event.coords).resume()
        self._bump("faults.router_resume")
        hub = self.instr
        if hub.active:
            hub.emit("faults", "fault.router_resume",
                     coords=list(event.coords))

    def _apply_corrupt(self, event):
        from repro.faults.injectors import CorruptEveryNth

        injector = CorruptEveryNth(self._node(event.node).nic, event.every_nth)
        self.injectors.append(injector)
        self._schedule_end(event.until, injector.detach)

    def _apply_misroute(self, event):
        from repro.faults.injectors import MisrouteEveryNth

        injector = MisrouteEveryNth(
            self._node(event.node).nic, event.every_nth, event.wrong_node
        )
        self.injectors.append(injector)
        self._schedule_end(event.until, injector.detach)

    def _fifo_for(self, event):
        nic = self._node(event.node).nic
        return nic.outgoing_fifo if event.fifo == "out" else nic.incoming_fifo

    def _apply_fifo_pressure(self, event):
        fifo = self._fifo_for(event)
        applied = fifo.set_reserved_bytes(event.reserve_bytes)
        self._bump("faults.fifo_pressure")
        hub = self.instr
        if hub.active:
            hub.emit("faults", "fault.fifo_pressure", node=event.node,
                     fifo=event.fifo, reserve_bytes=applied)
        self._schedule_end(event.until, fifo.set_reserved_bytes, 0)

    def _schedule_end(self, until, callback, *args):
        """Arm a window-closing callback (immediate if the time passed)."""
        if until is None:
            return
        sim = self.system.sim
        sim.schedule(max(0, until - sim.now), callback, *args)
