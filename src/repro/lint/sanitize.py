"""The happens-before sanitizer: runtime companion to the SL9xx rules.

The static rules certify the *source* orders its protocol actions; this
module certifies one actual *run* did.  ``python -m repro.lint
--sanitize KEY`` builds the :mod:`repro.scenarios` run that pin key
``KEY`` names, subscribes a :class:`HappensBeforeSanitizer` to the
instrumentation bus, runs the scenario to completion and exits non-zero
if any ordering edge the DSM protocol promises was violated:

- a ``dsm.grant`` must carry the token of the latest ``dsm.fault`` on
  the same (node, page) -- the token ties a grant to its fault instance,
  because a home-side demotion between grant and poll legitimately
  re-grants the *same* token -- and, when the requester is not the
  page's home, must
  be preceded by an unconsumed ``dsm.push`` toward that node *and* by a
  NIC deposit (``bus.write`` originated by the NIC datapath, not the
  CPU) into the node's frame for that page.  The deliberate-update
  deposit rides the same FIFO as the grant frame, so per-sender in-order
  delivery makes this the observable form of "data before doorbell";
- a NIC deposit into a DSM frame page is only legitimate at the page's
  home (owner push-back / recall) or while the node has a fault
  outstanding (fetch data in flight);
- a CPU store onto a DSM frame page (should the cache model ever issue
  one) is only legitimate at the home or at the current write holder;
- crash-recovery rebuild windows (``dsm.rebuild_start`` ..
  ``dsm.rebuild_done``) must nest properly per node with strictly
  increasing epochs, and a home mid-rebuild must not answer a fault
  raised *after* the rebuild began -- fresh requests are deferred until
  the directory is rebuilt.  (A grant accepted during the window is
  still legal when its fault predates the rebuild: that is the
  retransmitted pre-crash grant the channel delivers ahead of the
  ``RECOVER_REQ`` on the same FIFO.)

The checker is an ordinary event-bus subscriber: nothing is armed unless
``--sanitize`` is given, so the zero-cost-when-off property of the
instrumentation hub carries over unchanged.  Page geometry (home node,
frame page) is learned from the ``dsm.fault`` events themselves -- the
sanitizer needs no reference to the runtime it watches.
"""

from repro.lint.engine import LintUsageError
from repro.memsys.address import page_number

#: Event kinds the sanitizer subscribes to.
_KINDS = (
    "dsm.fault", "dsm.grant", "dsm.push", "dsm.inval", "bus.write",
    "dsm.rebuild_start", "dsm.rebuild_done",
)


def _node_of(name):
    """The node id embedded in a component name like ``node3.bus``."""
    if not name.startswith("node"):
        return None
    head = name.split(".", 1)[0]
    try:
        return int(head[4:])
    except ValueError:
        return None


class HappensBeforeSanitizer:
    """Checks the DSM ordering contract over a live event stream."""

    def __init__(self, hub):
        self.violations = []
        self.checked_grants = 0
        self.checked_deposits = 0
        self._home = {}        # page -> home node id
        self._frame = {}       # page -> frame page number
        self._page_of_frame = {}
        self._faulting = {}    # (node, page) outstanding -> fault time
        self._fault_token = {}  # (node, page) -> (token, fault time)
        self._pushes = {}      # (dst, page) -> unconsumed push count
        self._deposits = {}    # (node, frame) -> deposit writes seen
        self._write_holder = {}  # page -> node holding write right
        self._rebuilding = {}  # node -> open rebuild's start time
        self._rebuild_epoch = {}  # node -> last rebuild epoch seen
        self._hub = hub
        hub.subscribe(self._on_event, kinds=_KINDS)

    def detach(self):
        self._hub.unsubscribe(self._on_event)

    # -- event stream ----------------------------------------------------------

    def _on_event(self, event):
        handler = getattr(self, "_on_" + event.kind.replace(".", "_"))
        handler(event)

    def _on_dsm_fault(self, event):
        fields = event.fields
        page = fields["page"]
        self._home[page] = fields["home"]
        self._frame[page] = fields["frame"]
        self._page_of_frame[fields["frame"]] = page
        self._faulting[(fields["node"], page)] = event.time
        self._fault_token[(fields["node"], page)] = (
            fields.get("token"), event.time)

    def _on_dsm_push(self, event):
        fields = event.fields
        key = (fields["dst"], fields["page"])
        self._pushes[key] = self._pushes.get(key, 0) + 1
        holder = self._write_holder.get(fields["page"])
        if holder == fields["src"] and fields["dst"] == self._home.get(
            fields["page"]
        ):
            del self._write_holder[fields["page"]]  # pushed back home

    def _on_dsm_inval(self, event):
        fields = event.fields
        if self._write_holder.get(fields["page"]) == fields["node"]:
            del self._write_holder[fields["page"]]

    def _on_dsm_grant(self, event):
        fields = event.fields
        node, page = fields["node"], fields["page"]
        self.checked_grants += 1
        self._faulting.pop((node, page), None)
        entry = self._fault_token.get((node, page))
        fault_time = None
        if entry is not None and entry[0] == fields.get("token"):
            fault_time = entry[1]
        home = self._home.get(page)
        if (
            fault_time is not None
            and home in self._rebuilding
            and fault_time >= self._rebuilding[home]
        ):
            self._report(
                event,
                "dsm.grant for node %d page %d answers a fault raised "
                "after page-home %d began its directory rebuild; fresh "
                "requests must be deferred until dsm.rebuild_done"
                % (node, page, home),
            )
        if fault_time is None:
            self._report(
                event,
                "dsm.grant for node %d page %d with no outstanding "
                "dsm.fault" % (node, page),
            )
        if node != self._home.get(page):
            key = (node, page)
            if self._pushes.get(key, 0) > 0:
                self._pushes[key] -= 1
            else:
                self._report(
                    event,
                    "dsm.grant for node %d page %d not preceded by an "
                    "unconsumed dsm.push to that node" % (node, page),
                )
            frame = self._frame.get(page)
            if self._deposits.pop((node, frame), 0) == 0:
                self._report(
                    event,
                    "dsm.grant for node %d page %d with no NIC deposit "
                    "into frame %s before the doorbell" % (node, page, frame),
                )
        if fields.get("write"):
            self._write_holder[page] = node

    def _on_dsm_rebuild_start(self, event):
        fields = event.fields
        node, epoch = fields["node"], fields["epoch"]
        if node in self._rebuilding:
            self._report(
                event,
                "dsm.rebuild_start for node %d (epoch %d) nests inside "
                "its own open rebuild" % (node, epoch),
            )
        if epoch <= self._rebuild_epoch.get(node, 0):
            self._report(
                event,
                "dsm.rebuild_start for node %d with non-increasing epoch "
                "%d (last %d)" % (node, epoch,
                                  self._rebuild_epoch.get(node, 0)),
            )
        self._rebuild_epoch[node] = epoch
        self._rebuilding[node] = event.time

    def _on_dsm_rebuild_done(self, event):
        fields = event.fields
        node, epoch = fields["node"], fields["epoch"]
        if node not in self._rebuilding:
            self._report(
                event,
                "dsm.rebuild_done for node %d (epoch %d) without an open "
                "dsm.rebuild_start" % (node, epoch),
            )
        elif epoch != self._rebuild_epoch.get(node):
            self._report(
                event,
                "dsm.rebuild_done for node %d closes epoch %d but epoch "
                "%d is open" % (node, epoch, self._rebuild_epoch.get(node)),
            )
        self._rebuilding.pop(node, None)

    def _on_bus_write(self, event):
        node = _node_of(event.source)
        if node is None:
            return
        originator = event.fields.get("originator", "")
        frame = page_number(event.fields["addr"])
        page = self._page_of_frame.get(frame)
        if page is None:
            return  # not a DSM frame this sanitizer knows about
        if originator.endswith(".nic.in") or originator.endswith(".eisa"):
            self.checked_deposits += 1
            self._deposits[(node, frame)] = (
                self._deposits.get((node, frame), 0) + 1
            )
            # A deposit is data arriving for an outstanding fetch, or a
            # home-side push-back, or a duplicate-request re-push (the
            # home re-grants on a retry that raced the original grant;
            # its dsm.push precedes these writes and its grant frame is
            # token-stale at the requester).
            if (
                node != self._home.get(page)
                and (node, page) not in self._faulting
                and self._pushes.get((node, page), 0) == 0
            ):
                self._report(
                    event,
                    "NIC deposit into node %d frame %d (page %d) with no "
                    "fault outstanding, no push in flight, and node is "
                    "not the home" % (node, frame, page),
                )
        elif originator.endswith(".cache"):
            if node != self._home.get(page) and self._write_holder.get(
                page
            ) != node:
                self._report(
                    event,
                    "CPU store onto node %d frame %d (page %d) without "
                    "the write right" % (node, frame, page),
                )

    def _report(self, event, message):
        self.violations.append("t=%d %s" % (event.time, message))


# -- the CLI entry ------------------------------------------------------------


def run_sanitized(key, out):
    """Run the scenario pin ``key`` names (``dsm``, ``dsm@seed=2``; see
    :func:`repro.scenarios.build_key`) with the sanitizer armed.

    Returns the process exit code: 0 on a clean run, 1 on any
    happens-before violation.  A key that names no scenario run raises
    :class:`~repro.lint.engine.LintUsageError` (CLI exit 2).
    """
    from repro.scenarios import build_key

    try:
        system = build_key(key)
    except ValueError as exc:
        raise LintUsageError("--sanitize: %s" % exc) from None
    sanitizer = HappensBeforeSanitizer(system.instrumentation)
    system.run()
    sanitizer.detach()
    for violation in sanitizer.violations:
        print("sanitize: %s" % violation, file=out)
    print(
        "sanitize[%s]: %d violation(s); %d grant(s) and %d deposit(s) "
        "checked over %d ns"
        % (key, len(sanitizer.violations), sanitizer.checked_grants,
           sanitizer.checked_deposits, system.sim.now),
        file=out,
    )
    return 1 if sanitizer.violations else 0
