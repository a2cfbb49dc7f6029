"""Gang scheduling.

SHRIMP does not *require* gang scheduling the way the CM-5 does (paper
section 1) -- protection comes from the mappings -- but supporting many
policies is exactly why the hardware allows general multiprogramming:
"having hardware that supports general multiprogramming gives us the
ability to experiment with various scheduling policies".  This module is
one such experiment: all members of a parallel job run in the same time
slot across their nodes, which minimises spin-waiting on peers that are
not currently scheduled.

The scheduler drives every node's CPU from one coordinated loop: per time
slot it launches one ``run_slice`` per gang member (concurrently, on the
member's node), joins them all, then rotates to the next gang.
"""

from repro.os.process import ProcessState
from repro.sim.process import Process


class GangError(Exception):
    """Raised for malformed gang definitions."""


class Gang:
    """One parallel job: a process per participating node."""

    def __init__(self, name, members):
        if not members:
            raise GangError("gang %r has no members" % name)
        self.name = name
        self.members = dict(members)  # node_id -> OsProcess

    def finished(self):
        return all(
            process.state == ProcessState.FINISHED
            for process in self.members.values()
        )


class GangScheduler:
    """Round-robin over gangs; members co-scheduled across nodes."""

    def __init__(self, cluster, timeslice_ns=None):
        self.cluster = cluster
        self.sim = cluster.sim
        self.timeslice_ns = timeslice_ns or 100_000
        self.gangs = []
        self.slot_log = []  # (gang_name, start_ns, end_ns) per slot
        self._driver = None

    def add_gang(self, name, members):
        """``members``: {node_id: OsProcess} (processes must be created
        through the node kernels so their address spaces exist)."""
        for node_id in members:
            if not 0 <= node_id < len(self.cluster.nodes):
                raise GangError("gang %r names unknown node %d"
                                % (name, node_id))
        gang = Gang(name, members)
        self.gangs.append(gang)
        return gang

    def start(self):
        if self._driver is not None:
            raise GangError("gang scheduler already started")
        self._driver = Process(self.sim, self._loop(), "gang-sched").start()
        return self._driver

    def _member_slice(self, node_id, process):
        node = self.cluster.nodes[node_id]
        kernel = self.cluster.kernels[node_id]
        node.cpu.mmu = process.page_table
        kernel.current_process = process
        process.state = ProcessState.RUNNING
        outcome = yield from node.cpu.run_slice(
            process.program, process.context, max_ns=self.timeslice_ns
        )
        kernel.current_process = None
        if outcome == "halt":
            process.state = ProcessState.FINISHED
            process.exit_context = process.context
        else:
            process.state = ProcessState.READY
        return outcome

    def _loop(self):
        while any(not gang.finished() for gang in self.gangs):
            for gang in list(self.gangs):
                if gang.finished():
                    continue
                start = self.sim.now
                slices = [
                    Process(
                        self.sim,
                        self._member_slice(node_id, process),
                        "gang-%s-n%d" % (gang.name, node_id),
                    ).start()
                    for node_id, process in gang.members.items()
                    if process.state != ProcessState.FINISHED
                ]
                for member_slice in slices:
                    yield member_slice  # join
                self.slot_log.append((gang.name, start, self.sim.now))
                # A small gap models the coordinated switch.
                yield 1_000

    @property
    def finished(self):
        return self._driver is not None and self._driver.finished
