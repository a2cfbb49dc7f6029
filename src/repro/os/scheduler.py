"""Process scheduling.

SHRIMP supports *general* multiprogramming: protection comes from the
virtual memory mappings, not from scheduling constraints, so "having
hardware that supports general multiprogramming gives us the ability to
experiment with various scheduling policies" (paper section 1).  The
round-robin scheduler here is deliberately ordinary -- the interesting
property (tested in ``tests/test_os_multiprogramming.py``) is that context
switches require *no action* by the network interface, because mappings
are between physical pages (section 3.1, figure 3).
"""

from collections import deque

from repro.sim.process import Process
from repro.os.process import ProcessState


class RoundRobinScheduler:
    """Preemptive round-robin over a node's ready processes."""

    def __init__(self, kernel, timeslice_ns=None):
        self.kernel = kernel
        self.node = kernel.node
        self.sim = kernel.sim
        self.timeslice_ns = timeslice_ns or kernel.params.timeslice_ns
        self._run_queue = deque()
        self.context_switches = 0

    def add(self, process):
        if process.state != ProcessState.READY:
            raise ValueError("cannot enqueue %r" % process)
        self._run_queue.append(process)

    def start(self):
        """Spawn the scheduling loop; it returns when every process that
        was ever enqueued has finished."""
        return Process(
            self.sim, self._loop(), self.node.name + ".sched"
        ).start()

    def _loop(self):
        cpu = self.node.cpu
        while self._run_queue:
            process = self._run_queue.popleft()
            # Context switch: install the address space.  Note what is
            # *absent*: no NIC state is saved or restored.
            self.context_switches += 1
            yield (
                self.kernel.params.context_switch_instructions
                * self.node.params.memsys.cpu_clock_ns
            )
            cpu.mmu = process.page_table
            self.kernel.current_process = process
            process.state = ProcessState.RUNNING
            outcome = yield from cpu.run_slice(
                process.program, process.context, max_ns=self.timeslice_ns
            )
            self.kernel.current_process = None
            if outcome == "halt":
                process.state = ProcessState.FINISHED
                process.exit_context = process.context
            else:
                process.state = ProcessState.READY
                self._run_queue.append(process)
