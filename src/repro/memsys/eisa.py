"""The EISA expansion bus.

On the prototype SHRIMP NIC, "incoming data from other nodes is transferred
to main memory by way of the EISA expansion bus without involving the CPU"
(paper section 3).  Its burst-mode peak of 33 MB/s is the bandwidth
bottleneck of the whole prototype datapath (section 5.1).

We model the EISA path as a serialised DMA channel: a setup cost per burst
plus a per-word cost at the EISA rate, after which the words are deposited
into DRAM through the memory bus (where the CPU caches snoop-invalidate
them, keeping the caches consistent).
"""

from repro.ckpt.protocol import SCALAR, Checkpointable
from repro.sim.instrument import Instrumentation
from repro.sim.resources import Mutex


class EisaBus(Checkpointable):
    """Serialised burst-DMA channel from the NIC into main memory."""

    #: Metrics registered under the channel's name; ``busy_ns`` is a
    #: probe of the attribute of that name.
    METRICS = (("bursts", "counter"), ("words", "counter"),
               ("busy_ns", "probe"))

    CKPT_STATE = (("busy_ns", SCALAR),)

    def __init__(self, sim, xpress_bus, params, name="eisa"):
        self.sim = sim
        self.xpress_bus = xpress_bus
        self.params = params
        self.name = name
        self._mutex = Mutex(sim, name + ".channel")
        self.instr = Instrumentation.of(sim)
        self.bursts, self.words_moved = self.instr.register(self)
        self.busy_ns = 0

    # -- checkpoint protocol (see repro.ckpt) ---------------------------------

    def ckpt_refusal(self, state):
        if state is None and self._mutex.locked:
            return ("EISA channel %s has a burst in flight at capture"
                    % self.name)
        return None

    def dma_write(self, addr, words):
        """Generator: burst-write ``words`` to DRAM at ``addr``.

        The bridge streams EISA data into memory, so the memory-bus write
        overlaps the burst: the charge is the setup cost plus the *slower*
        of the EISA burst time and the memory-bus transfer (EISA is the
        bottleneck at 33 MB/s; all other datapath stages have at least
        twice its bandwidth, paper section 5.1).  One burst at a time.
        """
        yield from self._mutex.acquire(self.name)
        try:
            yield self.params.eisa_setup_ns
            burst_start = self.sim.now
            yield from self.xpress_bus.write(addr, words, self.name)
            bus_elapsed = self.sim.now - burst_start
            eisa_time = len(words) * self.params.eisa_word_ns
            if eisa_time > bus_elapsed:
                yield eisa_time - bus_elapsed
            self.busy_ns += self.sim.now - burst_start + self.params.eisa_setup_ns
        finally:
            self._mutex.release()
        self.bursts.bump()
        self.words_moved.bump(len(words))
        hub = self.instr
        if hub.active:
            hub.emit(self.name, "eisa.burst", addr=addr, words=len(words))
