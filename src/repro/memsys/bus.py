"""The Xpress memory bus.

A single shared, arbitrated bus connecting the CPU (through its cache), the
DRAM, the NIC snooper, the NIC command-memory interface and the EISA bridge.
Everything that happens on a SHRIMP node -- including the NIC observing
application stores (paper section 4) -- is a transaction on this bus.

Devices claim address ranges and service transactions functionally; the bus
charges all timing.  Snoopers observe every transaction after the target
device has handled it; the NIC's automatic-update mechanism and the caches'
DMA-invalidation are both snoopers.
"""

from repro.ckpt.protocol import SCALAR, Checkpointable
from repro.sim.instrument import Instrumentation
from repro.sim.resources import Mutex


class BusError(Exception):
    """Raised when a transaction targets an unclaimed address."""


# Transaction kind -> event kind, kept literal so the event vocabulary in
# docs/observability.md stays statically auditable (simlint SL303).
_TXN_EVENT_KINDS = {
    "read": "bus.read",
    "write": "bus.write",
}


class Transaction:
    """One bus transaction, as seen by devices and snoopers."""

    __slots__ = ("kind", "addr", "nwords", "data", "originator", "locked", "time")

    READ = "read"
    WRITE = "write"

    def __init__(self, kind, addr, nwords, data, originator, locked=False, time=0):
        self.kind = kind
        self.addr = addr
        self.nwords = nwords
        self.data = data
        self.originator = originator
        self.locked = locked
        self.time = time

    def end_addr(self):
        return self.addr + 4 * self.nwords

    def __repr__(self):
        return "Transaction(%s %#x x%d by %s)" % (
            self.kind,
            self.addr,
            self.nwords,
            self.originator,
        )


class BusDevice:
    """Base class for bus targets.

    Subclasses implement :meth:`bus_read` and :meth:`bus_write` functionally
    (zero simulated time -- the bus charges timing) and may override
    :attr:`extra_latency_ns` for device-specific access latency (DRAM).
    """

    extra_latency_ns = 0

    def bus_read(self, addr, nwords):
        raise NotImplementedError

    def bus_write(self, addr, words):
        raise NotImplementedError


class DramDevice(BusDevice):
    """Adapts :class:`~repro.memsys.physmem.PhysicalMemory` to the bus."""

    def __init__(self, memory, access_ns):
        self.memory = memory
        self.extra_latency_ns = access_ns

    def bus_read(self, addr, nwords):
        return self.memory.read_words(addr, nwords)

    def bus_write(self, addr, words):
        self.memory.write_words(addr, words)


class XpressBus(Checkpointable):
    """Arbitrated shared bus with address-decoded devices and snoopers."""

    #: Metrics registered under the bus's name; ``busy_ns`` is a probe of
    #: the attribute of that name.
    METRICS = (("transactions", "counter"), ("words", "counter"),
               ("busy_ns", "probe"))

    # Utilisation accounting.  Safepoints guarantee no transaction is in
    # flight (the arbiter mutex is unlocked), so ``busy_ns`` is the only
    # state outside the instrumentation hub.  Devices and snoopers attach
    # while the node is built and hold live objects; an identically built
    # machine has identical wiring.
    CKPT_STATE = (("busy_ns", SCALAR),)
    CKPT_SKIP = {"_ranges": "wiring built once by attach()",
                 "_snoopers": "wiring: live callables"}

    def __init__(self, sim, params, name="xpress"):
        self.sim = sim
        self.params = params
        self.name = name
        self._mutex = Mutex(sim, name + ".arb")
        self._ranges = []  # (lo, hi, device)
        self._snoopers = []
        self.instr = Instrumentation.of(sim)
        self.transactions, self.words_moved = self.instr.register(self)
        self.busy_ns = 0

    def attach(self, lo, hi, device):
        """Claim [lo, hi) for ``device``.  Ranges must not overlap."""
        for existing_lo, existing_hi, _dev in self._ranges:
            if lo < existing_hi and existing_lo < hi:
                raise BusError(
                    "range [%#x,%#x) overlaps existing [%#x,%#x)"
                    % (lo, hi, existing_lo, existing_hi)
                )
        self._ranges.append((lo, hi, device))

    def add_snooper(self, snooper):
        """``snooper(transaction)`` is called for every completed transaction."""
        self._snoopers.append(snooper)

    def _decode(self, addr, nwords):
        end = addr + 4 * nwords
        for lo, hi, device in self._ranges:
            if lo <= addr < hi:
                if end > hi:
                    raise BusError(
                        "transaction [%#x,%#x) crosses device boundary %#x"
                        % (addr, end, hi)
                    )
                return device
        raise BusError("no device claims address %#x" % addr)

    def _charge(self, nwords, device):
        cost = (
            self.params.bus_arbitration_ns
            + nwords * self.params.bus_word_ns
            + device.extra_latency_ns
        )
        self.busy_ns += cost
        return cost

    def _notify(self, txn):
        txn.time = self.sim.now
        hub = self.instr
        if hub.active:
            hub.emit(
                self.name,
                _TXN_EVENT_KINDS[txn.kind],
                addr=txn.addr,
                words=txn.nwords,
                originator=txn.originator,
                locked=txn.locked,
            )
        for snooper in self._snoopers:
            snooper(txn)

    # -- checkpoint protocol (see repro.ckpt) ---------------------------------

    def ckpt_refusal(self, state):
        if state is None and self._mutex.locked:
            return "bus %s has a transaction in flight at capture" % self.name
        return None

    # -- transaction generators ---------------------------------------------

    def read(self, addr, nwords, originator):
        """Generator: timed read of ``nwords`` words.  Returns list of ints."""
        device = self._decode(addr, nwords)
        yield from self._mutex.acquire(originator)
        try:
            yield self._charge(nwords, device)
            data = device.bus_read(addr, nwords)
        finally:
            self._mutex.release()
        self.transactions.bump()
        self.words_moved.bump(nwords)
        self._notify(Transaction(Transaction.READ, addr, nwords, data, originator))
        return data

    def write(self, addr, words, originator):
        """Generator: timed write of a word list."""
        device = self._decode(addr, len(words))
        yield from self._mutex.acquire(originator)
        try:
            yield self._charge(len(words), device)
            device.bus_write(addr, words)
        finally:
            self._mutex.release()
        self.transactions.bump()
        self.words_moved.bump(len(words))
        self._notify(
            Transaction(Transaction.WRITE, addr, len(words), list(words), originator)
        )

    def cmpxchg(self, addr, expected, new_value, originator):
        """Generator: locked compare-and-exchange, one bus tenure.

        Performs a read cycle; if the value equals ``expected``, performs a
        write cycle of ``new_value`` (paper section 4.3: CMPXCHG "generates
        a read cycle followed by a write cycle if the value returned by the
        read matches the accumulator").  Returns ``(old_value, swapped)``.
        """
        device = self._decode(addr, 1)
        yield from self._mutex.acquire(originator)
        try:
            yield self._charge(1, device)
            old_value = device.bus_read(addr, 1)[0]
            read_txn = Transaction(
                Transaction.READ, addr, 1, [old_value], originator, locked=True
            )
            swapped = old_value == expected
            write_txn = None
            if swapped:
                yield self._charge(1, device)
                device.bus_write(addr, [new_value])
                write_txn = Transaction(
                    Transaction.WRITE, addr, 1, [new_value], originator, locked=True
                )
        finally:
            self._mutex.release()
        self.transactions.bump(2 if swapped else 1)
        self.words_moved.bump(2 if swapped else 1)
        self._notify(read_txn)
        if write_txn is not None:
            self._notify(write_txn)
        return old_value, swapped
