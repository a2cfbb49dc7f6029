"""The CPU interpreter.

Executes :class:`~repro.cpu.assembler.Program` objects against the node's
MMU, cache and bus.  The CPU is instruction-exact (every retired
instruction is counted, attributable to open accounting regions) and
cycle-approximate (each instruction charges its base cycles; memory
operands additionally pay real simulated cache/bus time).

Interrupts are taken between instructions: devices call
:meth:`Cpu.post_interrupt` and the registered handler generator runs before
the next instruction issues.  This models the paper's outgoing-FIFO flow
control, where "the CPU is interrupted and waits until the FIFO drains"
(section 4).

Page faults raised by the MMU restart the faulting instruction after the
kernel's fault handler runs -- used by the NIPT-consistency protocol, which
marks unmapped-out pages read-only and re-establishes mappings on write
faults (section 4.4).

Read-only spin loops fold.  The paper's receive path is a flag spin
(``cmp [flag], 0; jz``), and most of a ping-pong run is its iterations.
:meth:`Asm.build <repro.cpu.assembler.Asm.build>` marks each loop whose
body is register-only plus one memory read.  When one iteration of such a
loop has hit the cache and left registers and flags unchanged, every
later iteration repeats it exactly until the word it reads changes, so
``run_slice`` stops executing them: it parks in its own frame on a watch
of the cache line.  Whatever could end the repetition wakes it -- a snoop
invalidation, eviction, write or flush of that line (``memsys.cache``),
``post_interrupt``, ``preempt`` or the end of a bounded slice.  The wake
charges the iterations in closed form -- instruction counts and open
regions, ``cycles_retired``, cache hits and LRU ticks -- and the CPU
resumes at the first event of the unfolded timeline that has not
happened yet, so the read that sees the change runs for real at its
exact instant.  A change made at the very instant of one of the loop's
own events counts as made first, as it is in the unfolded run whenever
the change was scheduled more than one loop step ahead -- which bus
writes and timer-driven processes are.  ``docs/simulation.md`` ("How
spin loops fold") has the details.
"""

from bisect import bisect_left

from repro.ckpt.protocol import DICT, PART, SCALAR, Checkpointable
from repro.cpu.isa import Reg, WORD_MASK, _NO_YIELDS
from repro.memsys.cache import CachePolicy
from repro.sim.instrument import Instrumentation
from repro.sim.process import Signal


class PageFault(Exception):
    """Raised by an MMU when a translation fails.

    ``reason`` is one of ``not-present``, ``write-protected``, ``no-access``.
    """

    def __init__(self, vaddr, access, reason):
        super().__init__("%s fault at %#x (%s)" % (access, vaddr, reason))
        self.vaddr = vaddr
        self.access = access
        self.reason = reason


class InstructionCounts(Checkpointable):
    """Retired-instruction accounting with named regions.

    Regions are opened/closed by ``RegionMarker`` pseudo-instructions; a
    retired instruction is charged to every currently open region.  This is
    how the benchmarks attribute instructions to "send overhead" vs
    "receive overhead" exactly as the paper's Table 1 does.

    ``_active`` is a count map (region name -> open depth), so nested
    same-name regions compose correctly: reopening a region does not
    double-charge retired instructions, and closing pairs with the
    innermost open (closes are just decrements, so nesting order cannot
    be confused the way a first-occurrence list removal could).
    """

    CKPT_STATE = (("total", SCALAR), ("by_region", DICT),
                  ("copy_words", SCALAR), ("_active", DICT))

    def __init__(self):
        self.total = 0
        self.by_region = {}
        self.copy_words = 0
        self._active = {}

    def open_region(self, name):
        self._active[name] = self._active.get(name, 0) + 1
        self.by_region.setdefault(name, 0)

    def close_region(self, name):
        depth = self._active.get(name, 0)
        if not depth:
            raise RuntimeError("closing region %r that is not open" % name)
        if depth == 1:
            del self._active[name]
        else:
            self._active[name] = depth - 1

    def on_retire(self):
        self.total += 1
        if self._active:
            by_region = self.by_region
            for name in self._active:
                by_region[name] += 1

    def retire_many(self, n):
        """``n`` calls of :meth:`on_retire` at once (regions stay open)."""
        self.total += n
        by_region = self.by_region
        for name in self._active:
            by_region[name] += n

    def region(self, name):
        """Instructions retired inside region ``name`` (0 if never opened)."""
        return self.by_region.get(name, 0)


class RegisterFile:
    """Name-indexed view over a context's register list.

    The architectural home of register values is ``Context.reg_values``, a
    fixed list indexed by :attr:`Reg.index` -- that is what the interpreter's
    hot paths touch.  This view keeps the convenient ``ctx.registers["r0"]``
    spelling working for tests, kernels and examples.
    """

    __slots__ = ("_values",)

    def __init__(self, values):
        self._values = values

    def __getitem__(self, name):
        return self._values[Reg.INDEX[name]]

    def __setitem__(self, name, value):
        self._values[Reg.INDEX[name]] = value

    def __repr__(self):
        return "RegisterFile(%s)" % (
            ", ".join("%s=%#x" % pair for pair in zip(Reg.NAMES, self._values))
        )


class Context:
    """Architectural state of one software thread (process)."""

    def __init__(self, entry_pc=0, stack_top=0):
        self.reg_values = [0] * len(Reg.NAMES)
        self.reg_values[Reg.INDEX["sp"]] = stack_top
        self.registers = RegisterFile(self.reg_values)
        self.flags = {"zf": False, "sf": False}
        self.pc = entry_pc
        self.halted = False

    def copy(self):
        other = Context()
        other.reg_values[:] = self.reg_values
        other.flags = dict(self.flags)
        other.pc = self.pc
        other.halted = self.halted
        return other


# The steps of one spin-loop iteration: each is one event of the unfolded
# interpreter, the end of a cycle or hit-latency wait.
_EXEC = 0  # execute and retire a register-only instruction or the branch
_READ = 1  # the read instruction reads the cache
_FINISH = 2  # the read's hit latency is over: it retires


class SpinTiming:
    """Where the events of one iteration of a spin loop fall on one CPU.

    ``offsets[s]`` is step ``s``'s time after the iteration's loop-head
    boundary and ``kinds[s]`` its kind; the last step retires the branch,
    ``period`` after the boundary.  ``retired``/``cycles``/``reads`` are
    prefix sums over the steps, so the charge for any run of steps is a
    difference of two entries plus whole iterations.
    """

    __slots__ = ("offsets", "kinds", "period", "retired", "cycles", "reads")

    def __init__(self, spin, code, clock_ns, hit_ns):
        offsets, kinds, step_cycles = [], [], []
        t = 0
        for k in range(spin.length):
            cycles = code[spin.head + k].cycles
            t += cycles * clock_ns
            if k == spin.read:
                offsets.append(t)
                kinds.append(_READ)
                step_cycles.append(0)
                t += hit_ns
                kinds.append(_FINISH)
            else:
                kinds.append(_EXEC)
            offsets.append(t)
            step_cycles.append(cycles)
        self.offsets = offsets
        self.kinds = kinds
        self.period = t
        self.retired = [0]
        self.cycles = [0]
        self.reads = [0]
        for kind, cycles in zip(kinds, step_cycles):
            retires = kind != _READ
            self.retired.append(self.retired[-1] + retires)
            self.cycles.append(self.cycles[-1] + cycles)
            self.reads.append(self.reads[-1] + (not retires))


class _Fold:
    """A parked spin: ``done`` steps of the timeline that starts at
    ``start`` (a loop-head boundary) are charged so far.

    ``snaps[k]`` is ``(registers, zf, sf)`` after ``k`` instructions of
    an iteration, as the last unfolded iteration left them.  ``waking``
    is the kind of the step the CPU resumes at, once something woke it.
    """

    __slots__ = ("head", "start", "done", "snaps", "timing", "line",
                 "process", "timer", "waking")

    def __init__(self, head, start, done, snaps):
        self.head = head
        self.start = start
        self.done = done
        self.snaps = snaps
        self.timing = None
        self.line = None
        self.process = None
        self.timer = None
        self.waking = None

    def time(self, step):
        """Absolute time of step number ``step`` (0 = the first step)."""
        timing = self.timing
        n = len(timing.offsets)
        return (self.start + step // n * timing.period
                + timing.offsets[step % n])

    def next_step(self, now):
        """The first step not yet charged that has not happened by
        ``now``; a step due at ``now`` comes after the caller's event."""
        return max(self.steps_before(now), self.done)

    def steps_before(self, when):
        """How many steps fall strictly before ``when``."""
        x = when - self.start
        if x <= 0:
            return 0
        timing = self.timing
        q = (x - 1) // timing.period
        return (q * len(timing.offsets)
                + bisect_left(timing.offsets, x - q * timing.period))

    def kind(self, step):
        kinds = self.timing.kinds
        return kinds[step % len(kinds)]


class _Probe:
    """One unfolded iteration of ``spin``, watched for a steady state:
    the counters when its head executed, the registers and flags then
    (``start``) and after each retirement (``snaps``)."""

    __slots__ = ("spin", "retired", "hits", "misses", "gen", "start", "snaps")

    def __init__(self, spin, cpu):
        cache = cpu.cache
        self.spin = spin
        self.retired = cpu.counts.total
        self.hits = cache.hits.value
        self.misses = cache.misses.value
        self.gen = cache._gen
        self.start = cpu._snap()
        self.snaps = []


class _FoldSignal(Signal):
    """What a folded spin parks on; remembers the parked process."""

    __slots__ = ("cpu",)

    def __init__(self, cpu):
        super().__init__(cpu.sim, cpu.name + ".fold")
        self.cpu = cpu

    def _add_waiter(self, process, request=None):
        self.cpu._fold.process = process
        super()._add_waiter(process, request)


class Cpu(Checkpointable):
    """One node CPU."""

    #: Metrics registered under the CPU's name.  The per-instruction
    #: retire path stays counter-free: the retired totals are probes,
    #: read from the ``instructions`` and ``cycles`` properties.
    METRICS = (("interrupts", "counter"), ("instructions", "probe"),
               ("cycles", "probe"))

    # Retirement accounting, plus a parked spin's timeline (settled to
    # now).  Architectural contexts belong to their workload (a
    # CpuWorker) and are captured there.
    CKPT_STATE = (("counts", PART), ("cycles_retired", SCALAR))
    CKPT_SKIP = {
        "context": "externally owned",
        "program": "externally owned",
        "_jump_target": "None between instructions; ckpt_restore clears it",
        "_pending_interrupts": "empty at every safepoint; ckpt_restore "
                               "clears it",
        "_preempt": "clear at every safepoint; ckpt_restore clears it",
        "_interrupt_handlers": "wiring: live callables registered once at "
                               "construction time by the kernel/devices",
        "_fold": "encoded by ckpt_capture: a parked spin's timeline",
        "_spin_timings": "derived from programs and params on demand",
    }

    def __init__(self, sim, cache, mmu, params, name="cpu"):
        self.sim = sim
        self.cache = cache
        self.mmu = mmu
        self.params = params
        self.name = name
        self.context = None
        self.program = None
        self.counts = InstructionCounts()
        self.cycles_retired = 0
        self._jump_target = None
        self._pending_interrupts = []
        self._interrupt_handlers = {}
        self.syscall_handler = None  # set by the kernel
        self.fault_handler = None  # set by the kernel
        self._preempt = False
        # The parked spin, if any (captured by ckpt_capture when parked).
        self._fold = None
        # Wiring: the signal a folded spin parks on.
        self.fold_signal = _FoldSignal(self)
        self._spin_timings = {}  # SpinLoop -> SpinTiming on this CPU
        self.instr = Instrumentation.of(sim)
        (self.interrupts_taken,) = self.instr.register(self)

    @property
    def instructions(self):
        """Instructions retired (the ``instructions`` probe)."""
        return self.counts.total

    @property
    def cycles(self):
        """Cycles retired (the ``cycles`` probe)."""
        return self.cycles_retired

    # -- register / flag access (used by instruction classes) -----------------

    def get_reg(self, reg):
        return self.context.reg_values[reg.index]

    def set_reg(self, reg, value):
        self.context.reg_values[reg.index] = value & WORD_MASK

    @property
    def flags(self):
        return self.context.flags

    def set_flags(self, result, signed_pair=None):
        self.context.flags["zf"] = result == 0
        if signed_pair is not None:
            a, b = signed_pair
            self.context.flags["sf"] = a < b
        else:
            self.context.flags["sf"] = bool(result & 0x80000000)

    def effective_addr(self, mem_operand):
        if mem_operand.base is None:
            return mem_operand.disp & WORD_MASK
        return (
            self.context.reg_values[mem_operand.base.index] + mem_operand.disp
        ) & WORD_MASK

    def jump_to(self, index):
        self._jump_target = index

    def next_pc(self):
        return self.context.pc + 1

    def halt(self):
        self.context.halted = True

    def preempt(self):
        """Ask the current run_slice to return at the next boundary
        (used by the YIELD syscall and gang-scheduling barriers)."""
        self._preempt = True
        if self._fold is not None:
            self.fold_wake()

    # -- memory access ----------------------------------------------------------

    def mem_read(self, vaddr):
        # Instruction operand reads do this translate + cache pair in
        # repro.cpu.isa's ``_load``, with the cache hit as a plain call;
        # keep the two in sync.
        paddr, policy = self.mmu.translate(vaddr, "read")
        value = yield from self.cache.read(paddr, policy)
        return value

    def mem_write(self, vaddr, value):
        paddr, policy = self.mmu.translate(vaddr, "write")
        yield from self.cache.write(paddr, value, policy)

    def mem_cmpxchg(self, vaddr, expected, new_value):
        """Atomic compare-exchange.  Uncached pages go to the bus locked
        (one tenure, as the NIC command protocol requires); cached pages
        are atomic by construction on a single-CPU node."""
        paddr, policy = self.mmu.translate(vaddr, "write")
        if policy == CachePolicy.UNCACHED:
            result = yield from self.cache.bus.cmpxchg(
                paddr, expected, new_value, self.name
            )
            return result
        old_value = yield from self.cache.read(paddr, policy)
        if old_value == expected:
            yield from self.cache.write(paddr, new_value, policy)
            return old_value, True
        return old_value, False

    # -- interrupts ----------------------------------------------------------------

    def register_interrupt_handler(self, cause, handler_factory):
        """``handler_factory()`` must return a fresh generator per delivery."""
        self._interrupt_handlers[cause] = handler_factory

    def post_interrupt(self, cause):
        """Queue an interrupt; it is taken before the next instruction."""
        self._pending_interrupts.append(cause)
        if self._fold is not None:
            self.fold_wake()

    def _take_interrupts(self):
        while self._pending_interrupts:
            cause = self._pending_interrupts.pop(0)
            handler_factory = self._interrupt_handlers.get(cause)
            if handler_factory is None:
                raise RuntimeError(
                    "%s: interrupt %r has no registered handler" % (self.name, cause)
                )
            self.interrupts_taken.bump()
            hub = self.instr
            if hub.active:
                hub.emit(self.name, "cpu.interrupt", cause=cause)
            yield from handler_factory()

    # -- syscalls ----------------------------------------------------------------------

    def trap_syscall(self, number):
        if self.syscall_handler is None:
            raise RuntimeError("%s: syscall %r with no kernel" % (self.name, number))
        hub = self.instr
        if hub.active:
            hub.emit(self.name, "cpu.syscall", number=number)
        yield from self.syscall_handler(self, number)

    # -- execution --------------------------------------------------------------------

    def run_slice(self, program, context, max_ns=None):
        """Generator: execute until halt or the timeslice expires.

        Returns ``"halt"`` or ``"timeslice"``.  The context carries the
        program counter, so a sliced-out process resumes where it stopped.
        """
        self.program = program
        self.context = context
        sim = self.sim
        slice_start = sim._now
        deadline = None if max_ns is None else slice_start + max_ns
        # Hot loop: everything touched per instruction is bound to a local.
        code = program.code
        code_len = len(code)
        clock_ns = self.params.cpu_clock_ns
        spins = program.spins
        counts = self.counts
        # ``probe`` watches one spin iteration for a steady state;
        # ``fold`` is set while the spin is folded.  A checkpoint taken
        # mid-fold restores with an unparked fold: it re-parks first.
        probe = None
        fold = self._fold
        if fold is not None and fold.timing is None:
            self._fold_park(fold, code, None)
        else:
            fold = None
        while True:
            if fold is None:
                if context.halted:
                    return "halt"
                if self._pending_interrupts:
                    probe = None
                    yield from self._take_interrupts()
                if self._preempt:
                    self._preempt = False
                    return "timeslice"
                if deadline is not None and sim._now >= deadline:
                    return "timeslice"
                pc = context.pc
                if pc >= code_len:
                    context.halted = True
                    return "halt"
                instr = code[pc]
                self._jump_target = None
                cycles = instr.cycles
                spin = spins.get(pc) if spins else None
                if spin is not None:
                    fold = self._spin_head(spin, probe, code, deadline)
                    probe = None
            if fold is not None:
                try:
                    kind = yield self.fold_signal
                finally:
                    self._fold_release(fold)
                pc = context.pc
                instr = code[pc]
                cycles = instr.cycles
                if kind == _FINISH:
                    # The folded read's hit latency is over: it retires
                    # with the result every iteration saw.
                    self._load_snap(fold.snaps[pc + 1 - fold.head])
                    fold = None
                    counts.on_retire()
                    self.cycles_retired += cycles
                    context.pc = pc + 1
                    continue
                fold = None
                # A cycle wait ended: execute the instruction at pc.
                spin = spins.get(pc)
            elif cycles:
                yield cycles * clock_ns
            if spin is not None:
                probe = _Probe(spin, self)
            try:
                # Register-only instructions return the _NO_YIELDS
                # sentinel from a plain call; only memory-touching ones
                # pay for a generator delegation.
                step = instr.execute(self)
                if step is not _NO_YIELDS:
                    yield from step
            except PageFault as fault:
                if self.fault_handler is None:
                    raise
                probe = None
                yield from self.fault_handler(self, fault)
                continue  # restart the faulting instruction
            if instr.counts:
                counts.on_retire()
                self.cycles_retired += cycles
            context.pc = (
                self._jump_target if self._jump_target is not None
                else context.pc + 1
            )
            if probe is not None:
                probe = self._probe_step(probe, context)

    # -- spin folding ---------------------------------------------------------

    def _snap(self):
        context = self.context
        flags = context.flags
        return tuple(context.reg_values), flags["zf"], flags["sf"]

    def _load_snap(self, snap):
        regs, zf, sf = snap
        context = self.context
        context.reg_values[:] = regs
        context.flags["zf"] = zf
        context.flags["sf"] = sf

    def _probe_step(self, probe, context):
        """Record one retirement of a probed iteration; None once the
        program leaves the loop body."""
        spin = probe.spin
        snaps = probe.snaps
        k = len(snaps) + 1
        if k > spin.length or context.pc != (
                spin.head + k if k < spin.length else spin.head):
            return None
        snaps.append(self._snap())
        return probe

    def _spin_head(self, spin, probe, code, deadline):
        """At ``spin``'s head: fold if ``probe`` saw a steady iteration.

        Steady means exactly the body's instructions retired, with one
        cache hit, no miss, no change to any cache line, and registers
        and flags back where they started.  Returns the parked fold or
        None.
        """
        if probe is None or probe.spin is not spin:
            return None
        cache = self.cache
        if (len(probe.snaps) != spin.length
                or self.counts.total - probe.retired != spin.length
                or cache.hits.value - probe.hits != 1
                or cache.misses.value != probe.misses
                or cache._gen != probe.gen
                or probe.snaps[-1] != probe.start):
            return None
        if self._spin_line(spin) is None:
            return None
        timing = self._spin_timing(spin, code)
        if deadline is not None and deadline - self.sim._now <= timing.offsets[0]:
            return None  # the slice ends within the first step
        fold = _Fold(spin.head, self.sim._now, 0,
                     [probe.start] + probe.snaps[:-1])
        self._fold = fold
        self._fold_park(fold, code, deadline)
        return fold

    def _spin_line(self, spin):
        """The cache line ``spin`` reads, or None (uncached or absent)."""
        paddr, policy = self.mmu.translate(
            self.effective_addr(spin.operand), "read")
        if policy == CachePolicy.UNCACHED:
            return None
        return self.cache._lookup(paddr)

    def _spin_timing(self, spin, code):
        timing = self._spin_timings.get(spin)
        if timing is None:
            timing = self._spin_timings[spin] = SpinTiming(
                spin, code, self.params.cpu_clock_ns,
                self.params.cache_hit_ns)
        return timing

    def _fold_park(self, fold, code, deadline):
        """Register ``fold``'s line watch, pause hook and slice deadline."""
        spin = self.program.spins[fold.head]
        fold.timing = self._spin_timing(spin, code)
        fold.line = self._spin_line(spin)
        if fold.line is None:  # a checkpoint restored without the line
            raise RuntimeError("%s: the spin at %d reads no cached line"
                               % (self.name, fold.head))
        self.cache.watch(self, fold.line)
        self.sim.add_pause_hook(self, self._fold_pause)
        if deadline is not None:
            # The slice ends at the first boundary (a retirement) at or
            # after the deadline.  Wake at the step before it, so the CPU
            # itself schedules that boundary, as the unfolded interpreter
            # does.
            step = fold.steps_before(deadline)
            if fold.kind(step) == _READ:
                step += 1
            fold.timer = self.sim.schedule(
                fold.time(step - 1) - self.sim._now, self.fold_wake)

    def _fold_detach(self, fold):
        self.cache.watch(self, None)
        self.sim.remove_pause_hook(self)
        if fold.timer is not None:
            fold.timer.cancel()  # a no-op when it is what fired
            fold.timer = None

    def _fold_charge(self, fold, upto):
        """Charge steps ``fold.done`` .. ``upto - 1`` in closed form and
        leave the context as the unfolded run would have it."""
        if upto <= fold.done:
            return
        timing = fold.timing
        n = len(timing.offsets)
        iterations = upto // n - fold.done // n
        s0, s1 = fold.done % n, upto % n
        fold.done = upto
        retired = (iterations * timing.retired[n]
                   + timing.retired[s1] - timing.retired[s0])
        self.counts.retire_many(retired)
        self.cycles_retired += (iterations * timing.cycles[n]
                                + timing.cycles[s1] - timing.cycles[s0])
        reads = iterations + timing.reads[s1] - timing.reads[s0]
        if reads:
            cache = self.cache
            cache.hits.bump(reads)
            cache._lru_clock += reads
            fold.line.lru = cache._lru_clock
        k = timing.retired[s1]
        self.context.pc = fold.head + k
        self._load_snap(fold.snaps[k])

    def fold_settle(self):
        """Charge the folded steps before now (the caller's event comes
        first at its own instant).  A no-op unless a spin is parked."""
        fold = self._fold
        if fold is not None and fold.waking is None and fold.timing is not None:
            self._fold_charge(fold, fold.next_step(self.sim._now))

    def fold_wake(self):
        """Something may end the parked spin: charge the steps before now
        and resume the CPU at the first step that has not happened."""
        fold = self._fold
        if fold is None or fold.waking is not None or fold.process is None:
            return
        now = self.sim._now
        step = fold.next_step(now)
        self._fold_charge(fold, step)
        self._fold_detach(fold)
        fold.waking = fold.kind(step)
        self.fold_signal.fire_one(fold.waking, fold.time(step) - now)

    def _fold_pause(self):
        """``Simulator.run`` returned: every step up to now happened."""
        fold = self._fold
        self._fold_charge(fold, fold.steps_before(self.sim._now + 1))

    def _fold_release(self, fold):
        """The park yield returned or the generator was closed."""
        if fold.waking is None and fold.timing is not None:
            # Killed (node crash) while parked: keep what ran until now.
            self._fold_charge(fold, fold.next_step(self.sim._now))
            self._fold_detach(fold)
        self._fold = None

    def spin_state(self, process):
        """``"parked"`` while ``process`` sits in a folded spin (a
        boundary, for checkpoints and crashes), ``"finishing"`` while the
        read it woke in is mid-instruction, else None."""
        fold = self._fold
        if fold is None or fold.process is not process:
            return None
        if fold.waking is None:
            return "parked"
        return "finishing" if fold.waking == _FINISH else None

    def fold_due(self):
        """Time of the parked spin's next step that has not happened."""
        fold = self._fold
        return fold.time(fold.next_step(self.sim._now))

    def fold_rebase(self, due):
        """Shift a restored, parked spin so its next step falls at ``due``
        (a node restored later than its checkpoint)."""
        fold = self._fold
        fold.start += due - fold.time(fold.done)

    # -- checkpoint protocol (see repro.ckpt) ---------------------------------

    def ckpt_capture(self):
        self.fold_settle()
        state = super().ckpt_capture()
        fold = self._fold
        if fold is not None and fold.waking is None:
            state["fold"] = {
                "head": fold.head,
                "start": fold.start,
                "done": fold.done,
                "snaps": [[list(regs), zf, sf]
                          for regs, zf, sf in fold.snaps],
            }
        return state

    def ckpt_restore(self, state):
        super().ckpt_restore(state)
        self._jump_target = None
        self._pending_interrupts = []
        self._preempt = False
        fold = state.get("fold")
        self._fold = None if fold is None else _Fold(
            fold["head"], fold["start"], fold["done"],
            [(tuple(regs), zf, sf) for regs, zf, sf in fold["snaps"]])

    def run_to_halt(self, program, context=None):
        """Generator: convenience wrapper running one program to completion.

        Returns the finished context.
        """
        if context is None:
            context = Context()
        result = yield from self.run_slice(program, context, max_ns=None)
        assert result == "halt"
        return context
