"""Operands and instruction classes for the node CPU.

The ISA is a small, x86-flavoured two-operand instruction set: it has
memory operands (so ``cmp [flag], 0`` is one instruction, as on the i386
CPUs the paper's instruction counts refer to), a locked ``CMPXCHG`` exactly
as used by the deliberate-update initiation protocol (paper section 4.3),
and ``rep movs`` string copy (one instruction plus per-word costs, which is
how the paper excludes "per-byte copying costs" from primitive overhead).

Instruction ``execute`` methods are generators run by the CPU core; all
memory traffic goes through the MMU, cache and bus.  The hottest executes
inline the core's ``mem_read``/``mem_write`` helpers (an MMU translate
plus a cache access) to keep the per-event generator chain short; the
helpers remain the API for kernels, devices and the rarer instructions.
"""

from repro.memsys.cache import CACHE_MISS

WORD_MASK = 0xFFFFFFFF


class IsaError(Exception):
    """Raised for malformed operands or illegal instruction use."""


class Reg:
    """A general-purpose register operand.

    ``r0`` is the accumulator: ``CMPXCHG`` compares against it and loads it
    on failure, mirroring EAX on the i486/Pentium.  ``sp`` is the stack
    pointer used by push/pop/call/ret.

    ``index`` is the register's position in ``Context.reg_values``; it is
    precomputed here so the interpreter's register accesses are plain list
    indexing rather than dict lookups by name.
    """

    __slots__ = ("name", "index")
    NAMES = ("r0", "r1", "r2", "r3", "r4", "r5", "sp")
    INDEX = {name: i for i, name in enumerate(NAMES)}

    def __init__(self, name):
        if name not in self.INDEX:
            raise IsaError("unknown register %r" % (name,))
        self.name = name
        self.index = self.INDEX[name]

    def __repr__(self):
        return self.name

    def __eq__(self, other):
        return isinstance(other, Reg) and other.name == self.name

    def __hash__(self):
        return hash(self.name)


R0, R1, R2, R3, R4, R5, SP = (Reg(n) for n in Reg.NAMES)


class Imm:
    """An immediate operand."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value & WORD_MASK

    def __repr__(self):
        return "$%d" % self.value


class Mem:
    """A memory operand: ``[base + disp]`` or absolute ``[disp]``."""

    __slots__ = ("base", "disp")

    def __init__(self, base=None, disp=0):
        if base is not None and not isinstance(base, Reg):
            raise IsaError("memory base must be a register or None")
        self.base = base
        self.disp = disp

    def __repr__(self):
        if self.base is None:
            return "[%#x]" % self.disp
        return "[%s%+d]" % (self.base.name, self.disp)


def _as_operand(value):
    """Accept ints as immediates for assembler convenience."""
    if isinstance(value, int):
        return Imm(value)
    if isinstance(value, (Reg, Imm, Mem)):
        return value
    raise IsaError("cannot use %r as an operand" % (value,))


def _signed(value):
    return value - (1 << 32) if value & 0x80000000 else value


# -- operand access, decoded once at assembly time ---------------------------
#
# Instructions cache closures for their operands when they are constructed
# (i.e. when the program is assembled), so the per-execution work for
# register and immediate operands is a single call with no isinstance
# dispatch and -- crucially -- no generator trampoline.  Memory operands
# charge simulated cache/bus time; the hot executes below translate and
# call the cache directly (inlining ``cpu.mem_read``/``mem_write``) so the
# access costs one nested generator instead of two.


def _fast_reader(operand):
    """Zero-sim-time reader closure for a Reg/Imm operand; None for Mem."""
    if isinstance(operand, Imm):
        value = operand.value
        return lambda cpu: value
    if isinstance(operand, Reg):
        index = operand.index
        return lambda cpu: cpu.context.reg_values[index]
    return None


def _fast_writer(operand):
    """Zero-sim-time writer closure for a Reg operand; None for Mem."""
    if isinstance(operand, Reg):
        index = operand.index

        def write(cpu, value):
            cpu.context.reg_values[index] = value & WORD_MASK

        return write
    return None


def _addr_of(operand):
    """Effective-address closure for a Mem operand (decoded once)."""
    if operand.base is None:
        addr = operand.disp & WORD_MASK
        return lambda cpu: addr
    index = operand.base.index
    disp = operand.disp
    return lambda cpu: (cpu.context.reg_values[index] + disp) & WORD_MASK


_NO_YIELDS = ()  # sentinel iterable: ``yield from _NO_YIELDS`` is free

# ``Instruction.spin_role`` of an instruction that touches only registers
# and flags (the other answers are a Mem operand or None).
REG_ONLY = "reg"


class Instruction:
    """Base class.  ``cycles`` is the non-memory execution cost."""

    cycles = 1
    mnemonic = "?"
    counts = True  # region markers set this False

    def execute(self, cpu):
        raise NotImplementedError
        yield  # pragma: no cover

    def spin_role(self):
        """What this instruction may do inside a foldable spin loop body.

        :data:`REG_ONLY` when it reads and writes only registers and
        flags; the :class:`Mem` operand when it also reads that one
        memory word and writes nothing but registers and flags; None when
        it stores, branches, traps or counts regions, so no loop holding
        it folds (see :func:`repro.cpu.assembler.find_spin_loops`).
        """
        return None

    def _fmt_ops(self):
        return ""

    def __repr__(self):
        ops = self._fmt_ops()
        return self.mnemonic + ((" " + ops) if ops else "")


class _TwoOp(Instruction):
    """Shared plumbing for dst/src instructions.

    Operand access is decoded once at construction: ``_src_get``/``_dst_get``
    and ``_dst_set`` are closures for register/immediate operands (or None
    for memory), ``_src_addr``/``_dst_addr`` are effective-address closures
    for memory operands.  Subclasses whose operands turn out to be
    register-only swap in a plain-function ``execute`` so the interpreter
    never builds a generator for them.
    """

    def __init__(self, dst, src):
        self.dst = _as_operand(dst)
        self.src = _as_operand(src)
        if isinstance(self.dst, Imm):
            raise IsaError("%s: destination cannot be an immediate" % self.mnemonic)
        if isinstance(self.dst, Mem) and isinstance(self.src, Mem):
            raise IsaError("%s: memory-to-memory is not encodable" % self.mnemonic)
        self._src_get = _fast_reader(self.src)
        self._src_addr = None if self._src_get else _addr_of(self.src)
        self._dst_get = _fast_reader(self.dst)
        self._dst_set = _fast_writer(self.dst)
        self._dst_addr = None if self._dst_set else _addr_of(self.dst)
        if self._src_get is not None and self._dst_set is not None:
            self.execute = self._execute_reg

    def _fmt_ops(self):
        return "%r, %r" % (self.dst, self.src)

    def spin_role(self):
        if isinstance(self.dst, Mem):
            return None  # a store
        return self.src if isinstance(self.src, Mem) else REG_ONLY

    def _execute_reg(self, cpu):  # pragma: no cover -- overridden where used
        raise NotImplementedError


class Mov(_TwoOp):
    """``mov dst, src``: move a word."""

    mnemonic = "mov"

    def _execute_reg(self, cpu):
        self._dst_set(cpu, self._src_get(cpu))
        return _NO_YIELDS

    def execute(self, cpu):
        if self._src_get is not None:
            value = self._src_get(cpu)
        else:
            paddr, policy = cpu.mmu.translate(self._src_addr(cpu), "read")
            cache = cpu.cache
            value = cache.read_hit(paddr, policy)
            if value is CACHE_MISS:
                value = yield from cache.read(paddr, policy)
            else:
                yield cache.hit_timeout
        if self._dst_set is not None:
            self._dst_set(cpu, value)
        else:
            paddr, policy = cpu.mmu.translate(self._dst_addr(cpu), "write")
            yield from cpu.cache.write(paddr, value & WORD_MASK, policy)


class Lea(Instruction):
    """Load effective address: ``lea reg, [base+disp]``."""

    mnemonic = "lea"

    def __init__(self, dst, src):
        if not isinstance(dst, Reg) or not isinstance(src, Mem):
            raise IsaError("lea needs a register destination and memory source")
        self.dst = dst
        self.src = src
        self._src_addr = _addr_of(src)
        self._dst_index = dst.index

    def _fmt_ops(self):
        return "%r, %r" % (self.dst, self.src)

    def spin_role(self):
        return REG_ONLY

    def execute(self, cpu):
        cpu.context.reg_values[self._dst_index] = self._src_addr(cpu)
        return _NO_YIELDS


class _Alu(_TwoOp):
    """Arithmetic/logic with flag updates."""

    def _op(self, a, b):
        raise NotImplementedError

    def _execute_reg(self, cpu):
        result = self._op(self._dst_get(cpu), self._src_get(cpu)) & WORD_MASK
        cpu.set_flags(result)
        self._dst_set(cpu, result)
        return _NO_YIELDS

    def execute(self, cpu):
        if self._dst_get is not None:
            a = self._dst_get(cpu)
        else:
            paddr, policy = cpu.mmu.translate(self._dst_addr(cpu), "read")
            cache = cpu.cache
            a = cache.read_hit(paddr, policy)
            if a is CACHE_MISS:
                a = yield from cache.read(paddr, policy)
            else:
                yield cache.hit_timeout
        if self._src_get is not None:
            b = self._src_get(cpu)
        else:
            paddr, policy = cpu.mmu.translate(self._src_addr(cpu), "read")
            cache = cpu.cache
            b = cache.read_hit(paddr, policy)
            if b is CACHE_MISS:
                b = yield from cache.read(paddr, policy)
            else:
                yield cache.hit_timeout
        result = self._op(a, b) & WORD_MASK
        cpu.set_flags(result)
        if self._dst_set is not None:
            self._dst_set(cpu, result)
        else:
            paddr, policy = cpu.mmu.translate(self._dst_addr(cpu), "write")
            yield from cpu.cache.write(paddr, result, policy)


class Add(_Alu):
    """``add dst, src``: dst += src, sets flags."""

    mnemonic = "add"

    def _op(self, a, b):
        return a + b


class Sub(_Alu):
    """``sub dst, src``: dst -= src, sets flags."""

    mnemonic = "sub"

    def _op(self, a, b):
        return a - b


class And(_Alu):
    """``and dst, src``: bitwise AND, sets flags."""

    mnemonic = "and"

    def _op(self, a, b):
        return a & b


class Or(_Alu):
    """``or dst, src``: bitwise OR, sets flags."""

    mnemonic = "or"

    def _op(self, a, b):
        return a | b


class Xor(_Alu):
    """``xor dst, src``: bitwise XOR, sets flags (xor r, r zeroes)."""

    mnemonic = "xor"

    def _op(self, a, b):
        return a ^ b


class Shl(_Alu):
    """``shl dst, n``: left shift (count masked to 31), sets flags."""

    mnemonic = "shl"

    def _op(self, a, b):
        return a << (b & 31)


class Shr(_Alu):
    """``shr dst, n``: logical right shift, sets flags (ZF on zero)."""

    mnemonic = "shr"

    def _op(self, a, b):
        return a >> (b & 31)


class _IncDec(Instruction):
    delta = 0

    def __init__(self, dst):
        self.dst = _as_operand(dst)
        if isinstance(self.dst, Imm):
            raise IsaError("%s needs a writable destination" % self.mnemonic)
        self._dst_get = _fast_reader(self.dst)
        self._dst_set = _fast_writer(self.dst)
        self._dst_addr = None if self._dst_set else _addr_of(self.dst)
        if self._dst_set is not None:
            self.execute = self._execute_reg

    def _fmt_ops(self):
        return repr(self.dst)

    def spin_role(self):
        return REG_ONLY if self._dst_set is not None else None

    def _execute_reg(self, cpu):
        result = (self._dst_get(cpu) + self.delta) & WORD_MASK
        cpu.set_flags(result)
        self._dst_set(cpu, result)
        return _NO_YIELDS

    def execute(self, cpu):
        addr = self._dst_addr(cpu)
        paddr, policy = cpu.mmu.translate(addr, "read")
        cache = cpu.cache
        value = cache.read_hit(paddr, policy)
        if value is CACHE_MISS:
            value = yield from cache.read(paddr, policy)
        else:
            yield cache.hit_timeout
        result = (value + self.delta) & WORD_MASK
        cpu.set_flags(result)
        paddr, policy = cpu.mmu.translate(addr, "write")
        yield from cpu.cache.write(paddr, result, policy)


class Inc(_IncDec):
    """``inc dst``: dst += 1, sets flags."""

    mnemonic = "inc"
    delta = 1


class Dec(_IncDec):
    """``dec dst``: dst -= 1, sets flags."""

    mnemonic = "dec"
    delta = -1


def _flags_only_role(instr):
    """``spin_role`` of cmp/test: they write only flags, so a memory
    operand on either side is a read."""
    for operand in (instr.dst, instr.src):
        if isinstance(operand, Mem):
            return operand
    return REG_ONLY


class Cmp(_TwoOp):
    """Compare: sets flags from dst - src, writes nothing."""

    mnemonic = "cmp"

    def __init__(self, dst, src):
        # Flags-only, so the fast path needs readable operands, not a
        # writable destination.
        super().__init__(dst, src)
        if self._dst_get is not None and self._src_get is not None:
            self.execute = self._execute_reg

    spin_role = _flags_only_role

    def _execute_reg(self, cpu):
        a = self._dst_get(cpu)
        b = self._src_get(cpu)
        cpu.set_flags((a - b) & WORD_MASK, signed_pair=(_signed(a), _signed(b)))
        return _NO_YIELDS

    def execute(self, cpu):
        if self._dst_get is not None:
            a = self._dst_get(cpu)
        else:
            paddr, policy = cpu.mmu.translate(self._dst_addr(cpu), "read")
            cache = cpu.cache
            a = cache.read_hit(paddr, policy)
            if a is CACHE_MISS:
                a = yield from cache.read(paddr, policy)
            else:
                yield cache.hit_timeout
        if self._src_get is not None:
            b = self._src_get(cpu)
        else:
            paddr, policy = cpu.mmu.translate(self._src_addr(cpu), "read")
            cache = cpu.cache
            b = cache.read_hit(paddr, policy)
            if b is CACHE_MISS:
                b = yield from cache.read(paddr, policy)
            else:
                yield cache.hit_timeout
        result = (a - b) & WORD_MASK
        cpu.set_flags(result, signed_pair=(_signed(a), _signed(b)))


class Test(_TwoOp):
    """Bitwise-AND flags only."""

    mnemonic = "test"

    def __init__(self, dst, src):
        super().__init__(dst, src)
        if self._dst_get is not None and self._src_get is not None:
            self.execute = self._execute_reg

    spin_role = _flags_only_role

    def _execute_reg(self, cpu):
        cpu.set_flags((self._dst_get(cpu) & self._src_get(cpu)) & WORD_MASK)
        return _NO_YIELDS

    def execute(self, cpu):
        if self._dst_get is not None:
            a = self._dst_get(cpu)
        else:
            paddr, policy = cpu.mmu.translate(self._dst_addr(cpu), "read")
            cache = cpu.cache
            a = cache.read_hit(paddr, policy)
            if a is CACHE_MISS:
                a = yield from cache.read(paddr, policy)
            else:
                yield cache.hit_timeout
        if self._src_get is not None:
            b = self._src_get(cpu)
        else:
            paddr, policy = cpu.mmu.translate(self._src_addr(cpu), "read")
            cache = cpu.cache
            b = cache.read_hit(paddr, policy)
            if b is CACHE_MISS:
                b = yield from cache.read(paddr, policy)
            else:
                yield cache.hit_timeout
        cpu.set_flags((a & b) & WORD_MASK)


class Jmp(Instruction):
    """``jmp label``: unconditional branch (base of the Jcc family)."""

    mnemonic = "jmp"
    condition = None  # unconditional

    def __init__(self, target):
        self.target = target
        self.target_index = None  # resolved by the assembler

    def _fmt_ops(self):
        return str(self.target)

    def taken(self, cpu):
        return True

    def execute(self, cpu):
        if self.taken(cpu):
            cpu.jump_to(self.target_index)
        return _NO_YIELDS


class Jz(Jmp):
    """``jz/je label``: branch if ZF."""

    mnemonic = "jz"

    def taken(self, cpu):
        return cpu.flags["zf"]


class Jnz(Jmp):
    """``jnz/jne label``: branch if not ZF."""

    mnemonic = "jnz"

    def taken(self, cpu):
        return not cpu.flags["zf"]


class Jl(Jmp):
    """``jl label``: branch if signed less (SF after cmp)."""

    mnemonic = "jl"

    def taken(self, cpu):
        return cpu.flags["sf"]


class Jge(Jmp):
    """``jge label``: branch if signed greater-or-equal."""

    mnemonic = "jge"

    def taken(self, cpu):
        return not cpu.flags["sf"]


class Jle(Jmp):
    """``jle label``: branch if signed less-or-equal."""

    mnemonic = "jle"

    def taken(self, cpu):
        return cpu.flags["sf"] or cpu.flags["zf"]


class Jg(Jmp):
    """``jg label``: branch if signed greater."""

    mnemonic = "jg"

    def taken(self, cpu):
        return not cpu.flags["sf"] and not cpu.flags["zf"]


class Cmpxchg(Instruction):
    """Locked compare-and-exchange against the accumulator (r0).

    ``cmpxchg [mem], reg``: one atomic bus tenure performs a read cycle
    and, if the value equals r0, a write cycle of ``reg`` (ZF set).  On
    mismatch r0 receives the read value (ZF clear).  This is precisely the
    instruction the deliberate-update initiation protocol relies on (paper
    section 4.3).
    """

    mnemonic = "lock cmpxchg"
    cycles = 3  # locked RMW is slower than a plain ALU op

    def __init__(self, dst, src):
        if not isinstance(dst, Mem) or not isinstance(src, Reg):
            raise IsaError("cmpxchg needs a memory destination and register source")
        self.dst = dst
        self.src = src

    def _fmt_ops(self):
        return "%r, %r" % (self.dst, self.src)

    def execute(self, cpu):
        addr = cpu.effective_addr(self.dst)
        expected = cpu.get_reg(R0)
        new_value = cpu.get_reg(self.src)
        old_value, swapped = yield from cpu.mem_cmpxchg(addr, expected, new_value)
        if swapped:
            cpu.flags["zf"] = True
        else:
            cpu.flags["zf"] = False
            cpu.set_reg(R0, old_value)
        cpu.flags["sf"] = False


class Push(Instruction):
    """``push src``: decrement sp and store a register or immediate."""

    mnemonic = "push"

    def __init__(self, src):
        self.src = _as_operand(src)
        if isinstance(self.src, Mem):
            raise IsaError("push from memory not supported in this subset")

    def _fmt_ops(self):
        return repr(self.src)

    def execute(self, cpu):
        value = (
            self.src.value if isinstance(self.src, Imm) else cpu.get_reg(self.src)
        )
        sp = (cpu.get_reg(SP) - 4) & WORD_MASK
        cpu.set_reg(SP, sp)
        yield from cpu.mem_write(sp, value)


class Pop(Instruction):
    """``pop reg``: load from [sp] and increment sp."""

    mnemonic = "pop"

    def __init__(self, dst):
        if not isinstance(dst, Reg):
            raise IsaError("pop needs a register destination")
        self.dst = dst

    def _fmt_ops(self):
        return repr(self.dst)

    def execute(self, cpu):
        sp = cpu.get_reg(SP)
        value = yield from cpu.mem_read(sp)
        cpu.set_reg(SP, (sp + 4) & WORD_MASK)
        cpu.set_reg(self.dst, value)


class Call(Instruction):
    """``call label``: push the return index and branch."""

    mnemonic = "call"
    cycles = 2

    def __init__(self, target):
        self.target = target
        self.target_index = None

    def _fmt_ops(self):
        return str(self.target)

    def execute(self, cpu):
        sp = (cpu.get_reg(SP) - 4) & WORD_MASK
        cpu.set_reg(SP, sp)
        yield from cpu.mem_write(sp, cpu.next_pc())
        cpu.jump_to(self.target_index)


class Ret(Instruction):
    """``ret``: pop the return index and branch to it."""

    mnemonic = "ret"
    cycles = 2

    def execute(self, cpu):
        sp = cpu.get_reg(SP)
        return_index = yield from cpu.mem_read(sp)
        cpu.set_reg(SP, (sp + 4) & WORD_MASK)
        cpu.jump_to(return_index)


class RepMovs(Instruction):
    """``rep movsd``: copy r3 words from [r1] to [r2].

    Counts as ONE retired instruction; the per-word memory traffic is fully
    simulated (and tracked in ``cpu.counts.copy_words``), matching the
    paper's accounting where block copies contribute "per-byte copying
    costs" but only constant instruction overhead.
    """

    mnemonic = "rep movs"

    def execute(self, cpu):
        count = cpu.get_reg(R3)
        src = cpu.get_reg(R1)
        dst = cpu.get_reg(R2)
        translate = cpu.mmu.translate
        cache = cpu.cache
        for _ in range(count):
            paddr, policy = translate(src, "read")
            value = yield from cache.read(paddr, policy)
            paddr, policy = translate(dst, "write")
            yield from cache.write(paddr, value, policy)
            src = (src + 4) & WORD_MASK
            dst = (dst + 4) & WORD_MASK
        cpu.set_reg(R1, src)
        cpu.set_reg(R2, dst)
        cpu.set_reg(R3, 0)
        cpu.counts.copy_words += count


class Nop(Instruction):
    """``nop``: retire one instruction doing nothing."""

    mnemonic = "nop"

    def spin_role(self):
        return REG_ONLY

    def execute(self, cpu):
        return _NO_YIELDS


class Halt(Instruction):
    """``halt``: stop the program (context.halted)."""

    mnemonic = "halt"

    def execute(self, cpu):
        cpu.halt()
        return _NO_YIELDS


class Syscall(Instruction):
    """Trap into the kernel.  The syscall number is an immediate; arguments
    follow the kernel's register convention (r1..r5)."""

    mnemonic = "syscall"
    cycles = 10  # trap overhead on top of the kernel's own work

    def __init__(self, number):
        self.number = number

    def _fmt_ops(self):
        return str(self.number)

    def execute(self, cpu):
        yield from cpu.trap_syscall(self.number)


class RegionMarker(Instruction):
    """Zero-cost bracket for instruction-count accounting regions."""

    counts = False
    cycles = 0

    def __init__(self, name, begin):
        self.name = name
        self.begin = begin

    @property
    def mnemonic(self):
        return ".region_%s" % ("begin" if self.begin else "end")

    def _fmt_ops(self):
        return self.name

    def execute(self, cpu):
        if self.begin:
            cpu.counts.open_region(self.name)
        else:
            cpu.counts.close_region(self.name)
        return _NO_YIELDS
