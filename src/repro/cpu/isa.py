"""Operands and instruction classes for the node CPU.

The ISA is a small, x86-flavoured two-operand instruction set: it has
memory operands (so ``cmp [flag], 0`` is one instruction, as on the i386
CPUs the paper's instruction counts refer to), a locked ``CMPXCHG`` exactly
as used by the deliberate-update initiation protocol (paper section 4.3),
and ``rep movs`` string copy (one instruction plus per-word costs, which is
how the paper excludes "per-byte copying costs" from primitive overhead).

Instruction ``execute`` methods are run by the CPU core; all memory
traffic goes through the MMU, cache and bus.  Operand reads and stores
do the core's ``mem_read``/``mem_write`` work (an MMU translate plus a
cache access) themselves, with the cache-hit read as a plain call; the
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


R0, R1, R2, R3, R4, R5, SP = _REGS = tuple(Reg(n) for n in Reg.NAMES)


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


def _signed(value):
    return value - (1 << 32) if value & 0x80000000 else value


# -- operands as plain fields, decoded once at assembly time -----------------
#
# An instruction holds no operand objects.  Building it decodes each
# operand into one field: a register index, an immediate word, or a
# memory displacement, with the memory operand's base register index in
# ``_base`` (None for an absolute address, whose displacement is stored
# masked to a word).  The operand kinds -- the instruction's *form*, such
# as "MI" for ``mov [m], imm`` -- pick its class: each mnemonic has one
# slotted class per form it accepts, whose ``execute`` reads the fields
# with no dispatch on kind.  Register-only forms execute as plain calls
# that return _NO_YIELDS, so the interpreter builds no generator for
# them.  Memory reads go through ``_load``, whose cache hit costs no
# nested cache generator; a ``mov`` store returns the cache's write
# generator itself.  ``dst`` and ``src`` rebuild operand objects for
# listings, spin_role and the checkpoint codec.  One ``mov [abs], imm``
# is one GC-tracked object (tests/test_host_footprint.py).


def _decode(operand):
    """``(kind, value, base)``: how an instruction stores ``operand``."""
    if isinstance(operand, Reg):
        return "R", operand.index, None
    if isinstance(operand, Mem):
        if operand.base is None:
            return "M", operand.disp & WORD_MASK, None
        return "M", operand.disp, operand.base.index
    if isinstance(operand, int):
        return "I", operand & WORD_MASK, None
    if isinstance(operand, Imm):
        return "I", operand.value, None
    raise IsaError("cannot use %r as an operand" % (operand,))


def _rebuild(kind, value, base):
    """The operand that :func:`_decode` stored as ``kind``/``value``/``base``."""
    if kind == "R":
        return _REGS[value]
    if kind == "I":
        return Imm(value)
    return Mem(None if base is None else _REGS[base], value)


def _load(cpu, addr):
    """Generator: the word at virtual ``addr`` (``cpu.mem_read`` with the
    cache-hit path inline)."""
    paddr, policy = cpu.mmu.translate(addr, "read")
    cache = cpu.cache
    value = cache.read_hit(paddr, policy)
    if value is CACHE_MISS:
        value = yield from cache.read(paddr, policy)
    else:
        yield cache.hit_timeout
    return value


_NO_YIELDS = ()  # sentinel iterable: ``yield from _NO_YIELDS`` is free

# ``Instruction.spin_role`` of an instruction that touches only registers
# and flags (the other answers are a Mem operand or None).
REG_ONLY = "reg"


class Instruction:
    """Base class.  ``cycles`` is the non-memory execution cost."""

    __slots__ = ()
    cycles = 1
    mnemonic = "?"
    counts = True  # region markers set this False

    def execute(self, cpu):
        """Run the instruction: a generator for the core to ``yield
        from``, or :data:`_NO_YIELDS` when it takes no simulated time."""
        raise NotImplementedError

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


class _Decoded(Instruction):
    """An instruction whose operands are decoded into fields.

    ``OPERANDS`` names the fields in constructor order; ``FORMS`` lists
    the operand kinds the mnemonic accepts, one string per form ("R"
    register, "I" immediate, "M" memory).  Each mnemonic class gets one
    subclass per form (``MovMI`` for ``Mov``'s "MI"), whose ``execute``
    is the mnemonic's ``_execute_<form>``; constructing the mnemonic
    returns an instance of the subclass for its operands' form.
    """

    __slots__ = ("_dst", "_src", "_base")
    OPERANDS = ("_dst", "_src")
    FORMS = ()
    form = None

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "mnemonic" in vars(cls):
            cls._by_form = {
                form: type(cls.__name__ + form, (cls,), {
                    "__slots__": (),
                    "form": form,
                    "execute": getattr(cls, "_execute_" + form),
                })
                for form in cls.FORMS
            }

    def __new__(cls, *operands):
        decoded = [_decode(operand) for operand in operands]
        form = "".join(kind for kind, _, _ in decoded)
        if form not in cls._by_form:
            raise IsaError("%s %s: not an encodable operand form" % (
                cls.mnemonic, ", ".join(map(repr, operands))))
        self = object.__new__(cls._by_form[form])
        self._base = None
        for name, (kind, value, base) in zip(cls.OPERANDS, decoded):
            setattr(self, name, value)
            if kind == "M":
                self._base = base
        return self

    def _operand(self, name):
        if name not in self.OPERANDS:
            raise AttributeError(name[1:])
        kind = self.form[self.OPERANDS.index(name)]
        return _rebuild(kind, getattr(self, name), self._base)

    @property
    def dst(self):
        return self._operand("_dst")

    @property
    def src(self):
        return self._operand("_src")

    def _addr(self, cpu, disp):
        """Effective address of the memory operand with displacement
        ``disp``."""
        base = self._base
        if base is None:
            return disp
        return (cpu.context.reg_values[base] + disp) & WORD_MASK

    def _fmt_ops(self):
        return ", ".join(repr(self._operand(name)) for name in self.OPERANDS)


def _dst_role(instr):
    """``spin_role`` of an instruction that writes its destination."""
    if instr.form[0] == "M":
        return None  # a store
    return instr.src if instr.form[1] == "M" else REG_ONLY


def _flags_only_role(instr):
    """``spin_role`` of cmp/test: they write only flags, so a memory
    operand on either side is a read."""
    if instr.form[0] == "M":
        return instr.dst
    return instr.src if instr.form[1] == "M" else REG_ONLY


class Mov(_Decoded):
    """``mov dst, src``: move a word."""

    __slots__ = ()
    mnemonic = "mov"
    FORMS = ("RR", "RI", "RM", "MR", "MI")
    spin_role = _dst_role

    def _execute_RR(self, cpu):
        regs = cpu.context.reg_values
        regs[self._dst] = regs[self._src] & WORD_MASK
        return _NO_YIELDS

    def _execute_RI(self, cpu):
        cpu.context.reg_values[self._dst] = self._src
        return _NO_YIELDS

    def _execute_RM(self, cpu):
        value = yield from _load(cpu, self._addr(cpu, self._src))
        cpu.context.reg_values[self._dst] = value & WORD_MASK

    def _execute_MR(self, cpu):
        value = cpu.context.reg_values[self._src] & WORD_MASK
        paddr, policy = cpu.mmu.translate(self._addr(cpu, self._dst), "write")
        return cpu.cache.write(paddr, value, policy)

    def _execute_MI(self, cpu):
        paddr, policy = cpu.mmu.translate(self._addr(cpu, self._dst), "write")
        return cpu.cache.write(paddr, self._src, policy)


class Lea(_Decoded):
    """Load effective address: ``lea reg, [base+disp]``."""

    __slots__ = ()
    mnemonic = "lea"
    FORMS = ("RM",)

    def spin_role(self):
        return REG_ONLY

    def _execute_RM(self, cpu):
        cpu.context.reg_values[self._dst] = self._addr(cpu, self._src)
        return _NO_YIELDS


class _Alu(_Decoded):
    """Arithmetic/logic with flag updates."""

    __slots__ = ()
    FORMS = ("RR", "RI", "RM", "MR", "MI")
    spin_role = _dst_role

    def _op(self, a, b):
        raise NotImplementedError

    def _execute_RR(self, cpu):
        regs = cpu.context.reg_values
        result = self._op(regs[self._dst], regs[self._src]) & WORD_MASK
        cpu.set_flags(result)
        regs[self._dst] = result
        return _NO_YIELDS

    def _execute_RI(self, cpu):
        regs = cpu.context.reg_values
        result = self._op(regs[self._dst], self._src) & WORD_MASK
        cpu.set_flags(result)
        regs[self._dst] = result
        return _NO_YIELDS

    def _execute_RM(self, cpu):
        a = cpu.context.reg_values[self._dst]
        b = yield from _load(cpu, self._addr(cpu, self._src))
        result = self._op(a, b) & WORD_MASK
        cpu.set_flags(result)
        cpu.context.reg_values[self._dst] = result

    def _execute_MR(self, cpu):
        addr = self._addr(cpu, self._dst)
        a = yield from _load(cpu, addr)
        result = self._op(a, cpu.context.reg_values[self._src]) & WORD_MASK
        cpu.set_flags(result)
        paddr, policy = cpu.mmu.translate(addr, "write")
        yield from cpu.cache.write(paddr, result, policy)

    def _execute_MI(self, cpu):
        addr = self._addr(cpu, self._dst)
        a = yield from _load(cpu, addr)
        result = self._op(a, self._src) & WORD_MASK
        cpu.set_flags(result)
        paddr, policy = cpu.mmu.translate(addr, "write")
        yield from cpu.cache.write(paddr, result, policy)


class Add(_Alu):
    """``add dst, src``: dst += src, sets flags."""

    __slots__ = ()
    mnemonic = "add"

    def _op(self, a, b):
        return a + b


class Sub(_Alu):
    """``sub dst, src``: dst -= src, sets flags."""

    __slots__ = ()
    mnemonic = "sub"

    def _op(self, a, b):
        return a - b


class And(_Alu):
    """``and dst, src``: bitwise AND, sets flags."""

    __slots__ = ()
    mnemonic = "and"

    def _op(self, a, b):
        return a & b


class Or(_Alu):
    """``or dst, src``: bitwise OR, sets flags."""

    __slots__ = ()
    mnemonic = "or"

    def _op(self, a, b):
        return a | b


class Xor(_Alu):
    """``xor dst, src``: bitwise XOR, sets flags (xor r, r zeroes)."""

    __slots__ = ()
    mnemonic = "xor"

    def _op(self, a, b):
        return a ^ b


class Shl(_Alu):
    """``shl dst, n``: left shift (count masked to 31), sets flags."""

    __slots__ = ()
    mnemonic = "shl"

    def _op(self, a, b):
        return a << (b & 31)


class Shr(_Alu):
    """``shr dst, n``: logical right shift, sets flags (ZF on zero)."""

    __slots__ = ()
    mnemonic = "shr"

    def _op(self, a, b):
        return a >> (b & 31)


class _IncDec(_Decoded):
    __slots__ = ()
    OPERANDS = ("_dst",)
    FORMS = ("R", "M")
    delta = 0

    def spin_role(self):
        return REG_ONLY if self.form == "R" else None

    def _execute_R(self, cpu):
        regs = cpu.context.reg_values
        result = (regs[self._dst] + self.delta) & WORD_MASK
        cpu.set_flags(result)
        regs[self._dst] = result
        return _NO_YIELDS

    def _execute_M(self, cpu):
        addr = self._addr(cpu, self._dst)
        value = yield from _load(cpu, addr)
        result = (value + self.delta) & WORD_MASK
        cpu.set_flags(result)
        paddr, policy = cpu.mmu.translate(addr, "write")
        yield from cpu.cache.write(paddr, result, policy)


class Inc(_IncDec):
    """``inc dst``: dst += 1, sets flags."""

    __slots__ = ()
    mnemonic = "inc"
    delta = 1


class Dec(_IncDec):
    """``dec dst``: dst -= 1, sets flags."""

    __slots__ = ()
    mnemonic = "dec"
    delta = -1


class _Compare(_Decoded):
    """Sets flags from both operands and writes nothing."""

    __slots__ = ()
    FORMS = ("RR", "RI", "RM", "MR", "MI")
    spin_role = _flags_only_role

    def _flags(self, cpu, a, b):
        raise NotImplementedError

    def _execute_RR(self, cpu):
        regs = cpu.context.reg_values
        self._flags(cpu, regs[self._dst], regs[self._src])
        return _NO_YIELDS

    def _execute_RI(self, cpu):
        self._flags(cpu, cpu.context.reg_values[self._dst], self._src)
        return _NO_YIELDS

    def _execute_RM(self, cpu):
        a = cpu.context.reg_values[self._dst]
        b = yield from _load(cpu, self._addr(cpu, self._src))
        self._flags(cpu, a, b)

    def _execute_MR(self, cpu):
        a = yield from _load(cpu, self._addr(cpu, self._dst))
        self._flags(cpu, a, cpu.context.reg_values[self._src])

    def _execute_MI(self, cpu):
        a = yield from _load(cpu, self._addr(cpu, self._dst))
        self._flags(cpu, a, self._src)


class Cmp(_Compare):
    """Compare: sets flags from dst - src, writes nothing."""

    __slots__ = ()
    mnemonic = "cmp"

    def _flags(self, cpu, a, b):
        cpu.set_flags((a - b) & WORD_MASK, signed_pair=(_signed(a), _signed(b)))


class Test(_Compare):
    """Bitwise-AND flags only."""

    __slots__ = ()
    mnemonic = "test"

    def _flags(self, cpu, a, b):
        cpu.set_flags((a & b) & WORD_MASK)


class Jmp(Instruction):
    """``jmp label``: unconditional branch (base of the Jcc family)."""

    __slots__ = ("target", "target_index")
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

    __slots__ = ()
    mnemonic = "jz"

    def taken(self, cpu):
        return cpu.flags["zf"]


class Jnz(Jmp):
    """``jnz/jne label``: branch if not ZF."""

    __slots__ = ()
    mnemonic = "jnz"

    def taken(self, cpu):
        return not cpu.flags["zf"]


class Jl(Jmp):
    """``jl label``: branch if signed less (SF after cmp)."""

    __slots__ = ()
    mnemonic = "jl"

    def taken(self, cpu):
        return cpu.flags["sf"]


class Jge(Jmp):
    """``jge label``: branch if signed greater-or-equal."""

    __slots__ = ()
    mnemonic = "jge"

    def taken(self, cpu):
        return not cpu.flags["sf"]


class Jle(Jmp):
    """``jle label``: branch if signed less-or-equal."""

    __slots__ = ()
    mnemonic = "jle"

    def taken(self, cpu):
        return cpu.flags["sf"] or cpu.flags["zf"]


class Jg(Jmp):
    """``jg label``: branch if signed greater."""

    __slots__ = ()
    mnemonic = "jg"

    def taken(self, cpu):
        return not cpu.flags["sf"] and not cpu.flags["zf"]


class Cmpxchg(_Decoded):
    """Locked compare-and-exchange against the accumulator (r0).

    ``cmpxchg [mem], reg``: one atomic bus tenure performs a read cycle
    and, if the value equals r0, a write cycle of ``reg`` (ZF set).  On
    mismatch r0 receives the read value (ZF clear).  This is precisely the
    instruction the deliberate-update initiation protocol relies on (paper
    section 4.3).
    """

    __slots__ = ()
    mnemonic = "lock cmpxchg"
    cycles = 3  # locked RMW is slower than a plain ALU op
    FORMS = ("MR",)

    def _execute_MR(self, cpu):
        addr = self._addr(cpu, self._dst)
        expected = cpu.get_reg(R0)
        new_value = cpu.context.reg_values[self._src]
        old_value, swapped = yield from cpu.mem_cmpxchg(addr, expected, new_value)
        if swapped:
            cpu.flags["zf"] = True
        else:
            cpu.flags["zf"] = False
            cpu.set_reg(R0, old_value)
        cpu.flags["sf"] = False


class Push(_Decoded):
    """``push src``: store a register or immediate below sp, then
    decrement sp."""

    __slots__ = ()
    mnemonic = "push"
    OPERANDS = ("_src",)
    FORMS = ("R", "I")

    def _execute_R(self, cpu):
        return self._push(cpu, cpu.context.reg_values[self._src])

    def _execute_I(self, cpu):
        return self._push(cpu, self._src)

    def _push(self, cpu, value):
        # sp moves only once the store is translated and written: a
        # page fault restarts the instruction with sp untouched.
        sp = (cpu.get_reg(SP) - 4) & WORD_MASK
        yield from cpu.mem_write(sp, value)
        cpu.set_reg(SP, sp)


class Pop(_Decoded):
    """``pop reg``: load from [sp] and increment sp."""

    __slots__ = ()
    mnemonic = "pop"
    OPERANDS = ("_dst",)
    FORMS = ("R",)

    def _execute_R(self, cpu):
        sp = cpu.get_reg(SP)
        value = yield from cpu.mem_read(sp)
        cpu.set_reg(SP, (sp + 4) & WORD_MASK)
        cpu.context.reg_values[self._dst] = value & WORD_MASK


class Call(Instruction):
    """``call label``: push the return index and branch."""

    __slots__ = ("target", "target_index")
    mnemonic = "call"
    cycles = 2

    def __init__(self, target):
        self.target = target
        self.target_index = None

    def _fmt_ops(self):
        return str(self.target)

    def execute(self, cpu):
        # As in Push: sp moves after the store, so a fault restarts cleanly.
        sp = (cpu.get_reg(SP) - 4) & WORD_MASK
        yield from cpu.mem_write(sp, cpu.next_pc())
        cpu.set_reg(SP, sp)
        cpu.jump_to(self.target_index)


class Ret(Instruction):
    """``ret``: pop the return index and branch to it."""

    __slots__ = ()
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

    __slots__ = ()
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

    __slots__ = ()
    mnemonic = "nop"

    def spin_role(self):
        return REG_ONLY

    def execute(self, cpu):
        return _NO_YIELDS


class Halt(Instruction):
    """``halt``: stop the program (context.halted)."""

    __slots__ = ()
    mnemonic = "halt"

    def execute(self, cpu):
        cpu.halt()
        return _NO_YIELDS


class Syscall(Instruction):
    """Trap into the kernel.  The syscall number is an immediate; arguments
    follow the kernel's register convention (r1..r5)."""

    __slots__ = ("number",)
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

    __slots__ = ("name", "begin")
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
