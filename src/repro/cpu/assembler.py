"""A small assembler for building CPU programs.

Example::

    asm = Asm("sender")
    asm.label("spin")
    asm.cmp(Mem(disp=flag_addr), 0)
    asm.jnz("spin")
    asm.mov(Mem(disp=flag_addr), nbytes)
    asm.halt()
    program = asm.build()

Labels are resolved to instruction indices at :meth:`Asm.build` time; the
result is an immutable :class:`Program`.  ``build`` also marks every
read-only spin loop (:func:`find_spin_loops`), which the CPU interpreter
may fold into closed form (see :mod:`repro.cpu.core`); the loop above is
one.
"""

from repro.cpu import isa


class AssemblyError(Exception):
    """Raised for unresolved labels or malformed programs."""


class SpinLoop:
    """A backward conditional branch over a read-only loop body.

    The body ``code[head:branch]`` holds register-only instructions plus
    exactly one that reads a memory word (``operand``, at ``head +
    read``); the branch at ``branch`` jumps back to ``head``.  Once an
    iteration leaves registers and flags unchanged, every later iteration
    repeats it until that word changes -- the property the interpreter's
    spin folding relies on.
    """

    __slots__ = ("head", "branch", "read", "operand")

    def __init__(self, head, branch, read, operand):
        self.head = head
        self.branch = branch
        self.read = read
        self.operand = operand

    @property
    def length(self):
        """Instructions per iteration, the branch included."""
        return self.branch - self.head + 1

    def __repr__(self):
        return "SpinLoop(%d..%d, read %r)" % (
            self.head, self.branch, self.operand)


def find_spin_loops(code):
    """``{head index: SpinLoop}`` for every foldable loop in ``code``.

    ``code`` must have its branch targets resolved.  A loop qualifies when
    its closing branch is conditional and backward, every body
    instruction costs at least one cycle, and the body's
    :meth:`~repro.cpu.isa.Instruction.spin_role` answers are all
    register-only except exactly one memory read.
    """
    loops = {}
    for index, instr in enumerate(code):
        if type(instr) is isa.Jmp or not isinstance(instr, isa.Jmp):
            continue
        head = instr.target_index
        if head is None or head > index or not instr.cycles:
            continue
        read = operand = None
        for offset, body in enumerate(code[head:index]):
            role = body.spin_role()
            if role is None or not body.cycles:
                break
            if role is not isa.REG_ONLY:
                if operand is not None:
                    break  # a second read
                read, operand = offset, role
        else:
            if operand is not None:
                loops.setdefault(head, SpinLoop(head, index, read, operand))
    return loops


class Program:
    """An assembled, label-resolved instruction sequence.

    ``spins`` maps a loop head's index to its :class:`SpinLoop`; a Program
    built without it runs every iteration one instruction at a time.
    """

    def __init__(self, name, code, labels, spins=None):
        self.name = name
        self.code = tuple(code)
        self.labels = dict(labels)
        self.spins = dict(spins) if spins else {}

    def __len__(self):
        return len(self.code)

    def index_of(self, label):
        try:
            return self.labels[label]
        except KeyError:
            raise AssemblyError("no label %r in program %r" % (label, self.name))

    def listing(self):
        """Human-readable disassembly with labels, for debugging.

        The closing branch of each foldable spin loop carries a
        ``; folds: read-only spin on [...]`` comment.
        """
        by_index = {}
        for label, index in self.labels.items():
            by_index.setdefault(index, []).append(label)
        folds = {spin.branch: spin for spin in self.spins.values()}
        lines = []
        for i, instr in enumerate(self.code):
            for label in by_index.get(i, []):
                lines.append("%s:" % label)
            line = "    %3d  %r" % (i, instr)
            if i in folds:
                line += "  ; folds: read-only spin on %r" % (folds[i].operand,)
            lines.append(line)
        return "\n".join(lines)


class Asm:
    """Builder that appends instructions and resolves labels."""

    def __init__(self, name="program"):
        self.name = name
        self._code = []
        self._labels = {}
        self._built = False

    # -- labels --------------------------------------------------------------

    def label(self, name):
        """Bind ``name`` to the next emitted instruction."""
        if name in self._labels:
            raise AssemblyError("label %r bound twice" % name)
        self._labels[name] = len(self._code)
        return self

    def _emit(self, instr):
        if self._built:
            raise AssemblyError("cannot emit after build()")
        self._code.append(instr)
        return self

    # -- data movement ----------------------------------------------------------

    def mov(self, dst, src):
        return self._emit(isa.Mov(dst, src))

    def lea(self, dst, src):
        return self._emit(isa.Lea(dst, src))

    def push(self, src):
        return self._emit(isa.Push(src))

    def pop(self, dst):
        return self._emit(isa.Pop(dst))

    def rep_movs(self):
        return self._emit(isa.RepMovs())

    # -- arithmetic / logic -------------------------------------------------------

    def add(self, dst, src):
        return self._emit(isa.Add(dst, src))

    def sub(self, dst, src):
        return self._emit(isa.Sub(dst, src))

    def and_(self, dst, src):
        return self._emit(isa.And(dst, src))

    def or_(self, dst, src):
        return self._emit(isa.Or(dst, src))

    def xor(self, dst, src):
        return self._emit(isa.Xor(dst, src))

    def shl(self, dst, src):
        return self._emit(isa.Shl(dst, src))

    def shr(self, dst, src):
        return self._emit(isa.Shr(dst, src))

    def inc(self, dst):
        return self._emit(isa.Inc(dst))

    def dec(self, dst):
        return self._emit(isa.Dec(dst))

    def cmp(self, a, b):
        return self._emit(isa.Cmp(a, b))

    def test(self, a, b):
        return self._emit(isa.Test(a, b))

    # -- control flow ---------------------------------------------------------------

    def jmp(self, target):
        return self._emit(isa.Jmp(target))

    def jz(self, target):
        return self._emit(isa.Jz(target))

    je = jz  # x86 alias

    def jnz(self, target):
        return self._emit(isa.Jnz(target))

    jne = jnz

    def jl(self, target):
        return self._emit(isa.Jl(target))

    def jge(self, target):
        return self._emit(isa.Jge(target))

    def jle(self, target):
        return self._emit(isa.Jle(target))

    def jg(self, target):
        return self._emit(isa.Jg(target))

    def call(self, target):
        return self._emit(isa.Call(target))

    def ret(self):
        return self._emit(isa.Ret())

    # -- system ---------------------------------------------------------------------

    def cmpxchg(self, dst, src):
        return self._emit(isa.Cmpxchg(dst, src))

    def syscall(self, number):
        return self._emit(isa.Syscall(number))

    def nop(self):
        return self._emit(isa.Nop())

    def halt(self):
        return self._emit(isa.Halt())

    # -- accounting regions ------------------------------------------------------------

    def region_begin(self, name):
        return self._emit(isa.RegionMarker(name, begin=True))

    def region_end(self, name):
        return self._emit(isa.RegionMarker(name, begin=False))

    # -- finalisation --------------------------------------------------------------------

    def build(self):
        """Resolve labels and return an immutable :class:`Program`."""
        for instr in self._code:
            if isinstance(instr, (isa.Jmp, isa.Call)):
                if instr.target not in self._labels:
                    raise AssemblyError(
                        "unresolved label %r in program %r"
                        % (instr.target, self.name)
                    )
                instr.target_index = self._labels[instr.target]
        self._built = True
        return Program(self.name, self._code, self._labels,
                       find_spin_loops(self._code))
