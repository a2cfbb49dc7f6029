"""Serialization of programs, instructions, operands and CPU contexts.

Assembled :class:`~repro.cpu.assembler.Program` objects are immutable, but
a checkpoint must be restorable in a fresh process that never ran the
scenario's assembly code -- so the program a worker executes rides inside
the checkpoint and is reconstructed instruction by instruction here.

The encoding is positional JSON: an operand is ``["reg", name]``,
``["imm", value]`` or ``["mem", base_or_null, disp]``; an instruction is a
dict with an ``"op"`` key named after its mnemonic plus its constructor
fields.  Jump targets keep both the label and the assembler-resolved
``target_index`` so a decoded program executes identically without
re-running label resolution.
"""

from repro.cpu import isa
from repro.cpu.assembler import Program, find_spin_loops
from repro.cpu.core import Context
from repro.ckpt.protocol import CkptFormatError


# -- operands -----------------------------------------------------------------


def encode_operand(operand):
    if isinstance(operand, isa.Reg):
        return ["reg", operand.name]
    if isinstance(operand, isa.Imm):
        return ["imm", operand.value]
    if isinstance(operand, isa.Mem):
        base = operand.base.name if operand.base is not None else None
        return ["mem", base, operand.disp]
    raise CkptFormatError("cannot encode operand %r" % (operand,))


def decode_operand(encoded):
    kind = encoded[0]
    if kind == "reg":
        return isa.Reg(encoded[1])
    if kind == "imm":
        return isa.Imm(encoded[1])
    if kind == "mem":
        base = isa.Reg(encoded[1]) if encoded[1] is not None else None
        return isa.Mem(base=base, disp=encoded[2])
    raise CkptFormatError("unknown operand kind %r" % (kind,))


# -- instructions -------------------------------------------------------------

_OPERAND_FIELDS = ("dst", "src")

# Each op of the encoding: the instruction class and the fields encoded
# after ``"op"``, constructor arguments first (a branch's
# ``target_index`` is set after construction).
_OPS = {
    "mov": (isa.Mov, ("dst", "src")),
    "add": (isa.Add, ("dst", "src")),
    "sub": (isa.Sub, ("dst", "src")),
    "and": (isa.And, ("dst", "src")),
    "or": (isa.Or, ("dst", "src")),
    "xor": (isa.Xor, ("dst", "src")),
    "shl": (isa.Shl, ("dst", "src")),
    "shr": (isa.Shr, ("dst", "src")),
    "cmp": (isa.Cmp, ("dst", "src")),
    "test": (isa.Test, ("dst", "src")),
    "inc": (isa.Inc, ("dst",)),
    "dec": (isa.Dec, ("dst",)),
    "jmp": (isa.Jmp, ("target", "target_index")),
    "jz": (isa.Jz, ("target", "target_index")),
    "jnz": (isa.Jnz, ("target", "target_index")),
    "jl": (isa.Jl, ("target", "target_index")),
    "jge": (isa.Jge, ("target", "target_index")),
    "jle": (isa.Jle, ("target", "target_index")),
    "jg": (isa.Jg, ("target", "target_index")),
    "ret": (isa.Ret, ()),
    "rep_movs": (isa.RepMovs, ()),
    "nop": (isa.Nop, ()),
    "halt": (isa.Halt, ()),
    "lea": (isa.Lea, ("dst", "src")),
    "cmpxchg": (isa.Cmpxchg, ("dst", "src")),
    "push": (isa.Push, ("src",)),
    "pop": (isa.Pop, ("dst",)),
    "call": (isa.Call, ("target", "target_index")),
    "syscall": (isa.Syscall, ("number",)),
    "region": (isa.RegionMarker, ("name", "begin")),
}

# The op of each mnemonic that is not its own op name.
_OP_OF_MNEMONIC = {
    "lock cmpxchg": "cmpxchg",
    "rep movs": "rep_movs",
    ".region_begin": "region",
    ".region_end": "region",
}


def encode_instruction(instr):
    op = _OP_OF_MNEMONIC.get(instr.mnemonic, instr.mnemonic)
    if op not in _OPS or not isinstance(instr, _OPS[op][0]):
        raise CkptFormatError("cannot encode instruction %r" % (instr,))
    encoded = {"op": op}
    for field in _OPS[op][1]:
        value = getattr(instr, field)
        encoded[field] = (
            encode_operand(value) if field in _OPERAND_FIELDS else value)
    return encoded


def decode_instruction(encoded):
    op = encoded.get("op")
    if op not in _OPS:
        raise CkptFormatError("unknown instruction op %r" % (op,))
    cls, fields = _OPS[op]
    args = [
        decode_operand(encoded[field]) if field in _OPERAND_FIELDS
        else encoded[field]
        for field in fields if field != "target_index"
    ]
    instr = cls(*args)
    if "target_index" in fields:
        instr.target_index = encoded["target_index"]
    return instr


# -- programs -----------------------------------------------------------------


def encode_program(program):
    return {
        "name": program.name,
        "labels": sorted(program.labels.items()),
        "code": [encode_instruction(instr) for instr in program.code],
    }


def decode_program(state):
    code = [decode_instruction(entry) for entry in state["code"]]
    labels = {label: index for label, index in state["labels"]}
    return Program(state["name"], code, labels, find_spin_loops(code))


# -- architectural contexts ---------------------------------------------------


def encode_context(context):
    return {
        "reg_values": list(context.reg_values),
        "flags": [bool(context.flags["zf"]), bool(context.flags["sf"])],
        "pc": context.pc,
        "halted": bool(context.halted),
    }


def decode_context(state):
    """Rebuild a :class:`Context`."""
    context = Context()
    context.reg_values[:] = state["reg_values"]
    context.flags["zf"] = state["flags"][0]
    context.flags["sf"] = state["flags"][1]
    context.pc = state["pc"]
    context.halted = state["halted"]
    return context
