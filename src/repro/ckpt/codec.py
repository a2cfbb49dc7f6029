"""Serialization of programs, instructions, operands and CPU contexts.

Assembled :class:`~repro.cpu.assembler.Program` objects are immutable, but
a checkpoint must be restorable in a fresh process that never ran the
scenario's assembly code -- so the program a worker executes rides inside
the checkpoint and is reconstructed instruction by instruction here.

The encoding is positional JSON: an operand is ``["reg", name]``,
``["imm", value]`` or ``["mem", base_or_null, disp]``; an instruction is a
dict with an ``"op"`` key naming its class plus its constructor fields.
Jump targets keep both the label and the assembler-resolved
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

_TWO_OP = {
    "mov": isa.Mov,
    "add": isa.Add,
    "sub": isa.Sub,
    "and": isa.And,
    "or": isa.Or,
    "xor": isa.Xor,
    "shl": isa.Shl,
    "shr": isa.Shr,
    "cmp": isa.Cmp,
    "test": isa.Test,
}

_ONE_OP = {
    "inc": isa.Inc,
    "dec": isa.Dec,
}

_JUMPS = {
    "jmp": isa.Jmp,
    "jz": isa.Jz,
    "jnz": isa.Jnz,
    "jl": isa.Jl,
    "jge": isa.Jge,
    "jle": isa.Jle,
    "jg": isa.Jg,
}

_BARE = {
    "ret": isa.Ret,
    "rep_movs": isa.RepMovs,
    "nop": isa.Nop,
    "halt": isa.Halt,
}

_TWO_OP_CLASSES = {cls: op for op, cls in _TWO_OP.items()}
_ONE_OP_CLASSES = {cls: op for op, cls in _ONE_OP.items()}
_JUMP_CLASSES = {cls: op for op, cls in _JUMPS.items()}
_BARE_CLASSES = {cls: op for op, cls in _BARE.items()}


def encode_instruction(instr):
    cls = type(instr)
    if cls in _TWO_OP_CLASSES:
        return {
            "op": _TWO_OP_CLASSES[cls],
            "dst": encode_operand(instr.dst),
            "src": encode_operand(instr.src),
        }
    if cls in _ONE_OP_CLASSES:
        return {"op": _ONE_OP_CLASSES[cls], "dst": encode_operand(instr.dst)}
    if cls in _JUMP_CLASSES:
        return {
            "op": _JUMP_CLASSES[cls],
            "target": instr.target,
            "target_index": instr.target_index,
        }
    if cls in _BARE_CLASSES:
        return {"op": _BARE_CLASSES[cls]}
    if cls is isa.Lea:
        return {
            "op": "lea",
            "dst": encode_operand(instr.dst),
            "src": encode_operand(instr.src),
        }
    if cls is isa.Cmpxchg:
        return {
            "op": "cmpxchg",
            "dst": encode_operand(instr.dst),
            "src": encode_operand(instr.src),
        }
    if cls is isa.Push:
        return {"op": "push", "src": encode_operand(instr.src)}
    if cls is isa.Pop:
        return {"op": "pop", "dst": encode_operand(instr.dst)}
    if cls is isa.Call:
        return {
            "op": "call",
            "target": instr.target,
            "target_index": instr.target_index,
        }
    if cls is isa.Syscall:
        return {"op": "syscall", "number": instr.number}
    if cls is isa.RegionMarker:
        return {"op": "region", "name": instr.name, "begin": instr.begin}
    raise CkptFormatError("cannot encode instruction %r" % (instr,))


def decode_instruction(encoded):
    op = encoded.get("op")
    if op in _TWO_OP:
        return _TWO_OP[op](
            decode_operand(encoded["dst"]), decode_operand(encoded["src"])
        )
    if op in _ONE_OP:
        return _ONE_OP[op](decode_operand(encoded["dst"]))
    if op in _JUMPS:
        instr = _JUMPS[op](encoded["target"])
        instr.target_index = encoded["target_index"]
        return instr
    if op in _BARE:
        return _BARE[op]()
    if op == "lea":
        return isa.Lea(
            decode_operand(encoded["dst"]), decode_operand(encoded["src"])
        )
    if op == "cmpxchg":
        return isa.Cmpxchg(
            decode_operand(encoded["dst"]), decode_operand(encoded["src"])
        )
    if op == "push":
        return isa.Push(decode_operand(encoded["src"]))
    if op == "pop":
        return isa.Pop(decode_operand(encoded["dst"]))
    if op == "call":
        instr = isa.Call(encoded["target"])
        instr.target_index = encoded["target_index"]
        return instr
    if op == "syscall":
        return isa.Syscall(encoded["number"])
    if op == "region":
        return isa.RegionMarker(encoded["name"], encoded["begin"])
    raise CkptFormatError("unknown instruction op %r" % (op,))


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


def decode_context(state, context=None):
    """Rebuild a :class:`Context` (or overwrite ``context`` in place)."""
    if context is None:
        context = Context()
    context.reg_values[:] = state["reg_values"]
    context.flags["zf"] = state["flags"][0]
    context.flags["sf"] = state["flags"][1]
    context.pc = state["pc"]
    context.halted = state["halted"]
    return context
