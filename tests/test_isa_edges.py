"""ISA edge cases: flags, shifts, signed compares, operand validation."""

import pytest

from repro.sim import Simulator, Process
from repro.memsys import (
    PhysicalMemory,
    XpressBus,
    DramDevice,
    Cache,
    MemsysParams,
)
from repro.cpu import Asm, Cpu, Context, Mem, R0, R1, R2
from repro.cpu.isa import Imm, IsaError, Lea, Pop, Push, Cmpxchg
from repro.memsys.cache import CachePolicy


class IdentityMmu:
    def translate(self, vaddr, access):
        return vaddr, CachePolicy.WRITE_BACK


def make_cpu():
    sim = Simulator()
    params = MemsysParams()
    bus = XpressBus(sim, params)
    mem = PhysicalMemory(64 * 1024)
    bus.attach(0, 64 * 1024, DramDevice(mem, params.dram_access_ns))
    cache = Cache(sim, bus, params)
    return sim, Cpu(sim, cache, IdentityMmu(), params)


def run(sim, cpu, asm, ctx=None):
    ctx = ctx or Context(stack_top=0x8000)
    proc = Process(sim, cpu.run_to_halt(asm.build(), ctx), "t").start()
    sim.run_until_idle()
    assert proc.finished
    return ctx


class TestSignedComparisons:
    @pytest.mark.parametrize(
        "a,b,taken_jl",
        [
            (5, 10, True),
            (10, 5, False),
            (5, 5, False),
            (0xFFFFFFFF, 0, True),  # -1 < 0 signed
            (0, 0xFFFFFFFF, False),  # 0 > -1 signed
            (0x80000000, 0x7FFFFFFF, True),  # INT_MIN < INT_MAX
        ],
    )
    def test_jl_signed_semantics(self, a, b, taken_jl):
        sim, cpu = make_cpu()
        asm = Asm()
        asm.mov(R0, a)
        asm.mov(R1, b)
        asm.cmp(R0, R1)
        asm.jl("less")
        asm.mov(R2, 0)
        asm.halt()
        asm.label("less")
        asm.mov(R2, 1)
        asm.halt()
        ctx = run(sim, cpu, asm)
        assert bool(ctx.registers["r2"]) == taken_jl

    def test_jg_and_jle_complementary(self):
        sim, cpu = make_cpu()
        asm = Asm()
        asm.mov(R0, 7)
        asm.cmp(R0, 3)
        asm.jg("greater")
        asm.mov(R1, 0)
        asm.halt()
        asm.label("greater")
        asm.cmp(R0, 7)
        asm.jle("le")
        asm.mov(R1, 1)
        asm.halt()
        asm.label("le")
        asm.mov(R1, 2)
        asm.halt()
        ctx = run(sim, cpu, asm)
        assert ctx.registers["r1"] == 2  # 7 > 3, then 7 <= 7


class TestShifts:
    def test_shift_count_masked_to_31(self):
        sim, cpu = make_cpu()
        asm = Asm()
        asm.mov(R0, 1)
        asm.shl(R0, 33)  # x86 masks the count: 33 & 31 == 1
        asm.halt()
        ctx = run(sim, cpu, asm)
        assert ctx.registers["r0"] == 2

    def test_shr_sets_zf_on_zero_result(self):
        """The copy macros rely on shr's ZF for the zero-length guard."""
        sim, cpu = make_cpu()
        asm = Asm()
        asm.mov(R0, 3)
        asm.shr(R0, 2)  # 3 >> 2 == 0
        asm.jz("was_zero")
        asm.mov(R1, 0)
        asm.halt()
        asm.label("was_zero")
        asm.mov(R1, 1)
        asm.halt()
        ctx = run(sim, cpu, asm)
        assert ctx.registers["r1"] == 1

    def test_shl_wraps_32_bits(self):
        sim, cpu = make_cpu()
        asm = Asm()
        asm.mov(R0, 0x80000001)
        asm.shl(R0, 1)
        asm.halt()
        ctx = run(sim, cpu, asm)
        assert ctx.registers["r0"] == 2


class TestOperandValidation:
    def test_lea_rejects_non_memory_source(self):
        with pytest.raises(IsaError):
            Lea(R0, R1)

    def test_push_rejects_memory(self):
        with pytest.raises(IsaError):
            Push(Mem(disp=0))

    def test_pop_rejects_non_register(self):
        with pytest.raises(IsaError):
            Pop(Imm(1))
        with pytest.raises(IsaError):
            Pop(Mem(disp=0))

    def test_cmpxchg_operand_kinds(self):
        with pytest.raises(IsaError):
            Cmpxchg(R0, R1)  # destination must be memory
        with pytest.raises(IsaError):
            Cmpxchg(Mem(disp=0), Imm(5))  # source must be a register

    def test_unknown_register_rejected(self):
        from repro.cpu.isa import Reg

        with pytest.raises(IsaError):
            Reg("r9")

    def test_operand_conversion_rejects_junk(self):
        asm = Asm()
        with pytest.raises(IsaError):
            asm.mov(R0, "not an operand")


class TestStackDiscipline:
    def test_sp_moves_by_word(self):
        sim, cpu = make_cpu()
        asm = Asm()
        asm.push(1)
        asm.push(2)
        asm.halt()
        ctx = run(sim, cpu, asm)
        assert ctx.registers["sp"] == 0x8000 - 8

    def test_deep_call_chain(self):
        sim, cpu = make_cpu()
        asm = Asm()
        asm.mov(R0, 0)
        asm.call("f1")
        asm.halt()
        for i in range(1, 9):
            asm.label("f%d" % i)
            asm.inc(R0)
            if i < 8:
                asm.call("f%d" % (i + 1))
            asm.ret()
        ctx = run(sim, cpu, asm)
        assert ctx.registers["r0"] == 8


class TestImmediates:
    def test_negative_immediate_wraps(self):
        assert Imm(-1).value == 0xFFFFFFFF
        assert Imm(-3).value == 0xFFFFFFFD

    def test_mem_base_must_be_register(self):
        with pytest.raises(IsaError):
            Mem(base=5, disp=0)
