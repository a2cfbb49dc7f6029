"""Unit tests for the CPU: ISA semantics, counting, interrupts, faults."""

import pytest

from repro.sim import Simulator, Process
from repro.memsys import (
    PhysicalMemory,
    XpressBus,
    DramDevice,
    Cache,
    CachePolicy,
    MemsysParams,
)
from repro.cpu import Asm, Cpu, Context, Mem, PageFault, R0, R1, R2, R3
from repro.cpu.core import InstructionCounts
from repro.cpu.assembler import AssemblyError
from repro.cpu.isa import IsaError, Imm


class IdentityMmu:
    """Flat translation with one policy; enough for CPU unit tests."""

    def __init__(self, policy=CachePolicy.WRITE_BACK):
        self.policy = policy

    def translate(self, vaddr, access):
        return vaddr, self.policy


def make_cpu(policy=CachePolicy.WRITE_BACK, dram_bytes=64 * 1024):
    sim = Simulator()
    params = MemsysParams()
    bus = XpressBus(sim, params)
    mem = PhysicalMemory(dram_bytes)
    bus.attach(0, dram_bytes, DramDevice(mem, params.dram_access_ns))
    cache = Cache(sim, bus, params)
    cpu = Cpu(sim, cache, IdentityMmu(policy), params)
    return sim, cpu, mem, bus


def run_program(sim, cpu, program, context=None):
    proc = Process(sim, cpu.run_to_halt(program, context), "cpu").start()
    sim.run_until_idle()
    assert proc.finished
    return proc.result


class TestBasicIsa:
    def test_mov_immediate_and_registers(self):
        sim, cpu, _mem, _bus = make_cpu()
        asm = Asm()
        asm.mov(R0, 42)
        asm.mov(R1, R0)
        asm.halt()
        ctx = run_program(sim, cpu, asm.build())
        assert ctx.registers["r0"] == 42
        assert ctx.registers["r1"] == 42

    def test_arithmetic_and_wraparound(self):
        sim, cpu, _mem, _bus = make_cpu()
        asm = Asm()
        asm.mov(R0, 0xFFFFFFFF)
        asm.add(R0, 2)
        asm.mov(R1, 10)
        asm.sub(R1, 3)
        asm.halt()
        ctx = run_program(sim, cpu, asm.build())
        assert ctx.registers["r0"] == 1  # 32-bit wrap
        assert ctx.registers["r1"] == 7

    def test_logic_ops(self):
        sim, cpu, _mem, _bus = make_cpu()
        asm = Asm()
        asm.mov(R0, 0b1100)
        asm.and_(R0, 0b1010)
        asm.mov(R1, 0b0001)
        asm.or_(R1, 0b0100)
        asm.mov(R2, 0xFF)
        asm.xor(R2, 0x0F)
        asm.mov(R3, 1)
        asm.shl(R3, 4)
        asm.halt()
        ctx = run_program(sim, cpu, asm.build())
        assert ctx.registers["r0"] == 0b1000
        assert ctx.registers["r1"] == 0b0101
        assert ctx.registers["r2"] == 0xF0
        assert ctx.registers["r3"] == 16

    def test_inc_dec(self):
        sim, cpu, _mem, _bus = make_cpu()
        asm = Asm()
        asm.mov(R0, 5)
        asm.inc(R0)
        asm.dec(R0)
        asm.dec(R0)
        asm.halt()
        ctx = run_program(sim, cpu, asm.build())
        assert ctx.registers["r0"] == 4

    def test_memory_round_trip(self):
        sim, cpu, mem, _bus = make_cpu(CachePolicy.WRITE_THROUGH)
        asm = Asm()
        asm.mov(Mem(disp=0x100), 77)
        asm.mov(R0, Mem(disp=0x100))
        asm.add(Mem(disp=0x100), 5)  # ALU memory-immediate: [m] = 82
        asm.sub(Mem(disp=0x104), 1)  # 0 - 1 wraps in memory
        asm.mov(R1, 80)
        asm.cmp(R1, Mem(disp=0x100))  # register-memory: 80 - 82 < 0
        asm.halt()
        ctx = run_program(sim, cpu, asm.build())
        assert ctx.registers["r0"] == 77
        assert ctx.registers["r1"] == 80  # cmp writes no register
        assert mem.read_word(0x100) == 82  # ... and no memory
        assert mem.read_word(0x104) == 0xFFFFFFFF
        assert ctx.flags == {"zf": False, "sf": True}

    def test_memory_operand_with_base_register(self):
        sim, cpu, _mem, _bus = make_cpu()
        asm = Asm()
        asm.mov(R1, 0x200)
        asm.mov(Mem(base=R1, disp=8), 5)
        asm.mov(R0, Mem(base=R1, disp=8))
        asm.halt()
        ctx = run_program(sim, cpu, asm.build())
        assert ctx.registers["r0"] == 5

    def test_lea(self):
        sim, cpu, _mem, _bus = make_cpu()
        asm = Asm()
        asm.mov(R1, 0x100)
        asm.lea(R0, Mem(base=R1, disp=0x20))
        asm.halt()
        ctx = run_program(sim, cpu, asm.build())
        assert ctx.registers["r0"] == 0x120

    def test_mem_to_mem_rejected(self):
        asm = Asm()
        with pytest.raises(IsaError):
            asm.mov(Mem(disp=0), Mem(disp=4))

    def test_immediate_destination_rejected(self):
        asm = Asm()
        with pytest.raises(IsaError):
            asm.mov(Imm(1), R0)


class TestControlFlow:
    def test_loop_with_counter(self):
        sim, cpu, _mem, _bus = make_cpu()
        asm = Asm()
        asm.mov(R0, 0)
        asm.mov(R1, 5)
        asm.mov(R2, 0x100)
        asm.label("loop")
        asm.nop()
        asm.lea(R2, Mem(base=R2, disp=4))
        asm.add(R0, 2)
        asm.dec(R1)
        asm.jnz("loop")
        asm.halt()
        program = asm.build()
        assert program.spins == {}  # register-only body: nothing to fold
        ctx = run_program(sim, cpu, program)
        assert ctx.registers["r0"] == 10
        assert ctx.registers["r2"] == 0x100 + 5 * 4
        assert cpu.counts.total == 3 + 5 * 5 + 1  # nop retires

    def test_cmp_and_signed_branches(self):
        sim, cpu, _mem, _bus = make_cpu()
        asm = Asm()
        asm.mov(R0, 3)
        asm.cmp(R0, 7)
        asm.jl("less")
        asm.mov(R1, 111)
        asm.jmp("end")
        asm.label("less")
        asm.mov(R1, 222)
        asm.label("end")
        asm.halt()
        ctx = run_program(sim, cpu, asm.build())
        assert ctx.registers["r1"] == 222

    def test_jz_after_test(self):
        sim, cpu, _mem, _bus = make_cpu()
        asm = Asm()
        asm.mov(R0, 0)
        asm.test(R0, R0)
        asm.jz("zero")
        asm.mov(R1, 1)
        asm.halt()
        asm.label("zero")
        asm.mov(R1, 2)
        asm.halt()
        ctx = run_program(sim, cpu, asm.build())
        assert ctx.registers["r1"] == 2

    def test_unresolved_label_rejected(self):
        asm = Asm()
        asm.jmp("nowhere")
        with pytest.raises(AssemblyError):
            asm.build()

    def test_duplicate_label_rejected(self):
        asm = Asm()
        asm.label("a")
        with pytest.raises(AssemblyError):
            asm.label("a")

    def test_cmp_memory_operand_is_one_instruction(self):
        """x86-style: ``cmp [flag], 0`` retires as a single instruction --
        the encoding the paper's small overhead counts rely on."""
        sim, cpu, _mem, _bus = make_cpu()
        asm = Asm()
        asm.cmp(Mem(disp=0x100), 0)
        asm.halt()
        run_program(sim, cpu, asm.build())
        assert cpu.counts.total == 2  # cmp + halt

    def test_implicit_halt_at_end(self):
        sim, cpu, _mem, _bus = make_cpu()
        asm = Asm()
        asm.mov(R0, 1)
        ctx = run_program(sim, cpu, asm.build())
        assert ctx.halted


class TestStackAndCalls:
    def test_push_pop(self):
        sim, cpu, _mem, _bus = make_cpu()
        asm = Asm()
        asm.mov(R0, 9)
        asm.push(R0)
        asm.push(13)
        asm.pop(R1)
        asm.pop(R2)
        asm.halt()
        ctx = Context(stack_top=0x8000)
        ctx = run_program(sim, cpu, asm.build(), ctx)
        assert ctx.registers["r1"] == 13
        assert ctx.registers["r2"] == 9
        assert ctx.registers["sp"] == 0x8000

    def test_call_ret(self):
        sim, cpu, _mem, _bus = make_cpu()
        asm = Asm()
        asm.call("double")
        asm.halt()
        asm.label("double")
        asm.add(R0, R0)
        asm.ret()
        ctx = Context(stack_top=0x8000)
        ctx.registers["r0"] = 21
        ctx = run_program(sim, cpu, asm.build(), ctx)
        assert ctx.registers["r0"] == 42

    def test_nested_calls(self):
        sim, cpu, _mem, _bus = make_cpu()
        asm = Asm()
        asm.call("outer")
        asm.halt()
        asm.label("outer")
        asm.call("inner")
        asm.inc(R0)
        asm.ret()
        asm.label("inner")
        asm.add(R0, 10)
        asm.ret()
        ctx = Context(stack_top=0x8000)
        ctx = run_program(sim, cpu, asm.build(), ctx)
        assert ctx.registers["r0"] == 11


class TestCmpxchg:
    def test_success_sets_zf_and_writes(self):
        sim, cpu, mem, _bus = make_cpu()
        asm = Asm()
        asm.mov(R0, 0)  # accumulator = expected
        asm.mov(R1, 99)
        asm.cmpxchg(Mem(disp=0x100), R1)
        asm.jz("ok")
        asm.mov(R2, 0)
        asm.halt()
        asm.label("ok")
        asm.mov(R2, 1)
        asm.halt()
        ctx = run_program(sim, cpu, asm.build())
        assert ctx.registers["r2"] == 1

    def test_failure_loads_accumulator(self):
        sim, cpu, mem, _bus = make_cpu()
        mem.write_word(0x100, 55)
        asm = Asm()
        asm.mov(R0, 0)
        asm.mov(R1, 99)
        asm.cmpxchg(Mem(disp=0x100), R1)
        asm.halt()
        ctx = run_program(sim, cpu, asm.build())
        assert ctx.registers["r0"] == 55  # loaded the observed value
        assert not ctx.flags["zf"]

    def test_uncached_cmpxchg_goes_to_bus_locked(self):
        sim, cpu, mem, bus = make_cpu(policy=CachePolicy.UNCACHED)
        locked = []
        bus.add_snooper(lambda t: locked.append(t.locked))

        asm = Asm()
        asm.mov(R0, 0)
        asm.mov(R1, 7)
        asm.cmpxchg(Mem(disp=0x100), R1)
        asm.halt()
        run_program(sim, cpu, asm.build())
        assert mem.read_word(0x100) == 7
        assert any(locked)


class TestRepMovs:
    def test_copies_and_counts_one_instruction(self):
        sim, cpu, mem, _bus = make_cpu()
        mem.write_words(0x100, [1, 2, 3, 4])
        asm = Asm()
        asm.mov(R1, 0x100)  # src
        asm.mov(R2, 0x200)  # dst
        asm.mov(R3, 4)  # count
        asm.region_begin("copy")
        asm.rep_movs()
        asm.region_end("copy")
        asm.halt()
        run_program(sim, cpu, asm.build())
        # The copy sits dirty in the write-back cache; flush to check DRAM.
        Process(sim, cpu.cache.flush_page(0, 4096), "flush").start()
        sim.run_until_idle()
        assert mem.read_words(0x200, 4) == [1, 2, 3, 4]
        assert cpu.counts.region("copy") == 1  # one instruction...
        assert cpu.counts.copy_words == 4  # ...per-word cost tracked apart

    def test_zero_count_copies_nothing(self):
        sim, cpu, mem, _bus = make_cpu()
        asm = Asm()
        asm.mov(R3, 0)
        asm.rep_movs()
        asm.halt()
        run_program(sim, cpu, asm.build())
        assert cpu.counts.copy_words == 0


class TestCounting:
    def test_total_counts_exclude_markers(self):
        sim, cpu, _mem, _bus = make_cpu()
        asm = Asm()
        asm.region_begin("r")
        asm.mov(R0, 1)
        asm.mov(R1, 2)
        asm.region_end("r")
        asm.halt()
        run_program(sim, cpu, asm.build())
        assert cpu.counts.region("r") == 2
        assert cpu.counts.total == 3  # two movs + halt

    def test_nested_regions_both_charged(self):
        sim, cpu, _mem, _bus = make_cpu()
        asm = Asm()
        asm.region_begin("outer")
        asm.mov(R0, 1)
        asm.region_begin("inner")
        asm.mov(R1, 2)
        asm.region_end("inner")
        asm.mov(R2, 3)
        asm.region_end("outer")
        asm.halt()
        run_program(sim, cpu, asm.build())
        assert cpu.counts.region("outer") == 3
        assert cpu.counts.region("inner") == 1

    def test_loop_iterations_counted(self):
        sim, cpu, _mem, _bus = make_cpu()
        asm = Asm()
        asm.mov(R1, 3)
        asm.region_begin("loop")
        asm.label("top")
        asm.dec(R1)
        asm.jnz("top")
        asm.region_end("loop")
        asm.halt()
        run_program(sim, cpu, asm.build())
        assert cpu.counts.region("loop") == 6  # (dec+jnz) x3

    def test_close_unopened_region_raises(self):
        sim, cpu, _mem, _bus = make_cpu()
        asm = Asm()
        asm.region_end("ghost")
        asm.halt()
        with pytest.raises(RuntimeError):
            run_program(sim, cpu, asm.build())

    def test_reopened_region_charges_once(self):
        # Regression: opening the same region twice used to charge every
        # retired instruction twice to it.
        sim, cpu, _mem, _bus = make_cpu()
        asm = Asm()
        asm.region_begin("send")
        asm.region_begin("send")
        asm.mov(R0, 1)
        asm.mov(R1, 2)
        asm.region_end("send")
        asm.mov(R2, 3)  # outer open still covers this one
        asm.region_end("send")
        asm.halt()
        run_program(sim, cpu, asm.build())
        assert cpu.counts.region("send") == 3

    def test_nested_same_name_regions_close_innermost_first(self):
        # Regression: close_region used list.remove (first occurrence), so
        # nested same-name regions paired FIFO instead of LIFO.  With the
        # count map, each close simply decrements the open depth.
        counts = InstructionCounts()
        counts.open_region("s")
        counts.on_retire()
        counts.open_region("s")
        counts.on_retire()
        counts.close_region("s")  # closes the inner open
        counts.on_retire()  # still inside the outer open: charged
        counts.close_region("s")
        counts.on_retire()  # fully closed: not charged
        assert counts.region("s") == 3
        assert counts.total == 4
        with pytest.raises(RuntimeError):
            counts.close_region("s")

    def test_retire_outside_any_region_charges_nothing(self):
        counts = InstructionCounts()
        counts.open_region("r")
        counts.close_region("r")
        counts.on_retire()
        assert counts.total == 1
        assert counts.region("r") == 0


class TestInterrupts:
    def test_interrupt_taken_between_instructions(self):
        sim, cpu, _mem, _bus = make_cpu()
        log = []

        def handler():
            log.append(("intr", sim.now))
            yield 1000

        cpu.register_interrupt_handler("fifo-full", handler)
        asm = Asm()
        asm.mov(R1, 50)
        asm.label("loop")
        asm.dec(R1)
        asm.jnz("loop")
        asm.halt()

        def poster():
            yield 200
            cpu.post_interrupt("fifo-full")

        Process(sim, poster(), "dev").start()
        run_program(sim, cpu, asm.build())
        assert len(log) == 1
        assert log[0][1] >= 200

    def test_unhandled_interrupt_raises(self):
        sim, cpu, _mem, _bus = make_cpu()
        cpu.post_interrupt("mystery")
        asm = Asm()
        asm.halt()
        with pytest.raises(RuntimeError, match="mystery"):
            run_program(sim, cpu, asm.build())


class TestFaults:
    def test_page_fault_restarts_instruction(self):
        sim, cpu, _mem, _bus = make_cpu()
        faults = []

        class FaultyMmu:
            def __init__(self):
                self.fixed = False

            def translate(self, vaddr, access):
                if vaddr == 0x500 and not self.fixed:
                    raise PageFault(vaddr, access, "not-present")
                return vaddr, CachePolicy.WRITE_BACK

        mmu = FaultyMmu()
        cpu.mmu = mmu

        def fault_handler(cpu_, fault):
            faults.append((fault.vaddr, fault.reason))
            mmu.fixed = True
            yield 500

        cpu.fault_handler = fault_handler
        asm = Asm()
        asm.mov(Mem(disp=0x500), 42)
        asm.mov(R0, Mem(disp=0x500))
        asm.halt()
        ctx = run_program(sim, cpu, asm.build())
        assert faults == [(0x500, "not-present")]
        assert ctx.registers["r0"] == 42

    def test_fault_without_handler_propagates(self):
        sim, cpu, _mem, _bus = make_cpu()

        class AlwaysFaults:
            def translate(self, vaddr, access):
                raise PageFault(vaddr, access, "no-access")

        cpu.mmu = AlwaysFaults()
        asm = Asm()
        asm.mov(R0, Mem(disp=0))
        asm.halt()
        with pytest.raises(PageFault):
            run_program(sim, cpu, asm.build())

    def test_faulted_instruction_not_double_counted(self):
        sim, cpu, _mem, _bus = make_cpu()

        class OnceFaulty:
            def __init__(self):
                self.fixed = False

            def translate(self, vaddr, access):
                if not self.fixed:
                    raise PageFault(vaddr, access, "not-present")
                return vaddr, CachePolicy.WRITE_BACK

        mmu = OnceFaulty()
        cpu.mmu = mmu

        def fix(cpu_, fault):
            mmu.fixed = True
            return
            yield  # pragma: no cover

        cpu.fault_handler = fix
        asm = Asm()
        asm.mov(Mem(disp=0x100), 1)
        asm.halt()
        run_program(sim, cpu, asm.build())
        assert cpu.counts.total == 2  # mov retired once despite the fault


class TestSyscall:
    def test_syscall_dispatches_to_kernel(self):
        sim, cpu, _mem, _bus = make_cpu()
        calls = []

        def kernel(cpu_, number):
            calls.append((number, cpu_.get_reg(R1)))
            cpu_.set_reg(R0, 123)
            yield 100

        cpu.syscall_handler = kernel
        asm = Asm()
        asm.mov(R1, 7)
        asm.syscall(42)
        asm.halt()
        ctx = run_program(sim, cpu, asm.build())
        assert calls == [(42, 7)]
        assert ctx.registers["r0"] == 123

    def test_syscall_without_kernel_raises(self):
        sim, cpu, _mem, _bus = make_cpu()
        asm = Asm()
        asm.syscall(1)
        asm.halt()
        with pytest.raises(RuntimeError):
            run_program(sim, cpu, asm.build())


class TestTimeslice:
    def test_run_slice_preempts_and_resumes(self):
        sim, cpu, _mem, _bus = make_cpu()
        asm = Asm()
        asm.mov(R0, 0)
        asm.mov(R1, 200)
        asm.label("loop")
        asm.inc(R0)
        asm.dec(R1)
        asm.jnz("loop")
        asm.halt()
        program = asm.build()
        ctx = Context()
        outcomes = []

        def driver():
            while not ctx.halted:
                outcome = yield from cpu.run_slice(program, ctx, max_ns=1000)
                outcomes.append(outcome)

        Process(sim, driver(), "sched").start()
        sim.run_until_idle()
        assert outcomes[-1] == "halt"
        assert outcomes.count("timeslice") >= 1
        assert ctx.registers["r0"] == 200

    def test_listing_smoke(self):
        asm = Asm("demo")
        asm.label("start")
        asm.mov(R0, 1)
        asm.jmp("start")
        program = asm.build()
        text = program.listing()
        assert "start:" in text
        assert "mov" in text
