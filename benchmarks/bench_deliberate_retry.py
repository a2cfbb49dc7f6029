"""Ablation A5 -- DMA-engine contention and the read-status backoff.

Section 4.3: when the engine is busy, a status read returns the number of
words remaining, which "can be used to implement backoff strategies to
optimize the use of the memory bus for the DMA transfer".  We arm a large
transfer and then contend for the engine with (a) a tight CMPXCHG retry
loop and (b) a backoff loop that sleeps proportionally to the remaining
words, and compare the locked bus transactions each burns.
"""

from repro.cpu import Asm, Context, Mem, R0, R1, R2
from repro.machine import ShrimpSystem, mapping
from repro.analysis import Table
from repro.memsys.address import PAGE_SIZE
from repro.nic.nipt import MappingMode
from repro.sim.process import Process

SRC, DST = 0x10000, 0x20000


def run_contention(strategy):
    """Arm a 1024-word transfer, then contend for a second page.

    ``strategy`` is "spin" (tight retry) or "backoff" (sleep proportional
    to the remaining-words status).  Returns command-page bus transactions
    burned while waiting plus the completion time.
    """
    system = ShrimpSystem(2, 1)
    system.start()
    a, b = system.nodes
    mapping.establish(a, SRC, b, DST, 2 * PAGE_SIZE, MappingMode.DELIBERATE)
    a.memory.write_words(SRC, [1] * 1024)
    a.memory.write_words(SRC + PAGE_SIZE, [2] * 1024)
    cmd1 = a.command_addr(SRC)
    cmd2 = a.command_addr(SRC + PAGE_SIZE)

    command_reads = [0]
    a.bus.add_snooper(
        lambda t: command_reads.__setitem__(0, command_reads[0] + 1)
        if a.address_map.is_command(t.addr) and t.kind == "read" else None
    )

    asm = Asm("contender")
    # Arm the first page (engine idle: wins immediately).
    asm.mov(R1, 1024)
    asm.mov(R0, 0)
    asm.cmpxchg(Mem(disp=cmd1), R1)
    # Contend for the second page.
    asm.label("retry")
    asm.mov(R0, 0)
    asm.cmpxchg(Mem(disp=cmd2), R1)
    asm.jz("armed")
    if strategy == "backoff":
        # r0 now holds (remaining << 1) | match: sleep proportionally.
        asm.shr(R0, 1)
        asm.mov(R2, R0)  # delay iterations ~ remaining words
        asm.label("sleep")
        asm.dec(R2)
        asm.jnz("sleep")
    asm.jmp("retry")
    asm.label("armed")
    asm.halt()
    proc = Process(
        system.sim,
        a.cpu.run_to_halt(asm.build(), Context(stack_top=0x3F000)),
        "c",
    ).start()
    system.run()
    assert proc.finished
    assert b.memory.read_words(DST + PAGE_SIZE, 4) == [2] * 4
    return {
        "command_reads": command_reads[0],
        "done_ns": system.sim.now,
        "locked_txns": a.bus.transactions.value,
    }


def test_backoff_reduces_bus_traffic(run_once):
    def experiment():
        return run_contention("spin"), run_contention("backoff")

    spin, backoff = run_once(experiment)
    table = Table(
        ["strategy", "command-page reads", "completion (ns)"],
        title="A5: DMA-engine contention, tight retry vs status backoff",
    )
    table.add("tight CMPXCHG retry", spin["command_reads"], spin["done_ns"])
    table.add("remaining-words backoff", backoff["command_reads"],
              backoff["done_ns"])
    print()
    print(table)
    # Backoff burns far fewer locked command reads (bus tenures the DMA
    # engine needs for its source reads).
    assert backoff["command_reads"] < spin["command_reads"] / 3
    # And it should not meaningfully delay completion.
    assert backoff["done_ns"] < spin["done_ns"] * 1.5
