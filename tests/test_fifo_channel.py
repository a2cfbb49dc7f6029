"""Tests for FIFO emulation over memory mappings (paper section 7)."""

from hypothesis import given, settings, strategies as st

from repro.cpu import Asm, Context, Mem, R2
from repro.machine import ShrimpSystem
from repro.msg.fifo_channel import FifoChannel, RING_WORDS
from repro.sim import Process

STACK = 0x3F000
OUT = 0x38000  # consumer-side private store of popped values


def make_channel():
    system = ShrimpSystem(2, 1)
    system.start()
    channel = FifoChannel(system, system.nodes[0], system.nodes[1])
    return system, channel


def producer_program(channel, values):
    asm = Asm("producer")
    for value in values:
        asm.mov(R2, value)
        channel.emit_push(asm)
    asm.halt()
    return asm


def consumer_program(channel, count):
    asm = Asm("consumer")
    for i in range(count):
        channel.emit_pop(asm)
        asm.mov(Mem(disp=OUT + 4 * i), R2)
    asm.halt()
    return asm


def run_both(system, channel, values):
    a, b = channel.producer, channel.consumer
    # Popped values land via write-back cache; store them write-through.
    from repro.memsys.address import page_number
    from repro.memsys.cache import CachePolicy

    b.mmu.set_policy(page_number(OUT), CachePolicy.WRITE_THROUGH)
    pa = Process(
        system.sim,
        a.cpu.run_to_halt(producer_program(channel, values).build(),
                          Context(stack_top=STACK)),
        "prod",
    ).start()
    pb = Process(
        system.sim,
        b.cpu.run_to_halt(consumer_program(channel, len(values)).build(),
                          Context(stack_top=STACK)),
        "cons",
    ).start()
    system.run()
    assert pa.finished and pb.finished
    return b.memory.read_words(OUT, len(values))


def test_words_arrive_in_order():
    system, channel = make_channel()
    values = [10, 20, 30, 40, 50]
    assert run_both(system, channel, values) == values


def test_more_words_than_ring_capacity():
    """Flow control: the producer blocks when the ring fills and resumes
    as the consumer frees slots."""
    system, channel = make_channel()
    values = list(range(1, 3 * RING_WORDS + 1))
    assert run_both(system, channel, values) == values


def test_consumer_first_blocks_until_data():
    system, channel = make_channel()
    b = channel.consumer
    from repro.memsys.address import page_number
    from repro.memsys.cache import CachePolicy

    b.mmu.set_policy(page_number(OUT), CachePolicy.WRITE_THROUGH)
    done = {}

    def consumer():
        yield from b.cpu.run_to_halt(
            consumer_program(channel, 1).build(), Context(stack_top=STACK)
        )
        done["t"] = system.sim.now

    def late_producer():

        yield 100_000
        yield from channel.producer.cpu.run_to_halt(
            producer_program(channel, [7]).build(), Context(stack_top=STACK)
        )

    Process(system.sim, consumer(), "c").start()
    Process(system.sim, late_producer(), "p").start()
    system.run()
    assert done["t"] > 100_000
    assert b.memory.read_word(OUT) == 7


def test_push_pop_instruction_counts():
    """The section 7 claim quantified: FIFO emulation costs a dozen
    user-level instructions per operation -- same order as Table 1.
    Best case (no spinning): the consumer runs after the data arrived."""
    system, channel = make_channel()
    a, b = channel.producer, channel.consumer
    Process(
        system.sim,
        a.cpu.run_to_halt(producer_program(channel, [1]).build(),
                          Context(stack_top=STACK)),
        "prod",
    ).start()

    def late_consumer():

        yield 100_000
        yield from b.cpu.run_to_halt(
            consumer_program(channel, 1).build(), Context(stack_top=STACK)
        )

    Process(system.sim, late_consumer(), "cons").start()
    system.run()
    push = channel.producer.cpu.counts.region("fifo-push")
    pop = channel.consumer.cpu.counts.region("fifo-pop")
    assert push == 12  # no spin in the uncontended case
    assert pop == 10


@settings(max_examples=10, deadline=None)
@given(values=st.lists(st.integers(min_value=0, max_value=0xFFFFFFFF),
                       min_size=1, max_size=40))
def test_fifo_property_any_values_in_order(values):
    system, channel = make_channel()
    assert run_both(system, channel, values) == values
