"""Property-based tests of the csend/crecv protocol."""

from hypothesis import given, settings, strategies as st

from repro.cpu import Asm, Context
from repro.machine import ShrimpSystem
from repro.msg import nx2
from repro.sim import Process

STACK = 0x5F000
BUF_S = 0x58000
BUF_R = 0x5C000
TYPE = 7


@settings(max_examples=12, deadline=None)
@given(
    sizes=st.lists(
        st.integers(min_value=0, max_value=nx2.MAX_PAYLOAD // 4),
        min_size=1,
        max_size=8,
    )
)
def test_any_message_sequence_delivered_exactly(sizes):
    """Random message sizes (including empty) stream through the ring in
    order, each delivered byte-exact."""
    system = ShrimpSystem(2, 1)
    system.start()
    a, b = system.nodes
    nx2.setup_connection(system, a, b, msg_type=TYPE)

    # Lay out source messages back to back; receive each into a distinct
    # destination slot.
    send_asm = Asm("prop-sender")
    recv_asm = Asm("prop-receiver")
    offsets = []
    cursor = 0
    for i, nwords in enumerate(sizes):
        payload = [((i + 1) << 16) | k for k in range(nwords)]
        a.memory.write_words(BUF_S + cursor, payload)
        nx2.emit_csend_call(send_asm, TYPE, BUF_S + cursor, nwords * 4,
                            b.node_id)
        nx2.emit_crecv_call(recv_asm, TYPE, BUF_R + 4096 * (i % 4),
                            nx2.MAX_PAYLOAD)
        offsets.append((cursor, nwords))
        cursor += max(4, nwords * 4)
    send_asm.halt()
    nx2.emit_csend(send_asm)
    recv_asm.halt()
    nx2.emit_crecv(recv_asm)

    ctx_s = Context(stack_top=STACK)
    ctx_r = Context(stack_top=STACK)
    ps = Process(system.sim, a.cpu.run_to_halt(send_asm.build(), ctx_s),
                 "s").start()
    pr = Process(system.sim, b.cpu.run_to_halt(recv_asm.build(), ctx_r),
                 "r").start()
    system.run(max_events=30_000_000)
    assert ps.finished and pr.finished
    assert ctx_s.registers["r0"] == 0  # last csend succeeded

    # Verify through the receiver's cache (copies may be dirty).
    def flush():
        for i in range(min(len(sizes), 4)):
            yield from b.cache.flush_page(BUF_R + 4096 * i, 4096)

    Process(system.sim, flush(), "f").start()
    system.run()
    for i, (offset, nwords) in enumerate(offsets):
        if i + 4 < len(sizes) and (i % 4) == ((i + 4) % 4):
            continue  # slot reused by a later message
        expected = [((i + 1) << 16) | k for k in range(nwords)]
        got = b.memory.read_words(BUF_R + 4096 * (i % 4), nwords)
        if i >= len(sizes) - 4:  # only the final occupant of each slot
            assert got == expected
