"""Integration tests: the full SHRIMP datapath, CPU store to remote memory.

These exercise the paper's section 4 walkthrough end to end: CPU store ->
write-through cache -> Xpress bus -> NIC snoop -> NIPT lookup -> packetize
-> Outgoing FIFO -> mesh -> Incoming FIFO -> NIPT check -> EISA DMA ->
destination DRAM (with cache snoop-invalidate).
"""

from repro.sim import Process
from repro.cpu import Asm, Mem, R0, R1
from repro.machine import ShrimpSystem, mapping, next_generation
from repro.nic import MappingMode
from repro.nic.command import CommandOp, encode_command
from repro.memsys.address import PAGE_SIZE


def make_system(width=4, height=4, params_factory=None):
    if params_factory is None:
        system = ShrimpSystem(width, height)
    else:
        system = ShrimpSystem(width, height, params_factory)
    system.start()
    return system


def run_on(system, node, asm, stack_top=0x3F000):
    from repro.cpu import Context

    ctx = Context(stack_top=stack_top)
    proc = Process(
        system.sim, node.cpu.run_to_halt(asm.build(), ctx), node.name + ".prog"
    ).start()
    return proc, ctx


SRC = 0x10000  # page 16 on the source node
DST = 0x20000  # page 32 on the destination node


class TestAutomaticUpdateSingleWrite:
    def test_store_propagates_to_remote_memory(self):
        system = make_system()
        a, b = system.nodes[0], system.nodes[15]
        mapping.establish(a, SRC, b, DST, PAGE_SIZE, MappingMode.AUTO_SINGLE)
        asm = Asm("writer")
        asm.mov(Mem(disp=SRC + 64), 0xCAFE)
        asm.halt()
        run_on(system, a, asm)
        system.run()
        assert b.memory.read_word(DST + 64) == 0xCAFE
        assert b.nic.packets_delivered.value == 1

    def test_local_memory_also_updated(self):
        """Automatic update keeps a local copy: stores go to local DRAM
        (write-through) *and* propagate (PRAM-style eager sharing)."""
        system = make_system()
        a, b = system.nodes[0], system.nodes[1]
        mapping.establish(a, SRC, b, DST, PAGE_SIZE, MappingMode.AUTO_SINGLE)
        asm = Asm()
        asm.mov(Mem(disp=SRC), 7)
        asm.halt()
        run_on(system, a, asm)
        system.run()
        assert a.memory.read_word(SRC) == 7
        assert b.memory.read_word(DST) == 7

    def test_stores_arrive_in_order(self):
        system = make_system()
        a, b = system.nodes[0], system.nodes[15]
        mapping.establish(a, SRC, b, DST, PAGE_SIZE, MappingMode.AUTO_SINGLE)
        arrivals = []
        b.nic.arrival_signal  # noqa: B018 -- exists
        b.bus.add_snooper(
            lambda t: arrivals.append((t.addr, t.data[0]))
            if t.kind == "write" and t.originator == b.eisa.name
            else None
        )
        asm = Asm()
        for i in range(8):
            asm.mov(Mem(disp=SRC + 4 * i), i + 1)
        asm.halt()
        run_on(system, a, asm)
        system.run()
        assert [v for _a, v in arrivals] == [1, 2, 3, 4, 5, 6, 7, 8]
        assert b.memory.read_words(DST, 8) == [1, 2, 3, 4, 5, 6, 7, 8]

    def test_latency_under_two_microseconds(self):
        """Section 5.1: <2 us store-to-remote-memory on the EISA prototype."""
        system = make_system()
        a, b = system.nodes[0], system.nodes[15]  # corner to corner, 16 nodes
        mapping.establish(a, SRC, b, DST, PAGE_SIZE, MappingMode.AUTO_SINGLE)
        times = {}
        a.bus.add_snooper(
            lambda t: times.setdefault("store", t.time)
            if t.kind == "write" and t.addr == SRC else None
        )
        b.bus.add_snooper(
            lambda t: times.setdefault("arrive", t.time)
            if t.kind == "write" and t.addr == DST else None
        )
        asm = Asm()
        asm.mov(Mem(disp=SRC), 1)
        asm.halt()
        run_on(system, a, asm)
        system.run()
        latency = times["arrive"] - times["store"]
        assert latency < 2000, "latency %dns exceeds the paper's 2us" % latency

    def test_next_gen_latency_under_one_microsecond(self):
        """Section 5.1: bypassing EISA cuts latency below 1 us."""
        system = make_system(params_factory=next_generation)
        a, b = system.nodes[0], system.nodes[15]
        mapping.establish(a, SRC, b, DST, PAGE_SIZE, MappingMode.AUTO_SINGLE)
        times = {}
        a.bus.add_snooper(
            lambda t: times.setdefault("store", t.time)
            if t.kind == "write" and t.addr == SRC else None
        )
        b.bus.add_snooper(
            lambda t: times.setdefault("arrive", t.time)
            if t.kind == "write" and t.addr == DST else None
        )
        asm = Asm()
        asm.mov(Mem(disp=SRC), 1)
        asm.halt()
        run_on(system, a, asm)
        system.run()
        assert times["arrive"] - times["store"] < 1000

    def test_unmapped_offset_does_not_propagate(self):
        system = make_system()
        a, b = system.nodes[0], system.nodes[1]
        # Map only the first half of the page.
        mapping.establish(a, SRC, b, DST, PAGE_SIZE // 2, MappingMode.AUTO_SINGLE)
        asm = Asm()
        asm.mov(Mem(disp=SRC + PAGE_SIZE // 2), 5)  # unmapped half
        asm.mov(Mem(disp=SRC), 6)  # mapped half
        asm.halt()
        run_on(system, a, asm)
        system.run()
        assert b.memory.read_word(DST) == 6
        assert b.memory.read_word(DST + PAGE_SIZE // 2) == 0
        assert b.nic.packets_delivered.value == 1

    def test_remote_cache_snoops_incoming_data(self):
        """Destination CPU reads see incoming data even if the line was
        cached: the EISA deposit invalidates it (section 3)."""
        system = make_system()
        a, b = system.nodes[0], system.nodes[1]
        mapping.establish(a, SRC, b, DST, PAGE_SIZE, MappingMode.AUTO_SINGLE)

        read_results = []

        def reader():
            # Warm the cache with the old value.
            value = yield from b.cpu.cache.read(DST, "WB")
            read_results.append(value)
            yield 20_000  # wait for the remote store to land
            value = yield from b.cpu.cache.read(DST, "WB")
            read_results.append(value)

        Process(system.sim, reader(), "reader").start()

        asm = Asm()
        asm.mov(Mem(disp=SRC), 99)
        asm.halt()
        run_on(system, a, asm)
        system.run()
        assert read_results == [0, 99]


class TestPageSplitAndAlignment:
    def test_split_page_routes_to_two_destinations(self):
        """Section 3.2: one physical page split between two mappings."""
        system = make_system()
        a, b, c = system.nodes[0], system.nodes[1], system.nodes[2]
        half_bytes = PAGE_SIZE // 2
        mapping.establish(a, SRC, b, DST, half_bytes, MappingMode.AUTO_SINGLE)
        mapping.establish(
            a, SRC + half_bytes, c, DST, half_bytes, MappingMode.AUTO_SINGLE
        )
        asm = Asm()
        asm.mov(Mem(disp=SRC), 11)
        asm.mov(Mem(disp=SRC + half_bytes), 22)
        asm.halt()
        run_on(system, a, asm)
        system.run()
        assert b.memory.read_word(DST) == 11
        assert c.memory.read_word(DST) == 22

    def test_non_page_aligned_mapping(self):
        """A mapping whose source and destination offsets differ."""
        system = make_system()
        a, b = system.nodes[0], system.nodes[1]
        src = SRC + 1024
        dst = DST + 512
        mapping.establish(a, src, b, dst, 2048, MappingMode.AUTO_SINGLE)
        asm = Asm()
        asm.mov(Mem(disp=src + 100 * 4), 77)
        asm.halt()
        run_on(system, a, asm)
        system.run()
        assert b.memory.read_word(dst + 100 * 4) == 77

    def test_mapping_spanning_source_pages(self):
        system = make_system()
        a, b = system.nodes[0], system.nodes[1]
        src = SRC + PAGE_SIZE - 512  # spans two source pages
        mapping.establish(a, src, b, DST, 1024, MappingMode.AUTO_SINGLE)
        asm = Asm()
        asm.mov(Mem(disp=src), 1)
        asm.mov(Mem(disp=src + 768), 2)  # second source page
        asm.halt()
        run_on(system, a, asm)
        system.run()
        assert b.memory.read_word(DST) == 1
        assert b.memory.read_word(DST + 768) == 2


class TestBlockedWrite:
    def test_consecutive_writes_merge_into_one_packet(self):
        system = make_system()
        a, b = system.nodes[0], system.nodes[1]
        mapping.establish(a, SRC, b, DST, PAGE_SIZE, MappingMode.AUTO_BLOCKED)
        asm = Asm()
        for i in range(8):
            asm.mov(Mem(disp=SRC + 4 * i), i + 1)
        asm.halt()
        run_on(system, a, asm)
        system.run()
        assert b.memory.read_words(DST, 8) == list(range(1, 9))
        assert b.nic.packets_delivered.value == 1
        assert a.nic.merged_writes.value == 7

    def test_non_consecutive_write_terminates_packet(self):
        system = make_system()
        a, b = system.nodes[0], system.nodes[1]
        mapping.establish(a, SRC, b, DST, PAGE_SIZE, MappingMode.AUTO_BLOCKED)
        asm = Asm()
        asm.mov(Mem(disp=SRC), 1)
        asm.mov(Mem(disp=SRC + 4), 2)
        asm.mov(Mem(disp=SRC + 64), 3)  # gap: new packet
        asm.halt()
        run_on(system, a, asm)
        system.run()
        assert b.nic.packets_delivered.value == 2
        assert b.memory.read_word(DST + 64) == 3

    def test_window_expiry_flushes(self):
        system = make_system()
        a, b = system.nodes[0], system.nodes[1]
        mapping.establish(a, SRC, b, DST, PAGE_SIZE, MappingMode.AUTO_BLOCKED)

        def writer():
            yield from a.cpu.cache.write(SRC, 5, "WT")
            # No further writes: the programmable time limit should flush.

        Process(system.sim, writer(), "w").start()
        system.run()
        assert b.memory.read_word(DST) == 5

    def test_writes_far_apart_in_time_do_not_merge(self):
        system = make_system()
        a, b = system.nodes[0], system.nodes[1]
        mapping.establish(a, SRC, b, DST, PAGE_SIZE, MappingMode.AUTO_BLOCKED)
        window = system.params.nic.blocked_write_window_ns

        def writer():
            yield from a.cpu.cache.write(SRC, 1, "WT")
            yield window * 3
            yield from a.cpu.cache.write(SRC + 4, 2, "WT")

        Process(system.sim, writer(), "w").start()
        system.run()
        assert b.nic.packets_delivered.value == 2

    def test_mode_switch_via_command_page(self):
        """Section 4.2: command memory can switch a page between single-
        and blocked-write mode from user level."""
        system = make_system()
        a, b = system.nodes[0], system.nodes[1]
        mapping.establish(a, SRC, b, DST, PAGE_SIZE, MappingMode.AUTO_SINGLE)
        cmd = a.command_addr(SRC)
        asm = Asm()
        asm.mov(Mem(disp=cmd), encode_command(CommandOp.SET_MODE_BLOCKED))
        for i in range(4):
            asm.mov(Mem(disp=SRC + 4 * i), i + 1)
        asm.halt()
        run_on(system, a, asm)
        system.run()
        assert b.memory.read_words(DST, 4) == [1, 2, 3, 4]
        assert b.nic.packets_delivered.value == 1  # merged

    def test_merge_respects_dest_page_boundary(self):
        system = make_system()
        a, b = system.nodes[0], system.nodes[1]
        # Destination offset 512 bytes before a page boundary.
        src = SRC
        dst = DST + PAGE_SIZE - 16
        mapping.establish(a, src, b, dst, 64, MappingMode.AUTO_BLOCKED)
        asm = Asm()
        for i in range(8):
            asm.mov(Mem(disp=src + 4 * i), i + 1)
        asm.halt()
        run_on(system, a, asm)
        system.run()
        # 4 words fit before the boundary, 4 after: two packets.
        assert b.nic.packets_delivered.value == 2
        assert b.memory.read_words(dst, 4) == [1, 2, 3, 4]
        assert b.memory.read_words(dst + 16, 4) == [5, 6, 7, 8]


class TestDeliberateUpdate:
    def _arm_program(self, node, src, nwords):
        """The paper's initiation sequence: clear the accumulator, load n,
        CMPXCHG the command address until zero is returned (section 4.3)."""
        cmd = node.command_addr(src)
        asm = Asm("deliberate-send")
        asm.mov(R1, nwords)
        asm.label("retry")
        asm.mov(R0, 0)
        asm.cmpxchg(Mem(disp=cmd), R1)
        asm.jnz("retry")
        asm.halt()
        return asm

    def test_no_transfer_until_send_command(self):
        system = make_system()
        a, b = system.nodes[0], system.nodes[1]
        mapping.establish(a, SRC, b, DST, PAGE_SIZE, MappingMode.DELIBERATE)
        asm = Asm()
        for i in range(4):
            asm.mov(Mem(disp=SRC + 4 * i), i + 1)
        asm.halt()
        run_on(system, a, asm)
        system.run()
        assert b.nic.packets_delivered.value == 0
        assert b.memory.read_word(DST) == 0
        assert a.memory.read_word(SRC) == 1  # local memory is current

    def test_explicit_send_transfers_block(self):
        system = make_system()
        a, b = system.nodes[0], system.nodes[1]
        mapping.establish(a, SRC, b, DST, PAGE_SIZE, MappingMode.DELIBERATE)
        data = list(range(1, 129))
        a.memory.write_words(SRC, data)
        run_on(system, a, self._arm_program(a, SRC, 128))
        system.run()
        assert b.memory.read_words(DST, 128) == data

    def test_status_read_reports_remaining_words(self):
        system = make_system()
        a, b = system.nodes[0], system.nodes[1]
        mapping.establish(a, SRC, b, DST, PAGE_SIZE, MappingMode.DELIBERATE)
        a.memory.write_words(SRC, [1] * 1024)
        cmd = a.command_addr(SRC)
        statuses = []

        def driver():
            # Arm a full-page transfer directly.
            _old, swapped = yield from a.bus.cmpxchg(cmd, 0, 1024, "cpu")
            assert swapped
            yield 2000
            status = yield from a.bus.read(cmd, 1, "cpu")
            statuses.append(status[0])

        Process(system.sim, driver(), "drv").start()
        system.run()
        status = statuses[0]
        assert status != 0
        assert status & 1 == 1  # base matches the address we queried
        assert 0 < (status >> 1) <= 1024

    def test_busy_engine_rejects_then_retry_succeeds(self):
        system = make_system()
        a, b = system.nodes[0], system.nodes[1]
        mapping.establish(a, SRC, b, DST, 2 * PAGE_SIZE, MappingMode.DELIBERATE)
        a.memory.write_words(SRC, [11] * 1024)
        a.memory.write_words(SRC + PAGE_SIZE, [22] * 1024)
        # Arm the first page, then spin-retry the second: the engine is
        # busy, the CMPXCHG fails (nonzero status), and eventually wins.
        cmd1 = a.command_addr(SRC)
        asm = self._arm_program(a, SRC + PAGE_SIZE, 1024)

        def arm_first():
            _old, swapped = yield from a.bus.cmpxchg(cmd1, 0, 1024, "cpu")
            assert swapped

        Process(system.sim, arm_first(), "arm1").start()
        proc, _ctx = run_on(system, a, asm)
        system.run()
        assert proc.finished
        assert b.memory.read_words(DST, 1024) == [11] * 1024
        assert b.memory.read_words(DST + PAGE_SIZE, 1024) == [22] * 1024
        assert a.nic.dma_engine.transfers.value == 2

    def test_command_crossing_page_rejected(self):
        system = make_system()
        a, b = system.nodes[0], system.nodes[1]
        mapping.establish(a, SRC, b, DST, 2 * PAGE_SIZE, MappingMode.DELIBERATE)
        base = SRC + PAGE_SIZE - 8  # 2 words before the boundary

        def driver():
            _old, swapped = yield from a.bus.cmpxchg(
                a.command_addr(base), 0, 16, "cpu"
            )
            # The write cycle happens (engine was idle) but the engine
            # drops the invalid command.
            assert swapped

        Process(system.sim, driver(), "drv").start()
        system.run()
        assert a.nic.dma_engine.rejected_commands.value == 1
        assert b.nic.packets_delivered.value == 0

    def test_deliberate_command_on_auto_page_rejected(self):
        system = make_system()
        a, b = system.nodes[0], system.nodes[1]
        mapping.establish(a, SRC, b, DST, PAGE_SIZE, MappingMode.AUTO_SINGLE)

        def driver():
            yield from a.bus.cmpxchg(a.command_addr(SRC), 0, 8, "cpu")

        Process(system.sim, driver(), "drv").start()
        system.run()
        assert a.nic.dma_engine.rejected_commands.value == 1

    def test_check_completion_costs_one_read(self):
        """Section 4.3: 'a single read cycle allows an application to
        determine whether a transfer it initiated is complete'."""
        system = make_system()
        a, b = system.nodes[0], system.nodes[1]
        mapping.establish(a, SRC, b, DST, PAGE_SIZE, MappingMode.DELIBERATE)
        a.memory.write_words(SRC, [5] * 64)
        cmd = a.command_addr(SRC)
        log = []

        def driver():
            yield from a.bus.cmpxchg(cmd, 0, 64, "cpu")
            # Poll completion.
            while True:
                status = yield from a.bus.read(cmd, 1, "cpu")
                if status[0] == 0:
                    log.append(system.sim.now)
                    return
                yield 500

        Process(system.sim, driver(), "drv").start()
        system.run()
        assert log  # completed
        assert b.memory.read_words(DST, 64) == [5] * 64
