"""Checkpoint/restore + deterministic replay (``repro.ckpt``).

The load-bearing assertion is *exactness*: a run paused at a safepoint,
serialized to disk, restored in a fresh system and resumed must be
bit-for-bit indistinguishable from the uninterrupted run -- same golden
simulated time, same metric snapshot, same memory image, same executed
event count.  The golden values are anchored to the independently pinned
``tests/test_golden_trace.py``.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.ckpt import (
    CkptError,
    CkptFormatError,
    CkptIntegrityError,
    CkptVersionError,
    SafepointError,
)
from repro.ckpt import fmt
from repro.ckpt.codec import (
    decode_context,
    decode_instruction,
    decode_program,
    encode_context,
    encode_instruction,
    encode_program,
)
from repro.ckpt.divergence import diff_fingerprints, fingerprint, verify_replay
from repro.ckpt.safepoint import (
    check_node_quiescent,
    check_safepoint,
    classify_entries,
    classify_node_entries,
    seek_safepoint,
)
from repro.ckpt.system import SystemCheckpoint
from repro.cpu import Asm, Context, Mem, R1, R2
from repro.machine.system import ShrimpSystem
from repro.scenarios import (
    CHECKPOINTABLE,
    build,
    build_blocked_stream,
    build_contention,
    build_ping_pong,
)
from repro.sim.process import Process

from tests.test_golden_trace import GOLDEN

PING_PONG_GOLDEN_NS = GOLDEN["ping_pong"]["now"]


def _paused_ping_pong(until=20_000):
    system = build_ping_pong()
    system.run(until=until)
    seek_safepoint(system)
    return system


# -- the replay-divergence detector: restore exactness ------------------------


def test_resume_matches_uninterrupted_run_bit_for_bit():
    reference = build_ping_pong()
    reference.run()
    assert reference.sim.now == PING_PONG_GOLDEN_NS  # anchored to the golden

    paused = _paused_ping_pong()
    assert paused.sim.now < PING_PONG_GOLDEN_NS  # genuinely mid-flight
    state = SystemCheckpoint.capture(paused)

    resumed = SystemCheckpoint.restore(state)
    assert resumed.sim.now == paused.sim.now
    resumed.run()

    assert diff_fingerprints(fingerprint(reference), fingerprint(resumed)) == []
    assert resumed.sim.now == PING_PONG_GOLDEN_NS
    a, b = resumed.nodes
    assert a.nic.packets_delivered.value == GOLDEN["ping_pong"]["packets_delivered_a"]
    assert b.nic.packets_delivered.value == GOLDEN["ping_pong"]["packets_delivered_b"]


def test_restore_twice_is_deterministic():
    state = SystemCheckpoint.capture(_paused_ping_pong())
    assert verify_replay(state) == []


def test_resume_through_disk_round_trip(tmp_path):
    reference = build_ping_pong()
    reference.run()

    paused = _paused_ping_pong()
    path = tmp_path / "pp.ckpt"
    SystemCheckpoint.save(paused, str(path))

    resumed = SystemCheckpoint.load(str(path))
    resumed.run()
    assert diff_fingerprints(fingerprint(reference), fingerprint(resumed)) == []


def test_merge_window_descriptor_restores_exactly():
    """A safepoint with an *open* blocked-write merge window replays: the
    flush timer is re-created as a descriptor and fires on schedule."""
    reference = build_blocked_stream()
    reference.run()

    paused = build_blocked_stream()
    paused.run(until=200)
    seek_safepoint(paused)
    state = SystemCheckpoint.capture(paused)
    assert any(d["kind"] == "merge" for d in state["descriptors"])

    resumed = SystemCheckpoint.restore(state)
    resumed.run()
    assert diff_fingerprints(fingerprint(reference), fingerprint(resumed)) == []
    assert resumed.nodes[1].nic.words_delivered.value == 64


def test_completed_run_checkpoint_round_trips():
    """A drained run is trivially a safepoint; restoring it reproduces the
    final machine (memory image, metrics, finished workers).  The 48-word
    storm keeps all 15 senders' worms contending for the hot node."""
    for words_per_sender in (8, 48):
        reference = build_contention(words_per_sender=words_per_sender)
        reference.run()
        assert (reference.nodes[15].nic.words_delivered.value
                == 15 * words_per_sender)
        state = SystemCheckpoint.capture(reference)
        assert state["descriptors"] == []
        restored = SystemCheckpoint.restore(state)
        assert diff_fingerprints(fingerprint(reference),
                                 fingerprint(restored)) == []
        assert all(worker.finished for worker in restored.ckpt_workers)
        restored.run()  # resuming a finished run is a no-op
        assert restored.sim.now == reference.sim.now


def test_fork_is_independent_of_the_original():
    paused = _paused_ping_pong()
    fork = SystemCheckpoint.fork(paused)

    fork.run()
    assert fork.sim.now == PING_PONG_GOLDEN_NS
    # The original is untouched by the fork's completion...
    assert paused.sim.now < PING_PONG_GOLDEN_NS
    # ...and scribbling on the fork's memory cannot reach the original.
    fork.nodes[0].memory.write_word(0x3_0000, 0xDEAD)
    assert paused.nodes[0].memory.read_word(0x3_0000) != 0xDEAD
    paused.run()
    assert paused.sim.now == PING_PONG_GOLDEN_NS


# -- folded spin loops ---------------------------------------------------------


def _paused_mid_fold(until):
    """ping_pong paused at the first safepoint from ``until`` on at which
    a worker sits in a folded spin loop."""
    system = build_ping_pong()
    system.run(until=until)
    while True:
        seek_safepoint(system)
        parked = [
            worker for worker in system.ckpt_workers
            if system.nodes[worker.node_id].cpu.spin_state(worker.process)
            == "parked"
        ]
        if parked:
            return system, parked
        system.sim.step()


@pytest.mark.parametrize("until", [5_000, 20_000, 33_333])
def test_capture_mid_fold_restores_inside_the_loop(until):
    """A capture taken while a spin is folded settles its counts, records
    a pc inside the loop, re-parks on restore, and both the restored run
    and the captured original end exactly as the uninterrupted run --
    event count included."""
    reference = build_ping_pong()
    reference.run()
    expected = fingerprint(reference)

    paused, parked = _paused_mid_fold(until)
    state = SystemCheckpoint.capture(paused)
    for worker in parked:
        index = paused.ckpt_workers.index(worker)
        (spin,) = worker.program.spins.values()
        pc = state["workers"][index]["context"]["pc"]
        assert spin.head <= pc <= spin.branch

    restored = SystemCheckpoint.restore(state)
    for worker in parked:
        index = paused.ckpt_workers.index(worker)
        again = restored.ckpt_workers[index]
        cpu = restored.nodes[again.node_id].cpu
        assert cpu.spin_state(again.process) == "parked"
    assert SystemCheckpoint.capture(restored) == state
    restored.run()
    assert diff_fingerprints(expected, fingerprint(restored)) == []

    paused.run()  # the capture did not perturb the original
    assert diff_fingerprints(expected, fingerprint(paused)) == []


# -- safepoints ---------------------------------------------------------------


def test_mid_transaction_instant_is_not_a_safepoint():
    """Pausing at an arbitrary instant mid-run generally fails the
    predicate with a nameable obstacle, and capture refuses loudly."""
    system = build_ping_pong()
    system.run(until=2_000)
    reasons = set()
    while check_safepoint(system) is not None:
        reasons.add(check_safepoint(system))
        if not system.sim.step():
            break
    assert reasons  # at least one instant between t=2000 and the first
    # safepoint was rejected, with a human-readable reason
    assert all(isinstance(reason, str) and reason for reason in reasons)


def _entry_seqs(system):
    """Descriptor key -> queue sequence number, for every worker resume
    and merge flush timer in the queue."""
    callbacks = {}
    for index, worker in enumerate(system.ckpt_workers):
        if worker.process is not None and not worker.process.finished:
            callbacks[worker.process._resume] = ("worker", index)
    flushes = {id(node.nic._merge.flush_event): ("merge", node.node_id)
               for node in system.nodes if node.nic._merge is not None}
    seqs = {}
    for entry in system.sim.live_entries():
        key = callbacks.get(entry[2]) or flushes.get(id(entry))
        if key is not None:
            seqs[key] = entry[1]
    return seqs


def _merged_node_descriptors(system):
    """Every node's own descriptors merged in queue order; the workers
    parked in a folded spin own no entry and follow, by worker index."""
    seqs = _entry_seqs(system)
    queued, folded = [], []
    for node in system.nodes:
        descriptors, reason = classify_node_entries(system, node.node_id)
        assert reason is None
        for descriptor in descriptors:
            key = (descriptor["kind"],
                   descriptor.get("index", descriptor.get("node")))
            if key in seqs:
                queued.append((seqs[key], descriptor))
            else:
                folded.append((descriptor["index"], descriptor))
    def in_order(pairs):
        return [descriptor for _, descriptor in
                sorted(pairs, key=lambda pair: pair[0])]
    return in_order(queued) + in_order(folded)


@pytest.mark.parametrize("name", CHECKPOINTABLE)
def test_a_safepoint_is_every_node_quiescent(name):
    """At every instant of each checkpointable run, a whole-machine
    safepoint is also a per-node quiescent instant on every node, and its
    descriptors are the per-node descriptors merged in queue order, with
    the folded spins last; none is due before now."""
    system = build(name)
    safepoints = 0
    while True:
        if check_safepoint(system) is None:
            safepoints += 1
            for node in system.nodes:
                assert check_node_quiescent(system, node.node_id) is None
            descriptors, reason = classify_entries(system)
            assert reason is None
            assert descriptors == _merged_node_descriptors(system)
            assert all(d["due"] >= system.sim.now for d in descriptors)
        if not system.sim.step():
            break
    assert safepoints >= 1


def test_capture_refuses_outside_safepoint():
    system = build_ping_pong()
    system.run(until=2_000)
    if check_safepoint(system) is not None:
        with pytest.raises(SafepointError):
            SystemCheckpoint.capture(system)


def test_unregistered_process_blocks_checkpointing():
    """A bare Process (not a CpuWorker) is unclassifiable: its pending
    events keep every instant from being a safepoint."""
    system = build_ping_pong()

    def rogue():
        while True:
            yield 1_000

    Process(system.sim, rogue(), "rogue").start()
    with pytest.raises(SafepointError):
        seek_safepoint(system, max_events=50_000)


def test_an_os_kernel_blocks_checkpointing():
    """A node with a kernel is never quiescent, even once its processes
    have finished: a node's capture holds no kernel tables, so the
    checkpoint refuses rather than drop them (docs/checkpoint.md)."""
    from repro.machine.cluster import Cluster
    from repro.msg import single_buffer
    from repro.msg.layout import PairLayout
    from repro.msg.os_channels import OsMessagingPair

    def sender_body(asm):
        asm.mov(Mem(disp=PairLayout.priv(PairLayout.P_SIZE)), 4)
        asm.mov(Mem(disp=PairLayout.SBUF0), 7)
        single_buffer.emit_send(asm)

    cluster = Cluster(2, 1)
    sender, receiver = OsMessagingPair(cluster).build(
        sender_body, single_buffer.emit_recv)
    cluster.start()
    cluster.run()
    assert sender.state == receiver.state == "finished"
    for node_id, node in enumerate(cluster.nodes):
        assert check_node_quiescent(cluster.system, node_id) == (
            "node %s has an OS kernel installed (live OS runs are not "
            "checkpointable; see docs/checkpoint.md)" % node.name)
    with pytest.raises(CkptError, match="has an OS kernel installed"):
        SystemCheckpoint.capture(cluster.system)


def test_seek_safepoint_returns_zero_at_rest():
    system = build_ping_pong()
    system.run()
    assert seek_safepoint(system) == 0


def test_seek_safepoint_exhaustion_names_obstacle_and_time():
    """Budget exhaustion must say WHAT blocked and WHEN the search stopped
    (the system-wide path used to drop both)."""
    system = build_ping_pong()

    def rogue():
        while True:
            yield 1_000

    Process(system.sim, rogue(), "rogue").start()
    with pytest.raises(SafepointError) as excinfo:
        seek_safepoint(system, max_events=1_000)
    err = excinfo.value
    assert isinstance(err.obstacle, str) and err.obstacle
    assert err.sim_time == system.sim.now
    assert err.stepped == 1_000
    message = str(err)
    assert ("t=%d" % system.sim.now) in message
    assert err.obstacle in message


def test_cli_save_honors_max_events_budget(tmp_path, capsys):
    from repro.ckpt.__main__ import main

    path = str(tmp_path / "never.ckpt")
    # A zero-event budget at t=15000 (mid-flight, not a safepoint) must
    # fail cleanly through the CLI instead of stepping a million events.
    rc = main(["save", "ping_pong", path, "--until", "15000",
               "--max-events", "0"])
    assert rc == 1
    captured = capsys.readouterr()
    assert "blocking" in captured.err + captured.out


# -- the on-disk format: versioning, checksums, hard failures -----------------


def _valid_document():
    system = _paused_ping_pong()
    return json.loads(fmt.dumps(SystemCheckpoint.capture(system), system.sim.now))


def test_corrupted_payload_fails_with_integrity_error(tmp_path):
    document = _valid_document()
    document["state"]["width"] = 3  # single-field bit flip
    with pytest.raises(CkptIntegrityError):
        fmt.loads(json.dumps(document))


def test_version_mismatch_fails_with_version_error():
    document = _valid_document()
    document["version"] = 99
    with pytest.raises(CkptVersionError):
        fmt.loads(json.dumps(document))


def test_truncated_file_fails_with_format_error():
    text = fmt.dumps({"anything": 1}, 0)
    with pytest.raises(CkptFormatError):
        fmt.loads(text[: len(text) // 2])


def test_non_checkpoint_json_fails_with_format_error():
    with pytest.raises(CkptFormatError):
        fmt.loads(json.dumps({"magic": "something-else", "version": 1}))
    with pytest.raises(CkptFormatError):
        fmt.loads(json.dumps([1, 2, 3]))


def test_missing_file_fails_with_format_error(tmp_path):
    with pytest.raises(CkptFormatError):
        fmt.load(str(tmp_path / "nope.ckpt"))


def test_binary_corruption_fails_with_format_error(tmp_path):
    path = tmp_path / "bin.ckpt"
    fmt.save({"anything": 1}, 0, str(path))
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0xFF  # no longer valid UTF-8, let alone JSON
    path.write_bytes(bytes(data))
    with pytest.raises(CkptFormatError):
        fmt.load(str(path))


def test_unknown_config_fails_with_ckpt_error():
    state = SystemCheckpoint.capture(_paused_ping_pong())
    state["config"] = "vaporware"
    from repro.ckpt import CkptError

    with pytest.raises(CkptError):
        SystemCheckpoint.restore(state)


# -- the CLI ------------------------------------------------------------------


def test_cli_save_info_resume_verify(tmp_path, capsys):
    from repro.ckpt.__main__ import main

    path = str(tmp_path / "cli.ckpt")
    assert main(["save", "ping_pong", path, "--until", "15000"]) == 0
    assert main(["info", path]) == 0
    assert main(["resume", path]) == 0
    assert main(["verify", path]) == 0
    out = capsys.readouterr().out
    assert "repro-ckpt v1" in out
    assert "bit-for-bit identical" in out


def test_cli_save_takes_a_pin_key(tmp_path, capsys):
    from repro.ckpt.__main__ import main

    path = str(tmp_path / "pp2.ckpt")
    assert main(["save", "ping_pong@rounds=2", path]) == 0
    assert "scenario=ping_pong@rounds=2" in capsys.readouterr().out
    assert main(["resume", path]) == 0


@pytest.mark.parametrize("key,message", [
    ("dsm", "cannot be checkpointed"),
    ("ping_pong@rounds", "malformed scenario key"),
    ("ping_pong@bogus=1", "unexpected keyword"),
])
def test_cli_save_rejects_a_bad_key_as_a_usage_error(tmp_path, capsys, key,
                                                     message):
    from repro.ckpt.__main__ import main

    path = tmp_path / "bad.ckpt"
    assert main(["save", key, str(path)]) == 2
    assert message in capsys.readouterr().err
    assert not path.exists()


def test_cli_diff_localizes_changes(tmp_path, capsys):
    from repro.ckpt.__main__ import main

    path_a = str(tmp_path / "a.ckpt")
    path_b = str(tmp_path / "b.ckpt")
    assert main(["save", "blocked_stream", path_a]) == 0
    assert main(["save", "blocked_stream", path_b, "--until", "500"]) == 0
    assert main(["diff", path_a, path_a]) == 0
    assert main(["diff", path_a, path_b]) == 1
    assert "state." in capsys.readouterr().out


def test_cli_corrupted_file_exits_nonzero(tmp_path, capsys):
    from repro.ckpt.__main__ import main

    path = str(tmp_path / "c.ckpt")
    assert main(["save", "blocked_stream", path]) == 0
    with open(path) as handle:
        document = json.load(handle)
    document["state"]["sim"]["now"] += 1
    with open(path, "w") as handle:
        json.dump(document, handle)
    assert main(["info", path]) == 1
    assert main(["resume", path]) == 1


# -- codec round trips --------------------------------------------------------


def test_program_codec_is_identity():
    system = build_ping_pong()
    for worker in system.ckpt_workers:
        encoded = encode_program(worker.program)
        decoded = decode_program(json.loads(json.dumps(encoded)))
        assert encode_program(decoded) == encoded


# One operand of each shape the ISA decodes.
_SHAPES = {
    "reg": R1,
    "imm": 0x12345678,
    "absolute": Mem(disp=0x2000),
    "indexed": Mem(base=R2, disp=-8),
}
_MEM = ("absolute", "indexed")


def _every_instruction_form():
    """``(id, Asm method name, operands)`` for every mnemonic and every
    operand shape it accepts."""
    cases = []
    two_op = ("mov", "add", "sub", "and_", "or_", "xor", "shl", "shr",
              "cmp", "test")
    for name in two_op:
        for dst in ("reg",) + _MEM:
            for src in _SHAPES:
                if not (dst in _MEM and src in _MEM):
                    cases.append((name, (dst, src)))
    for name in ("inc", "dec"):
        cases += [(name, (dst,)) for dst in ("reg",) + _MEM]
    cases += [("lea", ("reg", src)) for src in _MEM]
    cases += [("cmpxchg", (dst, "reg")) for dst in _MEM]
    cases += [("push", ("reg",)), ("push", ("imm",)), ("pop", ("reg",))]
    labelled = ("jmp", "jz", "jnz", "jl", "jge", "jle", "jg", "call")
    bare = ("ret", "rep_movs", "nop", "halt")
    return (
        [pytest.param(name, [_SHAPES[s] for s in shapes],
                      id="%s-%s" % (name, ",".join(shapes)))
         for name, shapes in cases]
        + [pytest.param(name, ["top"], id=name) for name in labelled]
        + [pytest.param(name, [], id=name) for name in bare]
        + [pytest.param("syscall", [3], id="syscall"),
           pytest.param("region_begin", ["r"], id="region_begin"),
           pytest.param("region_end", ["r"], id="region_end")]
    )


@pytest.mark.parametrize("method, operands", _every_instruction_form())
def test_instruction_codec_round_trips_every_form(method, operands):
    asm = Asm().label("top")
    getattr(asm, method)(*operands)
    instr = asm.build().code[0]
    encoded = encode_instruction(instr)
    decoded = decode_instruction(json.loads(json.dumps(encoded)))
    assert encode_instruction(decoded) == encoded
    assert decoded.mnemonic == instr.mnemonic
    assert type(decoded) is type(instr)  # the same operand-form class
    assert repr(decoded) == repr(instr)


@given(
    regs=st.lists(st.integers(min_value=0, max_value=0xFFFFFFFF),
                  min_size=6, max_size=6),
    flags=st.tuples(st.booleans(), st.booleans()),
    pc=st.integers(min_value=0, max_value=1 << 20),
    halted=st.booleans(),
)
@settings(max_examples=50, deadline=None)
def test_context_codec_is_identity(regs, flags, pc, halted):
    context = Context()
    context.reg_values[:] = regs[: len(context.reg_values)] + context.reg_values[len(regs):]
    context.flags["zf"], context.flags["sf"] = flags
    context.pc = pc
    context.halted = halted
    encoded = encode_context(context)
    assert encode_context(decode_context(json.loads(json.dumps(encoded)))) == encoded


# -- component refusals -------------------------------------------------------


def _run_until_locked(sim, mutex, transfer):
    """Start ``transfer`` and step the engine until ``mutex`` is held."""
    Process(sim, transfer, "transfer").start()
    while not mutex.locked:
        assert sim.step()


def _bus_mid_transaction():
    node = ShrimpSystem(2, 1).nodes[0]
    _run_until_locked(node.sim, node.bus._mutex,
                      node.bus.read(0x100, 4, "test"))
    node.bus.ckpt_capture()


def _eisa_mid_burst():
    node = ShrimpSystem(2, 1).nodes[0]
    _run_until_locked(node.sim, node.eisa._mutex,
                      node.eisa.dma_write(0x100, [1, 2, 3]))
    node.eisa.ckpt_capture()


def _dma_busy():
    dma = ShrimpSystem(2, 1).nodes[0].nic.dma_engine
    dma.busy = True
    dma.ckpt_capture()


def _queue_not_empty():
    nic = ShrimpSystem(2, 1).nodes[0].nic
    nic.kernel_inbox.try_put("packet")
    nic.ckpt_capture()


def _restore_with_events_pending():
    sim = ShrimpSystem(2, 1).sim
    state = sim.ckpt_capture()
    sim.schedule(10, lambda: None)
    sim.ckpt_restore(state)


def _node_count_mismatch():
    ShrimpSystem(3, 1).ckpt_restore(ShrimpSystem(2, 1).ckpt_capture())


def _dram_size_mismatch():
    from repro.memsys.physmem import PhysicalMemory

    PhysicalMemory(4096).ckpt_restore(PhysicalMemory(8192).ckpt_capture())


@pytest.mark.parametrize("refused, message", [
    (_bus_mid_transaction, "bus node0.bus has a transaction in flight"),
    (_eisa_mid_burst, "EISA channel node0.eisa has a burst in flight"),
    (_dma_busy, "node0.nic DMA engine busy at capture"),
    (_queue_not_empty, "queue node0.nic.kernel_inbox holds 1 items"),
    (_restore_with_events_pending,
     "cannot restore a simulator clock with 1 events pending"),
    (_node_count_mismatch, "checkpoint has 2 nodes, system has 3"),
    (_dram_size_mismatch,
     "memory size mismatch: checkpoint has 8192 bytes, node has 4096"),
], ids=lambda value: getattr(value, "__name__", "")[1:] or None)
def test_component_refuses_an_inexact_checkpoint(refused, message):
    with pytest.raises(CkptError, match=message):
        refused()


# -- capture -> restore -> capture is a fixed point ---------------------------


def _fixed_point(twin, state):
    """Restore ``state``, through JSON, into the freshly built ``twin`` and
    re-capture.  A key restore never reads leaves the twin's default
    behind, so the two captures differ."""
    state = json.loads(json.dumps(state))
    twin.ckpt_restore(state)
    assert twin.ckpt_capture() == state


def _mid_run_link_pair():
    """A link holding flits and future frees mid-storm, and the same link
    of a fresh twin."""
    system = build_contention(words_per_sender=48)
    system.run(until=3_000)
    twin = build_contention(words_per_sender=48)
    for link, twin_link in zip(system.backplane.iter_links(),
                               twin.backplane.iter_links()):
        if link.runs and link._frees:
            return system, twin, link, twin_link
    raise AssertionError("no link holds flits and frees at t=3000")


def _cpu_pair():
    system, parked = _paused_mid_fold(5_000)
    node_id = parked[0].node_id
    return system.nodes[node_id].cpu, build_ping_pong().nodes[node_id].cpu


def _nic_pair():
    system = build_blocked_stream()
    system.run(until=200)
    seek_safepoint(system)
    node = next(node for node in system.nodes if node.nic._merge is not None)
    return node.nic, build_blocked_stream().nodes[node.node_id].nic


def _nipt_pair():
    from repro.nic.nipt import Nipt

    # ping_pong maps its pages while it builds, so the twin is a bare
    # table; the arrival-interrupt and DSM bits are set here.
    nipt = _paused_ping_pong().nodes[0].nic.nipt
    nipt.entry(3).interrupt_on_arrival = True
    nipt.set_dsm_resident(5, True)
    return nipt, Nipt(len(nipt))


def _node_part_pair(part):
    return lambda: (getattr(_paused_ping_pong().nodes[0], part),
                    getattr(build_ping_pong().nodes[0], part))


def _link_pair():
    _, _, link, twin_link = _mid_run_link_pair()
    return link, twin_link


def _backplane_pair():
    system, twin, _, _ = _mid_run_link_pair()
    return system.backplane, twin.backplane


def _instrumentation_pair():
    return (_paused_ping_pong().instrumentation,
            build_ping_pong().instrumentation)


# Every class that overrides the walker, built with state a fresh twin
# does not have: a parked fold, an open merge, buffered flits...
_OVERRIDES = {
    "Cpu": _cpu_pair,
    "NetworkInterface": _nic_pair,
    "Cache": _node_part_pair("cache"),
    "PhysicalMemory": _node_part_pair("memory"),
    "Nipt": _nipt_pair,
    "Link": _link_pair,
    "Backplane": _backplane_pair,
    "Instrumentation": _instrumentation_pair,
}


@pytest.mark.parametrize("name", sorted(_OVERRIDES))
def test_override_restores_into_a_fresh_twin(name):
    component, twin = _OVERRIDES[name]()
    assert type(component).__name__ == name
    state = json.loads(json.dumps(component.ckpt_capture()))
    assert twin.ckpt_capture() != state  # the state is not the default
    twin.ckpt_restore(state)
    merge = state.get("merge")
    if merge is not None:
        # SystemCheckpoint re-arms the flush timer a capture requires.
        twin.ckpt_attach_flush(twin.sim.schedule(
            merge["flush_due"] - twin.sim.now, lambda: None))
    assert twin.ckpt_capture() == state


def test_restore_keeps_idle_series_on_the_shared_empty_tuple():
    """An unsampled time series is the shared empty tuple, also after a
    whole-system restore: no restored node builds a list per series."""
    restored = SystemCheckpoint.restore(
        SystemCheckpoint.capture(_paused_ping_pong()))
    hub = restored.instrumentation
    series = [hub.get(name) for name in hub.names()
              if hub.kind(name) == "timeseries"]
    assert series
    assert all(type(one.samples) is tuple and not one.samples
               for one in series)


@given(stores=st.lists(
    st.tuples(st.integers(min_value=0, max_value=4095),
              st.integers(min_value=0, max_value=0xFFFFFFFF)),
    max_size=32,
))
@settings(max_examples=25, deadline=None)
def test_physical_memory_round_trip_fixed_point(stores):
    from repro.memsys.physmem import PhysicalMemory
    from repro.sim.instrument import Histogram

    memory = PhysicalMemory(64 * 1024)
    for word_index, value in stores:
        memory.write_word(word_index * 4, value)
    state = memory.ckpt_capture()
    _fixed_point(PhysicalMemory(64 * 1024), state)
    other = PhysicalMemory(64 * 1024)
    other.ckpt_restore(json.loads(json.dumps(state)))
    assert other.dump_bytes(0, 64 * 1024) == memory.dump_bytes(0, 64 * 1024)

    # The stored values as a histogram's observations: its count, total,
    # min, max and bucket map survive the round trip into a fresh one.
    histogram = Histogram()
    for _word_index, value in stores:
        histogram.observe(value)
    _fixed_point(Histogram(), json.loads(json.dumps(histogram.ckpt_capture())))


@given(halves=st.lists(
    st.tuples(st.integers(min_value=0, max_value=15),    # page
              st.integers(min_value=0, max_value=63),    # start word
              st.integers(min_value=1, max_value=64),    # words
              st.integers(min_value=0, max_value=15),    # dest node
              st.sampled_from(["auto-single", "auto-blocked", "deliberate"])),
    max_size=16,
))
@settings(max_examples=25, deadline=None)
def test_nipt_round_trip_fixed_point(halves):
    from repro.nic.nipt import MappingMode, Nipt, OutgoingHalf

    modes = {
        "auto-single": MappingMode.AUTO_SINGLE,
        "auto-blocked": MappingMode.AUTO_BLOCKED,
        "deliberate": MappingMode.DELIBERATE,
    }
    nipt = Nipt(16)
    for page, start, words, dest, mode in halves:
        src_start = start * 4
        src_end = min(src_start + words * 4, 4096)
        try:
            nipt.entry(page).add_half(OutgoingHalf(
                src_start=src_start, src_end=src_end, dest_node=dest,
                dest_addr=0x100000 + page * 4096 + src_start,
                mode=modes[mode],
            ))
        except Exception:
            continue  # overlapping halves are rejected by the NIPT itself
    _fixed_point(Nipt(16), nipt.ckpt_capture())


@pytest.mark.slow
@given(
    words=st.integers(min_value=4, max_value=96),
    until=st.integers(min_value=50, max_value=4_000),
)
@settings(max_examples=15, deadline=None)
def test_whole_system_capture_is_a_fixed_point_of_restore(words, until):
    """For a random blocked-write stream paused at a random instant:
    capture(restore(state)) == state, byte for byte -- and the resumed run
    matches the uninterrupted one."""
    reference = build_blocked_stream(words=words)
    reference.run()
    if until > reference.sim.now:
        # run(until) past the natural end only advances the drained clock;
        # do the same to the reference so the fingerprints are comparable.
        reference.run(until=until)
    expected = fingerprint(reference)

    paused = build_blocked_stream(words=words)
    paused.run(until=until)
    seek_safepoint(paused)
    state, _ = fmt.loads(fmt.dumps(SystemCheckpoint.capture(paused),
                                   paused.sim.now))

    restored = SystemCheckpoint.restore(state)
    recaptured = SystemCheckpoint.capture(restored)
    assert fmt.payload_digest(recaptured) == fmt.payload_digest(state)

    restored.run()
    assert diff_fingerprints(expected, fingerprint(restored)) == []


@pytest.mark.slow
def test_every_ping_pong_safepoint_resumes_to_the_golden():
    """Sweep pause times across the whole run: every safepoint must resume
    to the same golden end state."""
    reference = build_ping_pong()
    reference.run()
    expected = fingerprint(reference)

    for until in range(1_000, PING_PONG_GOLDEN_NS, 3_777):
        paused = build_ping_pong()
        paused.run(until=until)
        seek_safepoint(paused)
        resumed = SystemCheckpoint.restore(SystemCheckpoint.capture(paused))
        resumed.run()
        assert diff_fingerprints(expected, fingerprint(resumed)) == [], (
            "diverged when pausing at t=%d" % until
        )
