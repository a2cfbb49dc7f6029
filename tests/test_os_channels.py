"""OS-level channels: Table 1 primitives running as real user processes.

The strongest form of the paper's claim: user-level communication costs
the same handful of instructions even with full protection -- virtual
addresses, page tables, the map syscall, preemptive scheduling.
"""

from repro.cpu import Mem, R0, R1
from repro.machine.cluster import Cluster
from repro.msg import single_buffer
from repro.msg.layout import PairLayout as L
from repro.msg.os_channels import OsMessagingPair
from repro.os.params import OsParams


def boot(data_mode="auto-single", command_vaddr=0):
    cluster = Cluster(2, 1)
    pair = OsMessagingPair(cluster, data_mode=data_mode,
                           command_vaddr=command_vaddr)
    return cluster, pair


class TestOsSingleBuffering:
    def _bodies(self, message):
        def sender_body(asm):
            asm.mov(Mem(disp=L.priv(L.P_SIZE)), len(message) * 4)
            for i, word in enumerate(message):
                asm.mov(Mem(disp=L.SBUF0 + 4 * i), word)
            single_buffer.emit_send(asm)

        def receiver_body(asm):
            single_buffer.emit_recv(asm)

        return sender_body, receiver_body

    def test_message_delivered_between_processes(self):
        cluster, pair = boot()
        message = [0xA1, 0xB2, 0xC3]
        sender, receiver = pair.build(*self._bodies(message))
        cluster.start()
        cluster.run()
        assert sender.state == "finished" and receiver.state == "finished"
        assert pair.read_receiver_words(L.RBUF0, 3) == message
        # The receive macro reported the size through PRIV.
        assert pair.read_receiver_words(L.priv(L.P_RSIZE), 1) == [12]

    def test_user_level_counts_unchanged_under_full_os(self):
        """Table 1 holds for virtually-addressed, protection-checked
        processes: send is still 4 instructions (the spin may add
        receive-side iterations since both processes race; the *send*
        path has no waits in this scenario)."""
        cluster, pair = boot()
        sender, receiver = pair.build(*self._bodies([7]))
        cluster.start()
        cluster.run()
        node_s = cluster.nodes[0]
        assert node_s.cpu.counts.region("send") == 4
        node_r = cluster.nodes[1]
        recv_count = node_r.cpu.counts.region("recv")
        assert recv_count >= 5
        assert (recv_count - 5) % 3 == 0  # base 5 plus whole spin laps

    def test_mappings_protected_by_process_identity(self):
        """The map syscall names a destination pid; a wrong pid fails and
        the sender aborts at the prologue check."""
        cluster = Cluster(2, 1)
        pair = OsMessagingPair(cluster)
        sender, receiver = pair.build(
            lambda asm: single_buffer.emit_send(asm),
            lambda asm: None,
            handshake=False,  # the sender will abort in its prologue
        )
        # Sabotage: rewrite the data-mapping args to a bogus pid.
        from repro.msg.os_channels import ARGS_DATA
        from repro.os.syscalls import MapArgs

        kernel_s = cluster.kernel(0)
        kernel_s.write_user_words(
            sender, ARGS_DATA,
            MapArgs(L.SBUF0, 4096, 1, 999, L.RBUF0, 0).to_words(),
        )
        cluster.start()
        cluster.run()
        assert sender.state == "finished"
        # Aborted before communicating: no mapping record remains.
        assert not kernel_s.mappings
        assert sender.exit_context.registers["r0"] != 0


class TestOsDeliberate:
    def test_deliberate_with_granted_command_page(self):
        """Full stack: map with command-page grant, fill the buffer, arm
        the DMA engine through the granted page, all at user level."""
        VCMD = 0x0060_0000
        cluster, pair = boot(data_mode="deliberate", command_vaddr=VCMD)

        def sender_body(asm):
            for i in range(8):
                asm.mov(Mem(disp=L.SBUF0 + 4 * i), 0x40 + i)
            asm.mov(R1, 8)  # word count
            retry = "os_dlb_retry"
            asm.label(retry)
            asm.mov(R0, 0)
            asm.cmpxchg(Mem(disp=VCMD), R1)
            asm.jnz(retry)
            # Wait for completion, then signal the receiver via a flag.
            wait = "os_dlb_wait"
            asm.label(wait)
            asm.cmp(Mem(disp=VCMD), 0)
            asm.jnz(wait)
            asm.mov(Mem(disp=L.flag(L.F_ARRIVE)), 1)

        def receiver_body(asm):
            spin = "os_dlb_recv"
            asm.label(spin)
            asm.cmp(Mem(disp=L.flag(L.F_ARRIVE)), 0)
            asm.jz(spin)

        sender, receiver = pair.build(sender_body, receiver_body)
        cluster.start()
        cluster.run()
        assert sender.state == "finished" and receiver.state == "finished"
        assert pair.read_receiver_words(L.RBUF0, 8) == [
            0x40 + i for i in range(8)
        ]

    def test_no_transfer_without_send_command(self):
        cluster, pair = boot(data_mode="deliberate")

        def sender_body(asm):
            asm.mov(Mem(disp=L.SBUF0), 0x99)

        sender, receiver = pair.build(sender_body, lambda asm: None)
        cluster.start()
        cluster.run()
        assert pair.read_receiver_words(L.RBUF0, 1) == [0]


class TestPreemptionDuringCommunication:
    def test_tiny_timeslice_does_not_break_the_protocol(self):
        """Context switches mid-protocol: the NIC carries no per-process
        state, so preemption at any instruction boundary is safe."""
        cluster = Cluster(2, 1, os_params=OsParams(timeslice_ns=3_000))
        pair = OsMessagingPair(cluster)
        message = list(range(1, 17))

        def sender_body(asm):
            asm.mov(Mem(disp=L.priv(L.P_SIZE)), len(message) * 4)
            for i, word in enumerate(message):
                asm.mov(Mem(disp=L.SBUF0 + 4 * i), word)
            single_buffer.emit_send(asm)

        sender, receiver = pair.build(
            sender_body, lambda asm: single_buffer.emit_recv(asm)
        )
        cluster.start()
        cluster.run()
        assert pair.read_receiver_words(L.RBUF0, 16) == message
        assert cluster.scheduler(0).context_switches >= 2
