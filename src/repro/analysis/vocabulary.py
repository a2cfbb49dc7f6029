"""The observability vocabulary: every event kind and metric leaf.

``docs/observability.md`` promises that the event-kind and metric-name
grammars are *machine-enforced*.  This module is the machine-readable
half of that promise: the one table the analysis layer consumes and the
whole-program lint rules (SL1001/SL1002, ``docs/static-analysis.md``)
cross-check against every ``hub.emit`` site and hub registration in the
tree.  An event kind emitted anywhere but missing here is an *orphan
emitter* (invisible to dashboards and docs); an entry here that nothing
emits is *dead vocabulary* (documentation of behavior that no longer
exists).  Both fail the lint gate, so this table cannot drift.

``EVENT_KINDS`` maps ``<layer>.<what>`` kinds to one-line meanings;
``METRIC_LEAVES`` maps the trailing (greppable) metric-name segment to
its meaning.  ``tests/test_lint_project.py`` additionally pins the
event table against the vocabulary table in docs/observability.md.
"""

#: Every event kind the simulation emits (see docs/observability.md).
EVENT_KINDS = {
    "bus.read": "Xpress bus read transaction retired",
    "bus.write": "Xpress bus write transaction retired",
    "cache.writeback": "dirty victim line written back to DRAM",
    "cache.snoop_invalidate": "bus snoop invalidated a cached line",
    "eisa.burst": "EISA DMA burst moved to/from the NIC",
    "nic.packetized": "outgoing words cut into a network packet",
    "nic.injected": "packet handed to the mesh injection FIFO",
    "nic.accepted": "packet accepted by the receiving NIC",
    "nic.delivered": "packet payload deposited into DRAM",
    "nic.coord_drop": "packet dropped: coordinates match no node",
    "nic.crc_drop": "packet dropped by the CRC check",
    "nic.unmapped_drop": "packet dropped: destination page not mapped in",
    "nic.kernel_msg": "packet delivered to the kernel message queue",
    "nic.arrival_interrupt": "arrival-notification interrupt raised",
    "nic.fifo_threshold": "incoming/outgoing FIFO crossed its threshold",
    "dma.arm": "deliberate-update DMA command accepted",
    "dma.done": "deliberate-update DMA transfer drained",
    "dma.reject": "DMA command rejected (busy or invalid)",
    "mesh.route": "router forwarded a packet toward its destination",
    "mesh.eject": "packet ejected from the mesh at its node",
    "os.syscall": "kernel serviced a system call",
    "os.rpc": "kernel sent an inter-node RPC message",
    "os.evict": "kernel evicted a page mapping",
    "os.page_in": "kernel paged a mapping back in",
    "os.fault": "kernel handled a page fault",
    "cpu.interrupt": "CPU took an interrupt",
    "cpu.syscall": "CPU executed a syscall instruction",
    "fault.link_down": "fault injector took a mesh link down",
    "fault.link_up": "fault injector restored a mesh link",
    "fault.router_stall": "fault injector stalled a router",
    "fault.router_resume": "fault injector resumed a stalled router",
    "fault.fifo_pressure": "fault injector reserved FIFO capacity",
    "fault.corrupt": "fault injector corrupted a packet payload",
    "fault.misroute": "fault injector misrouted a packet",
    "fault.node_crash": "node crash began (volatile state dropped)",
    "fault.node_restore": "node restored from its checkpoint slice",
    "fault.mapping_invalidate": "section 4.4 walk invalidated a mapping",
    "fault.mapping_reestablish": "post-restore walk re-imported a mapping",
    "msg.retransmit": "reliable channel retransmitted its window",
    "msg.rollback": "reliable channel rolled back to receiver state",
    "dsm.fault": "DSM access faulted; fetch-on-fault request sent",
    "dsm.grant": "DSM requester accepted a READ_OK/WRITE_OK grant",
    "dsm.push": "DSM page pushed as a deliberate-update DMA",
    "dsm.recall": "DSM home recalled the current page owner",
    "dsm.inval_walk": "section 4.4 sorted-reader invalidation walk began",
    "dsm.inval": "DSM reader copy invalidated by the walk",
    "dsm.lease_expired": "DSM request lease lapsed; faulter parked",
    "dsm.replay": "parked DSM faulter re-sent its request",
    "dsm.rebuild_start": "restored DSM home began its directory rebuild",
    "dsm.rebuild_done": "DSM directory rebuild resolved every homed page",
    "dsm.lock_revoke": "DSM lock home revoked a lapsed holder's tenure",
}

#: The trailing (greppable) segment of every registered metric name.
METRIC_LEAVES = {
    "transactions": "bus transactions retired",
    "words": "words moved (bus/EISA/DMA)",
    "busy_ns": "time the component spent busy",
    "hits": "cache hits",
    "misses": "cache misses",
    "writebacks": "dirty lines written back",
    "snoop_invalidations": "cached lines invalidated by bus snoops",
    "bursts": "EISA DMA bursts",
    "packetized": "packets cut from outgoing words",
    "injected": "packets injected into the mesh",
    "delivered": "packets delivered (NIC/backplane)",
    "words_delivered": "payload words deposited",
    "crc_drops": "packets dropped by CRC",
    "coord_drops": "packets dropped on bad coordinates",
    "unmapped_drops": "packets dropped on unmapped pages",
    "arrival_interrupts": "arrival-notification interrupts raised",
    "merged_writes": "automatic-update writes merged",
    "puts": "FIFO puts",
    "gets": "FIFO gets",
    "occupancy": "FIFO occupancy samples",
    "crossings": "FIFO threshold crossings",
    "transfers": "DMA transfers armed",
    "rejected": "DMA commands rejected",
    "busy": "DMA busy rejections",
    "interrupts": "interrupts taken",
    "instructions": "instructions retired/charged",
    "cycles": "CPU cycles consumed",
    "packets": "packets routed",
    "flits": "flits forwarded/moved",
    "syscalls": "system calls serviced",
    "faults": "faults handled (kernel/DSM)",
    "rpcs": "inter-node RPCs sent",
    "evictions": "page mappings evicted",
    "page_ins": "page mappings paged back in",
    "frames_sent": "reliable-channel frames sent",
    "retransmits": "reliable-channel retransmissions",
    "acks_written": "reliable-channel acks written",
    "frames_replayed": "frames replayed after a rollback",
    "instr": "baseline messaging instructions charged",
    "intr": "baseline messaging interrupts taken",
    "sent": "baseline messages sent",
    "recv": "baseline messages received",
    "fetches": "DSM page fetches pushed",
    "invalidations": "DSM reader copies invalidated",
    "recalls": "DSM owner recalls",
    "fetch_ns": "DSM read-fetch latency",
    "upgrade_ns": "DSM write-upgrade latency",
    "lease_expirations": "DSM request leases that lapsed",
    "replays": "parked DSM requests re-sent after recovery",
    "rebuilds": "DSM home directory rebuilds",
    "lock_revokes": "DSM lock tenures revoked on lease lapse",
    "node_crash": "whole-node crashes taken",
    "node_restore": "crashed nodes restored from their checkpoint",
    "latency_ns": "workload request latency",
    "requests": "workload requests issued",
    "responses": "workload responses completed",
    "local": "workload requests served node-locally",
}

#: Named constants for the kinds the analysis layer consumes directly.
BUS_READ = "bus.read"
BUS_WRITE = "bus.write"
NIC_PACKETIZED = "nic.packetized"
NIC_INJECTED = "nic.injected"
NIC_ACCEPTED = "nic.accepted"
NIC_DELIVERED = "nic.delivered"
