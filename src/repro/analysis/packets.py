"""Per-packet latency statistics.

A :class:`PacketStats` collector subscribes to the machine's
instrumentation event bus and records, for every delivered packet, the
time from packetization to deposit (the ``nic.packetized`` and
``nic.delivered`` event kinds).  Used by the contention benchmark
(latency under background load) and available for any experiment that
needs a distribution rather than a single probe.
"""

from repro.analysis.vocabulary import NIC_DELIVERED, NIC_PACKETIZED
from repro.sim.instrument import Instrumentation, nearest_rank


class PacketStats:
    """Collects per-packet datapath latencies across a whole machine."""

    def __init__(self, system):
        self.system = system
        self._start_ns = {}  # id(packet) -> packetized timestamp
        self.latencies_ns = []
        self._hub = Instrumentation.of(system.sim)
        self._hub.subscribe(
            self._on_event, kinds=(NIC_PACKETIZED, NIC_DELIVERED)
        )

    def _on_event(self, event):
        packet = event.fields.get("packet")
        if packet is None:
            return
        if event.kind == NIC_PACKETIZED:
            self._start_ns[id(packet)] = event.time
        else:
            start = self._start_ns.pop(id(packet), None)
            if start is not None:
                self.latencies_ns.append(event.time - start)

    # -- statistics ------------------------------------------------------------

    @property
    def count(self):
        return len(self.latencies_ns)

    def mean(self):
        if not self.latencies_ns:
            return None
        return sum(self.latencies_ns) / len(self.latencies_ns)

    def percentile(self, p):
        """p in (0, 100]; nearest-rank percentile (the tree-wide
        definition, :func:`repro.sim.instrument.nearest_rank`)."""
        return nearest_rank(sorted(self.latencies_ns), p)

    def maximum(self):
        return max(self.latencies_ns) if self.latencies_ns else None

    def histogram(self, bucket_ns=500, max_buckets=12):
        """(lower_bound_ns, count) pairs for a quick text histogram."""
        if not self.latencies_ns:
            return []
        buckets = {}
        for value in self.latencies_ns:
            buckets[value // bucket_ns] = buckets.get(value // bucket_ns, 0) + 1
        rows = sorted(buckets.items())[:max_buckets]
        return [(index * bucket_ns, count) for index, count in rows]
