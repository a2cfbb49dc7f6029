"""The open-loop datacenter traffic model: who asks what, and when.

An open-loop generator fixes the *offered* load up front -- arrivals are
a seeded Poisson process that does not slow down when the system falls
behind, which is what exposes tail latency (a closed loop self-throttles
and flatters the p99).  Key popularity is Zipf-skewed: a handful of hot
keys take most of the traffic, the classic datacenter access pattern.

Everything is decided at *build* time, before the simulation starts: the
entire arrival schedule -- times, clients, keys, and therefore the set of
(client node, home node) channel pairs -- is a pure function of
:class:`WorkloadParams`.  That is what makes a run a pure function of
its seed.

Clients are *simulated*: ``clients`` can be in the millions.  Client
``c`` lives on node ``c % node_count``, and each node runs one frontend
process multiplexing all of its clients' requests -- the workload
analogue of an event-loop server.

Keys map to owners through the pluggable
:class:`~repro.machine.addrmap.AddrMap`: key ``k`` is the global address
``k * tile_bytes``, so under a **blocked** map the hot head of the Zipf
distribution lands on the low-numbered nodes (a hotspot), while a
**strided** map round-robins it across the machine.  Same seed, same
arrivals -- only the placement policy changes.
"""

import math

from repro.faults.plan import SeededStream
from repro.machine.addrmap import make_addr_map


class WorkloadError(Exception):
    """Raised for invalid workload parameters."""


#: Log2 of the placement tile: one key per 64-byte tile keeps the key
#: space dense while exercising sub-page placement decisions.
KEY_TILE_LOG2 = 6


class WorkloadParams:
    """Everything that defines a workload run (a pure value object)."""

    def __init__(self, width=4, height=4, seed=1, requests=64,
                 clients=1_000_000, keys=1024, zipf_s=1.1,
                 offered_load_rps=2_000_000, payload_words=4,
                 window_slots=4, addr_map="blocked"):
        if requests < 1:
            raise WorkloadError("need at least one request")
        if clients < 1 or keys < 1:
            raise WorkloadError("clients and keys must be positive")
        if offered_load_rps <= 0:
            raise WorkloadError("offered load must be positive")
        if zipf_s < 0:
            raise WorkloadError("zipf exponent must be non-negative")
        if payload_words < 3:
            raise WorkloadError(
                "payload needs >= 3 words (index, send time, key)"
            )
        self.width = width
        self.height = height
        self.seed = seed
        self.requests = requests
        self.clients = clients
        self.keys = keys
        self.zipf_s = zipf_s
        self.offered_load_rps = offered_load_rps
        self.payload_words = payload_words
        self.window_slots = window_slots
        self.addr_map = addr_map

    def make_addr_map(self, node_count):
        """The placement map: one 64-byte tile per key, enough tiles per
        node to cover the key space."""
        tiles_per_node = -(-self.keys // node_count)
        return make_addr_map(self.addr_map, node_count,
                             log2_tile_size=KEY_TILE_LOG2,
                             tiles_per_node=tiles_per_node)

    def describe(self):
        """JSON-safe parameter record (benchmarks, CLI output)."""
        return {
            "width": self.width,
            "height": self.height,
            "seed": self.seed,
            "requests": self.requests,
            "clients": self.clients,
            "keys": self.keys,
            "zipf_s": self.zipf_s,
            "offered_load_rps": self.offered_load_rps,
            "payload_words": self.payload_words,
            "window_slots": self.window_slots,
            "addr_map": self.addr_map,
        }


class Request:
    """One scheduled request."""

    __slots__ = ("index", "arrival_ns", "client", "key", "src_node",
                 "home_node")

    def __init__(self, index, arrival_ns, client, key, src_node, home_node):
        self.index = index
        self.arrival_ns = arrival_ns
        self.client = client
        self.key = key
        self.src_node = src_node
        self.home_node = home_node

    def __repr__(self):
        return "Request(#%d @%dns client=%d key=%d %d->%d)" % (
            self.index, self.arrival_ns, self.client, self.key,
            self.src_node, self.home_node,
        )


class ZipfSampler:
    """Zipf(s) over ``n`` keys via inverse-CDF binary search.

    Weight of key ``k`` is ``1 / (k + 1) ** s``; key 0 is the hottest.
    The CDF is precomputed once (O(n)); each draw is O(log n).
    """

    def __init__(self, n, s):
        self.n = n
        self.s = s
        cdf = []
        total = 0.0
        for k in range(n):
            total += 1.0 / float(k + 1) ** s
            cdf.append(total)
        self._cdf = cdf
        self._total = total

    def sample(self, stream):
        """Draw one key using 53 bits from a SeededStream."""
        u = (stream.next_u64() >> 11) * (1.0 / (1 << 53)) * self._total
        lo, hi = 0, self.n - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if self._cdf[mid] < u:
                lo = mid + 1
            else:
                hi = mid
        return lo


def build_schedule(params, topology):
    """The full arrival schedule: a pure function of the parameters.

    Returns a list of :class:`Request` ordered by arrival time (ties keep
    generation order).  Interarrival gaps are exponential with mean
    ``1e9 / offered_load_rps`` ns, rounded up to at least 1 ns.
    """
    stream = SeededStream(params.seed)
    zipf = ZipfSampler(params.keys, params.zipf_s)
    addr_map = params.make_addr_map(topology.node_count)
    mean_gap_ns = 1e9 / params.offered_load_rps
    schedule = []
    now = 0
    for index in range(params.requests):
        u = (stream.next_u64() >> 11) * (1.0 / (1 << 53))
        gap = int(-mean_gap_ns * math.log(1.0 - u))
        now += gap if gap > 0 else 1
        client = stream.below(params.clients)
        key = zipf.sample(stream)
        src_node = client % topology.node_count
        home_node = addr_map.node_of(key << KEY_TILE_LOG2)
        schedule.append(
            Request(index, now, client, key, src_node, home_node)
        )
    return schedule
