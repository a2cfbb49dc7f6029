"""Build and run the datacenter workload on a SHRIMP machine.

:class:`DatacenterWorkload` turns a :class:`~repro.workload.traffic.
WorkloadParams` into a complete, started system:

- a :class:`~repro.machine.system.ShrimpSystem` on the ``datacenter``
  hardware config (geometry from :class:`~repro.mesh.topology.
  MeshTopology`);
- for every distinct (client node, home node) pair in the schedule, a
  request channel and a response channel
  (:class:`~repro.msg.reliable.ReliableChannel`) with packed arena
  layouts (:class:`~repro.workload.arena.ChannelArenas`); the channels
  out of one node share its DMA engine through the engine's own
  arbitration mutex;
- one frontend process per client node, multiplexing that node's
  simulated clients: it replays the precomputed Poisson arrivals,
  stamping each request frame with (index, send time, key);
- server and latency hooks on the channels' ``on_deliver``: the home
  node echoes the request frame back on the response channel, and the
  client side observes ``now - send time`` into the global
  ``workload.latency_ns`` histogram.

SLO metrics:

- ``workload.latency_ns`` -- request/response round-trip histogram; its
  summary carries p50/p99/p999;
- ``workload.requests`` / ``workload.responses`` -- issued and completed
  remote requests (goodput = responses / simulated time);
- ``workload.local`` -- requests whose key lived on the issuing node
  (served from local memory; no mesh traffic, not latency-tracked).

Everything is constructed before the simulation starts and the whole
construction is a pure function of the parameters, so the same
parameters always give a bit-identical run.
"""

from repro.machine.config import datacenter
from repro.machine.system import ShrimpSystem
from repro.memsys.address import PAGE_SIZE
from repro.mesh.topology import MeshTopology
from repro.msg.reliable import ReliableChannel
from repro.sim.process import Process
from repro.workload.arena import ChannelArenas
from repro.workload.traffic import WorkloadParams, build_schedule

LATENCY_METRIC = "workload.latency_ns"
REQUESTS_METRIC = "workload.requests"
RESPONSES_METRIC = "workload.responses"
LOCAL_METRIC = "workload.local"


class DatacenterWorkload:
    """One workload run: machine, channels, frontends, metrics."""

    def __init__(self, params=None, params_factory=datacenter, sim=None):
        self.params = params or WorkloadParams()
        self.topology = MeshTopology(self.params.width, self.params.height)
        self.system = ShrimpSystem(
            self.params.width, self.params.height,
            params_factory=params_factory, sim=sim,
        )
        self.schedule = build_schedule(self.params, self.topology)
        self.addr_map = self.params.make_addr_map(self.topology.node_count)

        hub = self.system.instrumentation
        # Literal names (the SL302 contract); the module constants above
        # are the same strings, for consumers that read the hub by name.
        self.latency_hist = hub.histogram("workload.latency_ns")
        self.requests_sent = hub.counter("workload.requests")
        self.responses_done = hub.counter("workload.responses")
        self.local_hits = hub.counter("workload.local")

        # Distinct remote pairs in first-appearance order: the canonical,
        # deterministic construction walk.
        self.pairs = []
        self.pair_requests = {}
        per_node = {}
        for request in self.schedule:
            if request.home_node == request.src_node:
                continue
            pair = (request.src_node, request.home_node)
            if pair not in self.pair_requests:
                self.pair_requests[pair] = 0
                self.pairs.append(pair)
            self.pair_requests[pair] += 1
            per_node.setdefault(request.src_node, [])
        for request in self.schedule:
            per_node.setdefault(request.src_node, []).append(request)
        self._per_node = per_node

        # One arena per node that terminates a channel, carved in the
        # deterministic pair order.
        self._arenas = ChannelArenas(PAGE_SIZE, self.system.params.dram_bytes)
        self.req_channels = {}
        self.resp_channels = {}
        self._responses_enqueued = {}
        for pair in self.pairs:
            src, dst = pair
            req = self._make_channel(
                src, dst, "wl.req.%d_%d" % pair,
                on_deliver=self._server_hook(pair),
            )
            resp = self._make_channel(
                dst, src, "wl.rsp.%d_%d" % pair,
                on_deliver=self._latency_hook,
            )
            self.req_channels[pair] = req
            self.resp_channels[pair] = resp
            self._responses_enqueued[pair] = 0

        self._started = False

    # -- construction helpers --------------------------------------------------

    def _make_channel(self, src, dst, name, on_deliver):
        window_slots = self.params.window_slots
        payload_words = self.params.payload_words
        layout = self._arenas.layout(src, dst, window_slots, payload_words,
                                     window_slots * payload_words)
        return ReliableChannel(
            self.system, src, dst, name=name, layout=layout,
            window_slots=window_slots, payload_words=payload_words,
            on_deliver=on_deliver,
        )

    # -- delivery hooks (run inside the receiver driver processes) -------------

    def _server_hook(self, pair):
        """Echo every request back on the pair's response channel."""

        def on_request(_channel, _seq, payload):
            resp = self.resp_channels[pair]
            resp.send(payload)
            self._responses_enqueued[pair] += 1
            if self._responses_enqueued[pair] == self.pair_requests[pair]:
                resp.close()

        return on_request

    def _latency_hook(self, _channel, _seq, payload):
        """Observe the round trip on the issuing node's side."""
        send_ns = payload[1]
        latency = (self.system.sim.now - send_ns) & 0xFFFFFFFF
        self.latency_hist.observe(latency)
        self.responses_done.bump()

    # -- the frontends ---------------------------------------------------------

    def _frontend_body(self, node_id, entries):
        sim = self.system.sim
        for request in entries:
            if request.arrival_ns > sim.now:
                yield request.arrival_ns - sim.now
            if request.home_node == node_id:
                self.local_hits.bump()
                continue
            channel = self.req_channels[(node_id, request.home_node)]
            channel.send([
                request.index & 0xFFFFFFFF,
                sim.now & 0xFFFFFFFF,
                request.key & 0xFFFFFFFF,
            ])
            self.requests_sent.bump()
        # This node's clients are done; close its request channels so the
        # senders can retire once everything is acked.
        for (src, _dst), channel in self.req_channels.items():
            if src == node_id and not channel.closed:
                channel.close()

    # -- lifecycle -------------------------------------------------------------

    def start(self):
        """Start the machine, the channels, and the frontends."""
        if self._started:
            return self
        self._started = True
        self.system.start()
        for pair in self.pairs:
            self.req_channels[pair].start()
            self.resp_channels[pair].start()
        for node_id in sorted(self._per_node):
            Process(
                self.system.sim,
                self._frontend_body(node_id, self._per_node[node_id]),
                "wl.frontend(%d)" % node_id,
            ).start()
        return self

    def run(self, max_events=50_000_000):
        """Run to completion (all channels drained, frontends finished)."""
        self.start()
        self.system.run(max_events=max_events)
        return self

    # -- results ---------------------------------------------------------------

    def results(self):
        """JSON-safe SLO record of a completed run, shared by the CLI,
        benchmarks and tests."""
        hub = self.system.instrumentation
        latency = hub.summary(LATENCY_METRIC)
        responses = hub.value(RESPONSES_METRIC)
        now_ns = self.system.sim.now
        seconds = now_ns / 1e9 if now_ns else 0.0
        return {
            "params": self.params.describe(),
            "duration_ns": now_ns,
            "requests": hub.value(REQUESTS_METRIC),
            "responses": responses,
            "local": hub.value(LOCAL_METRIC),
            "p50_ns": latency.get("p50"),
            "p99_ns": latency.get("p99"),
            "p999_ns": latency.get("p999"),
            "mean_ns": latency.get("mean"),
            "offered_load_rps": self.params.offered_load_rps,
            "goodput_rps": (responses / seconds) if seconds else None,
        }
