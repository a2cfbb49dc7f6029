"""The routing backplane: a 2-D mesh of iMRC-style wormhole routers.

SHRIMP's interconnect is an Intel Paragon routing backplane -- "a two-
dimensional mesh of Intel iMRC routers ... The backplane supports deadlock-
free, oblivious wormhole routing and preserves the order of messages from
each sender to each receiver" (paper section 3).

This package models that backplane at flit level:

- :mod:`~repro.mesh.packet` -- network packet format with CRC-16, and
  its size in flits.
- :mod:`~repro.mesh.link` -- unidirectional flit channels with bounded
  buffering (backpressure) and per-flit transfer time.
- :mod:`~repro.mesh.router` -- a 5-port wormhole router using dimension-
  ordered (X-then-Y) routing, which is oblivious and deadlock-free on a
  mesh.
- :mod:`~repro.mesh.backplane` -- assembles routers and links into a mesh
  and attaches node NICs to injection/ejection ports.
"""

from repro.mesh.packet import Packet, crc16, PacketError
from repro.mesh.link import Link
from repro.mesh.router import Router, RoutingError
from repro.mesh.backplane import Backplane

__all__ = [
    "Packet",
    "crc16",
    "PacketError",
    "Link",
    "Router",
    "RoutingError",
    "Backplane",
]
