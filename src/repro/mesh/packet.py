"""Network packet format, CRC and flit count.

"A packet consists of routing information, the absolute mesh coordinates of
the intended receiver, destination memory address, data, and a CRC checksum
to detect network errors." (paper section 3.1)

Packets travel as worms of 16-bit flits; the head flit carries the
routing information, the tail flit carries the CRC.  A worm is its packet
and :meth:`Packet.flit_count` -- no per-flit object exists (see
:mod:`repro.mesh.link`).
"""

import binascii
import struct

from repro.memsys.address import WORD_SIZE

# Header: dest coords (2B), src coords (2B), dest address (4B),
# payload length (2B), packet kind (2B), plus routing field (4B) = 16 bytes.
HEADER_BYTES = 16
CRC_BYTES = 2


class PacketError(Exception):
    """Raised on malformed packets (bad CRC, wrong destination)."""


def crc16(data, initial=0xFFFF):
    """CRC-16/CCITT-FALSE (polynomial 0x1021, MSB first, no final XOR)
    over a byte sequence; ``binascii.crc_hqx`` computes it in C."""
    return binascii.crc_hqx(data, initial)


class Packet:
    """One network packet carrying words to a remote physical address.

    ``kind`` distinguishes ordinary data packets from kernel control
    messages (used by the NIPT-consistency protocol, paper section 4.4,
    which says kernels communicate "by sending messages to the remote
    kernels" -- those messages travel over the same network).
    """

    DATA = 0
    KERNEL = 1

    __slots__ = (
        "src_coords",
        "dest_coords",
        "dest_addr",
        "payload",
        "kind",
        "crc",
        "created_ns",
        "_corrupted",
        "route_coords",
    )

    def __init__(self, src_coords, dest_coords, dest_addr, payload, kind=DATA,
                 created_ns=0):
        if not payload:
            raise PacketError("packet must carry at least one word")
        self.src_coords = src_coords
        self.dest_coords = dest_coords
        self.dest_addr = dest_addr
        self.payload = list(payload)
        self.kind = kind
        self.created_ns = created_ns
        self.crc = crc16(self._covered_bytes())
        self._corrupted = False
        # The 4-byte routing field of the header.  Normally None, meaning
        # "route to dest_coords"; a fault injector may point it elsewhere.
        # It is routing information only -- NOT covered by the CRC -- so a
        # misdirected packet arrives intact and is rejected by the
        # receiver's absolute-coordinate check (paper section 3.1).
        self.route_coords = None

    def _covered_bytes(self):
        """Bytes covered by the CRC: header fields plus payload, packed
        little-endian in one call (payload words modulo 2**32)."""
        payload = self.payload
        return struct.pack(
            "<4BQHH%dI" % len(payload),
            self.dest_coords[0] & 0xFF, self.dest_coords[1] & 0xFF,
            self.src_coords[0] & 0xFF, self.src_coords[1] & 0xFF,
            self.dest_addr, len(payload), self.kind,
            *[word & 0xFFFFFFFF for word in payload])

    # -- integrity --------------------------------------------------------------

    def corrupt(self):
        """Flip a payload bit without updating the CRC (for error injection)."""
        self.payload[0] ^= 1
        self._corrupted = True

    def crc_ok(self):
        return self.crc == crc16(self._covered_bytes())

    def verify(self, receiver_coords):
        """The receive-side check (paper section 3.1): coords + CRC.

        Raises :class:`PacketError` on either failure.
        """
        if self.dest_coords != receiver_coords:
            raise PacketError(
                "misrouted: packet for %r arrived at %r"
                % (self.dest_coords, receiver_coords)
            )
        if not self.crc_ok():
            raise PacketError("CRC mismatch at %r" % (receiver_coords,))

    # -- geometry ---------------------------------------------------------------

    @property
    def routing_coords(self):
        """Where the mesh steers this packet (the header routing field).

        Equals ``dest_coords`` unless a misroute injector rewrote the
        routing field; routers must consult this, never ``dest_coords``.
        """
        route = self.route_coords
        return route if route is not None else self.dest_coords

    @property
    def payload_bytes(self):
        return len(self.payload) * WORD_SIZE

    @property
    def size_bytes(self):
        return HEADER_BYTES + self.payload_bytes + CRC_BYTES

    def flit_count(self, flit_bytes):
        return -(-self.size_bytes // flit_bytes)  # ceiling division

    # -- checkpoint protocol (see repro.ckpt) ---------------------------------

    def to_state(self):
        """JSON-safe snapshot, including a corrupted packet's stale CRC."""
        state = {
            "src": list(self.src_coords),
            "dest": list(self.dest_coords),
            "dest_addr": self.dest_addr,
            "payload": list(self.payload),
            "kind": self.kind,
            "created_ns": self.created_ns,
            "crc": self.crc,
            "corrupted": self._corrupted,
        }
        if self.route_coords is not None:
            state["route"] = list(self.route_coords)
        return state

    @classmethod
    def from_state(cls, state):
        packet = cls(
            tuple(state["src"]),
            tuple(state["dest"]),
            state["dest_addr"],
            state["payload"],
            kind=state["kind"],
            created_ns=state["created_ns"],
        )
        # Overwrite the freshly computed CRC: a corrupted packet carries a
        # checksum that no longer matches its payload, and the restored
        # packet must fail verification the same way the original would.
        packet.crc = state["crc"]
        packet._corrupted = state["corrupted"]
        route = state.get("route")
        if route is not None:
            packet.route_coords = tuple(route)
        return packet

    def __repr__(self):
        return "Packet(%r->%r addr=%#x x%d words)" % (
            self.src_coords,
            self.dest_coords,
            self.dest_addr,
            len(self.payload),
        )

