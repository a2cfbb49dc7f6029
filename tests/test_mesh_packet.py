"""Unit tests for packets, CRC and flit serialisation."""

from collections import namedtuple

import pytest
from hypothesis import given, strategies as st

from repro.memsys.params import MeshParams
from repro.mesh import Link, Packet, crc16, PacketError
from repro.mesh.packet import HEADER_BYTES, CRC_BYTES
from repro.sim import Process, Simulator

#: One flit as a per-flit reader sees it: head is index 0, tail is the
#: last index of the packet's flit count.
_Flit = namedtuple("_Flit", "packet index is_head is_tail")


def _flits_over_link(pkt, flit_bytes):
    """Send ``pkt`` down one link as a worm and read it back flit by flit."""
    sim = Simulator()
    link = Link(sim, MeshParams(flit_bytes=flit_bytes), "probe")
    count = pkt.flit_count(flit_bytes)
    got = []

    def writer():
        yield from link.send_burst(pkt, count)

    def reader():
        for _ in range(count):
            packet, index = yield from link.receive()
            got.append(_Flit(packet, index, index == 0, index == count - 1))

    Process(sim, writer(), "writer").start()
    Process(sim, reader(), "reader").start()
    sim.run_until_idle()
    return got


def make_packet(payload=(1, 2, 3), dest=(1, 1), src=(0, 0), addr=0x1000):
    return Packet(src, dest, addr, list(payload))


def test_crc16_known_vector():
    # CRC-16/CCITT-FALSE of "123456789" is 0x29B1.
    assert crc16(b"123456789") == 0x29B1


def test_crc16_empty():
    assert crc16(b"") == 0xFFFF


def test_packet_requires_payload():
    with pytest.raises(PacketError):
        Packet((0, 0), (1, 1), 0, [])


def test_verify_accepts_intact_packet():
    pkt = make_packet()
    pkt.verify((1, 1))  # must not raise


def test_verify_rejects_wrong_destination():
    """Receive-side check of the absolute mesh coordinates (section 3.1)."""
    pkt = make_packet(dest=(1, 1))
    with pytest.raises(PacketError, match="misrouted"):
        pkt.verify((2, 2))


def test_verify_rejects_corrupted_payload():
    pkt = make_packet()
    pkt.corrupt()
    with pytest.raises(PacketError, match="CRC"):
        pkt.verify((1, 1))


def test_crc_covers_header_fields():
    a = make_packet(addr=0x1000)
    b = make_packet(addr=0x2000)
    assert a.crc != b.crc


def test_size_accounting():
    pkt = make_packet(payload=[1, 2])
    assert pkt.payload_bytes == 8
    assert pkt.size_bytes == HEADER_BYTES + 8 + CRC_BYTES


def test_flit_serialisation_structure():
    pkt = make_packet(payload=[1])
    flits = _flits_over_link(pkt, flit_bytes=2)
    assert len(flits) == pkt.flit_count(2)
    assert flits[0].is_head and not flits[0].is_tail
    assert flits[-1].is_tail and not flits[-1].is_head
    assert all(f.packet is pkt for f in flits)
    assert [f.index for f in flits] == list(range(len(flits)))
    for middle in flits[1:-1]:
        assert not middle.is_head and not middle.is_tail


def test_single_word_packet_flit_count():
    pkt = make_packet(payload=[42])
    # 16B header + 4B payload + 2B crc = 22 bytes -> 11 two-byte flits.
    assert pkt.flit_count(2) == 11


@given(
    payload=st.lists(
        st.integers(min_value=0, max_value=0xFFFFFFFF), min_size=1, max_size=64
    ),
    flit_bytes=st.sampled_from([1, 2, 4, 8]),
)
def test_flits_cover_packet_exactly(payload, flit_bytes):
    """Property: flit count covers the packet size with no gap or overlap."""
    pkt = Packet((0, 0), (1, 0), 0x100, payload)
    flits = _flits_over_link(pkt, flit_bytes)
    assert (len(flits) - 1) * flit_bytes < pkt.size_bytes <= len(flits) * flit_bytes
    assert flits[0].is_head and flits[-1].is_tail


@given(
    payload=st.lists(
        st.integers(min_value=0, max_value=0xFFFFFFFF), min_size=1, max_size=32
    )
)
def test_crc_detects_any_single_word_change(payload):
    """Property: changing any single payload word breaks the CRC."""
    pkt = Packet((0, 0), (1, 0), 0x100, payload)
    assert pkt.crc_ok()
    for i in range(len(pkt.payload)):
        original = pkt.payload[i]
        pkt.payload[i] = original ^ 0x10000
        assert not pkt.crc_ok()
        pkt.payload[i] = original
    assert pkt.crc_ok()


def test_kernel_kind_flag():
    pkt = Packet((0, 0), (1, 0), 0, [1], kind=Packet.KERNEL)
    assert pkt.kind == Packet.KERNEL
    assert pkt.crc_ok()


# -- the CRC against a bit-by-bit reference ----------------------------------


def _reference_crc(data):
    """CRC-16/CCITT-FALSE one bit at a time: poly 0x1021, init 0xFFFF."""
    crc = 0xFFFF
    for byte in data:
        crc ^= byte << 8
        for _ in range(8):
            crc = ((crc << 1) ^ 0x1021) if crc & 0x8000 else crc << 1
            crc &= 0xFFFF
    return crc


def _reference_covered(packet):
    """The CRC-covered bytes, built field by field and word by word."""
    data = bytes([packet.dest_coords[0] & 0xFF, packet.dest_coords[1] & 0xFF,
                  packet.src_coords[0] & 0xFF, packet.src_coords[1] & 0xFF])
    data += packet.dest_addr.to_bytes(8, "little")
    data += len(packet.payload).to_bytes(2, "little")
    data += packet.kind.to_bytes(2, "little")
    for word in packet.payload:
        data += (word % (1 << 32)).to_bytes(4, "little")
    return data


def test_reference_crc_check_value():
    assert _reference_crc(b"123456789") == 0x29B1 == crc16(b"123456789")


@given(
    payload=st.lists(st.integers(min_value=-(1 << 40), max_value=1 << 40),
                     min_size=1, max_size=64),
    coords=st.tuples(*[st.integers(min_value=0, max_value=255)] * 4),
    addr=st.integers(min_value=0, max_value=(1 << 32) - 1),
    kind=st.sampled_from([Packet.DATA, Packet.KERNEL]),
)
def test_packet_crc_matches_bit_by_bit_reference(payload, coords, addr, kind):
    """Negative and wider-than-32-bit words are covered modulo 2**32."""
    packet = Packet(coords[:2], coords[2:], addr, payload, kind=kind)
    assert packet.crc == _reference_crc(_reference_covered(packet))
    packet.verify(coords[2:])


def test_state_round_trip_keeps_a_stale_crc():
    packet = make_packet(payload=[7, -1, 1 << 33])
    packet.corrupt()
    restored = Packet.from_state(packet.to_state())
    assert restored.crc == packet.crc
    assert restored.crc != crc16(restored._covered_bytes())
    with pytest.raises(PacketError, match="CRC"):
        restored.verify((1, 1))
    intact = Packet.from_state(make_packet().to_state())
    intact.verify((1, 1))
