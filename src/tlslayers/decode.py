"""Frame to TCP-segment decoding.

`decode_at` is the general decoder; `decode_frame` adapts it to a
`CapturedFrame` (only the benchmark's layer trace calls it).  The run's
ingest loop (`pipeline.ingest_frames`) has one first branch of its own for
the common frame: Ethernet, IPv4 with a 20-byte header, not a fragment,
TCP, at least 54 bytes captured.  It reads that frame with one unpack and
applies `decode_at`'s checks with the same outcomes; every other frame
(Linux SLL, raw IP, IPv6, IP options, fragments, non-TCP, short frames)
comes here.  `decode_at` reads a frame where it lies, `buf[start:end]`:
`buf` is the run's one buffer, the capture's map (`capture.map_capture`),
and `start` and `end` are the span `capture.read_frames` yielded.  It reads
with one precompiled `struct.Struct.unpack_from` per header, and checks
every length field against the frame's end, never the buffer's, before
trusting it.  It copies nothing: the payload is returned as two offsets
into `buf`, which can be read only while the capture's map is open, and a
capture that shrinks on disk before the span is read ends the process with
SIGBUS (see `capture`).  `decode_frame` slices the payload out as `bytes`.
Fragments, IPv6 extension headers and non-TCP traffic decode to None; the
payload excludes Ethernet trailer padding and is marked truncated when the
snap length cut into it.
"""

from __future__ import annotations

import enum
import struct
from typing import NamedTuple

from tlslayers.capture import LINKTYPE_ETHERNET, LINKTYPE_LINUX_SLL, LINKTYPE_RAW_IP, CapturedFrame
from tlslayers.errors import MalformedHeader

ETH_IPV4 = 0x0800
ETH_IPV6 = 0x86DD

_U16 = struct.Struct(">H").unpack_from
# version/IHL, total length, flags/fragment offset, protocol, source, destination
_IPV4 = struct.Struct(">BxH2xHxB2x4s4s").unpack_from
# version, payload length, next header, source, destination
_IPV6 = struct.Struct(">B3xHBx16s16s").unpack_from
# ports, sequence number, data offset, flags
_TCP = struct.Struct(">HHI4xBB").unpack_from


class TcpFlags(enum.IntFlag):
    FIN = 0x01
    SYN = 0x02
    RST = 0x04
    PSH = 0x08
    ACK = 0x10


class DecodedPacket(NamedTuple):
    """One TCP segment; IPs are raw 4- or 16-byte values.

    The fields are `decode_at`'s, but for the payload: `bytes` here, a span of the buffer there.
    """

    timestamp_ns: int
    src_ip: bytes
    dst_ip: bytes
    src_port: int
    dst_port: int
    tcp_flags: int
    seq: int
    payload: bytes
    truncated: bool


def decode_frame(frame: CapturedFrame) -> DecodedPacket | None:
    """`decode_at` over one whole frame, as a `DecodedPacket`."""
    fields = decode_at(frame.timestamp_ns, frame.link_type, frame.data, 0, len(frame.data), frame.orig_len)
    if fields is None:
        return None
    *head, start, end, truncated = fields
    return DecodedPacket(*head, frame.data[start:end], truncated)


def decode_at(timestamp_ns: int, link_type: int, buf: bytes, start: int, end: int, orig_len: int) -> tuple | None:
    """The frame `buf[start:end]` as a plain tuple; None for non-TCP traffic.

    The tuple is `(timestamp_ns, src_ip, dst_ip, src_port, dst_port, tcp_flags, seq,
    payload_start, payload_end, truncated)`: the payload is `buf[payload_start:payload_end]`.

    Raises MalformedHeader when length fields are inconsistent with the frame size.
    """
    if link_type == LINKTYPE_ETHERNET:
        if end - start < 14:
            raise MalformedHeader("ethernet header truncated")
        ethertype = _U16(buf, start + 12)[0]
        off = start + 14
    elif link_type == LINKTYPE_LINUX_SLL:
        if end - start < 16:
            raise MalformedHeader("sll header truncated")
        ethertype = _U16(buf, start + 14)[0]
        off = start + 16
    elif link_type == LINKTYPE_RAW_IP:
        if end - start < 1:
            raise MalformedHeader("empty raw-ip frame")
        ethertype = ETH_IPV4 if (buf[start] >> 4) == 4 else ETH_IPV6
        off = start
    else:
        raise MalformedHeader(f"unsupported link type {link_type}")

    if ethertype == ETH_IPV4:
        if end < off + 20:
            raise MalformedHeader("ipv4 header truncated")
        b0, total_len, flags_frag, proto, src_ip, dst_ip = _IPV4(buf, off)
        if (b0 >> 4) != 4:
            raise MalformedHeader("ipv4 version mismatch")
        ihl = (b0 & 0x0F) * 4
        if ihl < 20:
            raise MalformedHeader("ipv4 header length below minimum")
        if total_len < ihl:
            raise MalformedHeader("ipv4 total length below header length")
        if flags_frag & 0x3FFF:
            return None  # fragments (MF set or nonzero offset) are out of scope
        if proto != 6:
            return None
        if end < off + ihl:
            raise MalformedHeader("ipv4 options truncated")
        tcp_start = off + ihl
        ip_end = off + total_len
    elif ethertype == ETH_IPV6:
        if end < off + 40:
            raise MalformedHeader("ipv6 header truncated")
        b0, payload_len, next_header, src_ip, dst_ip = _IPV6(buf, off)
        if (b0 >> 4) != 6:
            raise MalformedHeader("ipv6 version mismatch")
        if next_header != 6:
            return None  # extension headers / non-TCP are out of scope
        tcp_start = off + 40
        ip_end = tcp_start + payload_len
    else:
        return None  # ARP, LLC, anything else

    if end < tcp_start + 20:
        raise MalformedHeader("tcp header truncated")
    src_port, dst_port, seq, doff, flags = _TCP(buf, tcp_start)
    payload_start = tcp_start + (doff >> 4) * 4
    if payload_start < tcp_start + 20:
        raise MalformedHeader("tcp data offset below minimum")
    if payload_start > ip_end:
        raise MalformedHeader("tcp header exceeds ip length")
    if end < payload_start:
        raise MalformedHeader("tcp options truncated")

    # the payload ends with the IP datagram, excluding Ethernet trailer padding
    if ip_end > end:
        ip_end = end
        truncated = True  # the snap length cut into the payload
    else:
        truncated = orig_len > end - start
    return timestamp_ns, src_ip, dst_ip, src_port, dst_port, flags & 0x1F, seq, payload_start, ip_end, truncated
