"""Frame to TCP-segment decoding.

`decode_frame` is the only decode path.  Each link, IPv4/IPv6 and TCP header
is read with one precompiled `struct.Struct.unpack_from` at its offset in the
frame, and every length field is checked against the frame size before it is
trusted.  Fragments, IPv6 extension headers and non-TCP traffic decode to
None; the payload excludes Ethernet trailer padding and is marked truncated
when the snap length cut into it.
"""

from __future__ import annotations

import enum
import struct

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


class DecodedPacket:
    """One TCP segment; IPs are raw 4-byte (v4) or 16-byte (v6) values."""

    __slots__ = (
        "timestamp_ns", "src_ip", "dst_ip", "src_port", "dst_port", "tcp_flags", "seq", "payload", "truncated",
    )

    def __init__(
        self,
        timestamp_ns: int,
        src_ip: bytes,
        dst_ip: bytes,
        src_port: int,
        dst_port: int,
        tcp_flags: int,
        seq: int,
        payload: bytes,
        truncated: bool,
    ) -> None:
        self.timestamp_ns = timestamp_ns
        self.src_ip = src_ip
        self.dst_ip = dst_ip
        self.src_port = src_port
        self.dst_port = dst_port
        self.tcp_flags = tcp_flags
        self.seq = seq
        self.payload = payload
        self.truncated = truncated


def decode_frame(frame: CapturedFrame) -> DecodedPacket | None:
    """Decode one frame; returns None for non-TCP traffic (never an error).

    Raises MalformedHeader when length fields are inconsistent with the
    frame size.
    """
    timestamp_ns, link_type, data, orig_len = frame
    n = len(data)
    if link_type == LINKTYPE_ETHERNET:
        if n < 14:
            raise MalformedHeader("ethernet header truncated")
        ethertype = _U16(data, 12)[0]
        off = 14
    elif link_type == LINKTYPE_LINUX_SLL:
        if n < 16:
            raise MalformedHeader("sll header truncated")
        ethertype = _U16(data, 14)[0]
        off = 16
    elif link_type == LINKTYPE_RAW_IP:
        if n < 1:
            raise MalformedHeader("empty raw-ip frame")
        ethertype = ETH_IPV4 if (data[0] >> 4) == 4 else ETH_IPV6
        off = 0
    else:
        raise MalformedHeader(f"unsupported link type {link_type}")

    if ethertype == ETH_IPV4:
        if n < off + 20:
            raise MalformedHeader("ipv4 header truncated")
        b0, total_len, flags_frag, proto, src_ip, dst_ip = _IPV4(data, off)
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
        if n < off + ihl:
            raise MalformedHeader("ipv4 options truncated")
        tcp_start = off + ihl
        ip_end = off + total_len
    elif ethertype == ETH_IPV6:
        if n < off + 40:
            raise MalformedHeader("ipv6 header truncated")
        b0, payload_len, next_header, src_ip, dst_ip = _IPV6(data, off)
        if (b0 >> 4) != 6:
            raise MalformedHeader("ipv6 version mismatch")
        if next_header != 6:
            return None  # extension headers / non-TCP are out of scope
        tcp_start = off + 40
        ip_end = tcp_start + payload_len
    else:
        return None  # ARP, LLC, anything else

    if n < tcp_start + 20:
        raise MalformedHeader("tcp header truncated")
    src_port, dst_port, seq, doff, flags = _TCP(data, tcp_start)
    payload_start = tcp_start + (doff >> 4) * 4
    if payload_start < tcp_start + 20:
        raise MalformedHeader("tcp data offset below minimum")
    if payload_start > ip_end:
        raise MalformedHeader("tcp header exceeds ip length")
    if n < payload_start:
        raise MalformedHeader("tcp options truncated")

    # the payload ends with the IP datagram, excluding Ethernet trailer padding
    if ip_end > n:
        ip_end = n
        truncated = True  # the snap length cut into the payload
    else:
        truncated = orig_len > n
    return DecodedPacket(
        timestamp_ns, src_ip, dst_ip, src_port, dst_port, flags & 0x1F, seq, data[payload_start:ip_end], truncated
    )
