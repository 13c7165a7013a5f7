"""Frame to TCP-segment decoding: the run's ingest loop, `ingest_frames`.

`ingest_frames` is the one frame decoder.  It reads each frame where it
lies, `buf[start:end]`: `buf` is the run's one buffer, the capture's map
(`capture.map_capture`), and the span is one `capture.read_frames` yielded.
The common frame (Ethernet, IPv4 with a 20-byte header, not a fragment,
TCP, at least 54 bytes captured) is read with one unpack; every other frame
gets its link and IP headers from `_ip_headers` and its TCP header from
`_TCP`.  Both then share one tail: the TCP header checks, the payload's end
(Ethernet trailer padding excluded), the truncation flag and the bucket
entry.  The bucket is found by one lookup on the frame's address and port
bytes as they lie on the wire (12 bytes for IPv4 on any link layer, 36 for
IPv6); only a direction's first frame builds the canonical four-tuple
(`flow_bucket`).  Every length field is checked against the frame's end,
never the buffer's, before it is trusted.  Nothing is copied: a payload is
two offsets into `buf`, readable only while the map is open, and a capture
that shrinks on disk before the span is read ends the process with SIGBUS
(see `capture`).  `decode_frame`, which only the benchmark's layer trace
calls, runs `ingest_frames` over one frame and slices its payload out.
"""

from __future__ import annotations

import enum
import struct
from typing import Iterable, NamedTuple

from tlslayers.capture import LINKTYPE_ETHERNET, LINKTYPE_LINUX_SLL, LINKTYPE_RAW_IP, CapturedFrame
from tlslayers.errors import MalformedHeader

ETH_IPV4 = 0x0800
ETH_IPV6 = 0x86DD

_U16 = struct.Struct(">H").unpack_from
_PORTS = struct.Struct(">HH").unpack_from
# version/IHL, total length, flags/fragment offset, protocol, source, destination
_IPV4 = struct.Struct(">BxH2xHxB2x4s4s").unpack_from
# version, payload length, next header, source, destination
_IPV6 = struct.Struct(">B3xHBx16s16s").unpack_from
# sequence number, data offset, flags
_TCP = struct.Struct(">4xI4xBB").unpack_from
# An Ethernet frame with a 20-byte IPv4 header, through the TCP flags: the ethertype; the IPv4
# version/IHL, total length, flags/fragment offset and protocol; the IPv4 source and destination and
# the TCP ports as one 12-byte field; the TCP sequence number, data offset and flags.  The TCP header
# ends 54 bytes into the frame.
_ETH_IPV4_TCP = struct.Struct(">12xHBxH2xHxB2x12sI4xBB").unpack_from


class TcpFlags(enum.IntFlag):
    FIN = 0x01
    SYN = 0x02
    RST = 0x04
    PSH = 0x08
    ACK = 0x10


class DecodedPacket(NamedTuple):
    """One TCP segment; IPs are raw 4- or 16-byte values."""

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
    """`ingest_frames` over one whole frame, as a `DecodedPacket`; None for non-TCP traffic.

    Raises MalformedHeader when the frame's length fields are inconsistent with its size.
    """
    data = frame.data
    groups, counts = ingest_frames(data, [(frame.timestamp_ns, frame.link_type, 0, len(data), frame.orig_len)])
    if counts["malformed_frames"]:
        raise MalformedHeader("malformed frame")
    if not groups:
        return None
    ((key, [(ts, from_lower, flags, seq, start, end, truncated)]),) = groups.items()
    (src_ip, src_port), (dst_ip, dst_port) = (key[:2], key[2:]) if from_lower else (key[2:], key[:2])
    return DecodedPacket(ts, src_ip, dst_ip, src_port, dst_port, flags, seq, data[start:end], truncated)


def ingest_frames(buf, spans: Iterable[tuple]) -> tuple[dict[tuple, list[tuple]], dict]:
    """Decode each frame span of `buf` and append it to its flow's bucket; return the buckets and the ingest counts.

    A span is `(timestamp_ns, link_type, start, end, orig_len)`, as `read_frames` yields it for the
    map `buf`: the frame is `buf[start:end]`.  The buckets are keyed by canonical four-tuple
    `(ip_lo, port_lo, ip_hi, port_hi)`, the lower `(ip, port)` endpoint first, in the file order of
    each flow's first frame, and hold one entry per frame in file order, `(ts, from_lower, flags,
    seq, start, end, truncated)`, whose payload is `buf[start:end]`.  Fragments, IPv6 extension
    headers and non-TCP traffic count as non-TCP frames, and a frame whose length fields are
    inconsistent with its size as malformed.  The common frame's one unpack saves a call and two
    unpacks per frame: when it was added, on the 240-connection `bulk` benchmark capture (2-vCPU
    Xeon, Python 3.11), `analyze` went from 0.392 to 0.351 s.

    A frame finds its bucket and direction with one lookup in a table local to the call, keyed by
    its addresses and ports as the frame carries them (the common frame reads them as one field),
    so `flow_bucket` builds the canonical four-tuple once per direction of a flow, not once per
    frame.  When the table was added, ingest alone (read, decode and bucket, in process, seed 7,
    same host) went from 51 to 41 ms on `bulk` and from 49 to 43 ms on `lossy`.
    """
    groups: dict[tuple, list[tuple]] = {}
    flows: dict[bytes, tuple[list, bool]] = {}  # wire address bytes -> (bucket, from_lower)
    non_tcp = malformed = 0
    eth, ipv4, fast, ip_headers, tcp = LINKTYPE_ETHERNET, ETH_IPV4, _ETH_IPV4_TCP, _ip_headers, _TCP
    for ts, link_type, start, end, orig_len in spans:
        if link_type == eth and end - start >= 54:
            # the source and destination addresses and the ports lie together, in frame bytes 26-38
            ethertype, b0, total_len, frag, proto, wire, seq, doff, flags = fast(buf, start)
        else:
            ethertype = None
        if ethertype == ipv4 and b0 == 0x45 and not frag & 0x3FFF and proto == 6:
            tcp_start = start + 34
            ip_end = start + 14 + total_len
        else:
            try:
                headers = ip_headers(link_type, buf, start, end)
            except MalformedHeader:
                malformed += 1
                continue
            if headers is None:
                non_tcp += 1
                continue
            src_ip, dst_ip, tcp_start, ip_end = headers
            # an IPv4 flow's key is the same on every link layer; an IPv6 key is 36 bytes, not 12
            wire = src_ip + dst_ip + buf[tcp_start : tcp_start + 4]
            seq, doff, flags = tcp(buf, tcp_start)
        payload_start = tcp_start + (doff >> 4) * 4
        # a data offset below 5 words; the TCP header past the IP length (which also catches an IPv4
        # total length below the IP header's 20 bytes) or past the frame
        if doff < 0x50 or payload_start > ip_end or payload_start > end:
            malformed += 1
            continue
        # the payload ends with the IP datagram, excluding Ethernet trailer padding
        if ip_end > end:
            ip_end = end
            truncated = True  # the snap length cut into the payload
        else:
            truncated = orig_len > end - start
        try:
            bucket, from_lower = flows[wire]
        except KeyError:
            bucket, from_lower = flows[wire] = flow_bucket(groups, wire)
        bucket.append((ts, from_lower, flags & 0x1F, seq, payload_start, ip_end, truncated))
    frames = non_tcp + malformed + sum(map(len, groups.values()))
    return groups, {"frames": frames, "non_tcp_frames": non_tcp, "malformed_frames": malformed}


def flow_bucket(groups: dict[tuple, list[tuple]], wire: bytes) -> tuple[list[tuple], bool]:
    """The bucket in `groups` of a frame whose wire address bytes are `wire`, and whether the frame is from_lower.

    `wire` is the source address, the destination address and the two ports, as a TCP/IP frame
    carries them.  The bucket is keyed by the canonical four-tuple `(ip_lo, port_lo, ip_hi,
    port_hi)`, the lower `(ip, port)` endpoint first, and made, empty, when the flow has none yet.
    This is the one place that spells the canonical four-tuple.
    """
    n = len(wire) // 2 - 2  # the length of one address
    src_ip, dst_ip = wire[:n], wire[n : 2 * n]
    src_port, dst_port = _PORTS(wire, 2 * n)
    from_lower = src_ip < dst_ip or (src_ip == dst_ip and src_port <= dst_port)
    key = (src_ip, src_port, dst_ip, dst_port) if from_lower else (dst_ip, dst_port, src_ip, src_port)
    return groups.setdefault(key, []), from_lower


def _ip_headers(link_type: int, buf, start: int, end: int) -> tuple | None:
    """The frame `buf[start:end]`'s `(src_ip, dst_ip, tcp_start, ip_end)`; None for non-TCP traffic.

    A TCP header's fixed 20 bytes lie in the frame from `tcp_start`; the IP datagram ends at
    `ip_end`, which may lie past the frame's end.  Raises MalformedHeader when length fields are
    inconsistent with the frame size.
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
    return src_ip, dst_ip, tcp_start, ip_end
