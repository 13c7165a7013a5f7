"""Frame decoding: header arithmetic, truncation marking, differential oracle."""

import functools
import random
import re
import struct
import tracemalloc
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tlslayers import documents, synth
from tlslayers.capture import CapturedFrame, map_capture, read_frames
from tlslayers.decode import TcpFlags, _ip_headers, ingest_frames
from tlslayers.errors import MalformedHeader
from tlslayers.pipeline import analyze_capture

from conftest import (
    JUNK, Segment, clean_connection_spec, decode_frames, decode_segment, decode_span, ingest_span, lay_out,
    segment_frames,
)


def _eth_ipv4_tcp(payload=b"", options=b"", flags=0x18, total_len_override=None):
    tcp_len = 20 + len(options) + len(payload)
    doff = (20 + len(options)) // 4
    tcp = struct.pack(">HHIIBBHHH", 40000, 443, 1000, 2000, doff << 4, flags, 65535, 0, 0)
    tcp += options + payload
    total_len = total_len_override if total_len_override is not None else 20 + tcp_len
    ip = struct.pack(
        ">BBHHHBBH4s4s", 0x45, 0, total_len, 1, 0x4000, 64, 6, 0,
        bytes([10, 0, 0, 1]), bytes([10, 0, 0, 2]),
    )
    return b"\x02" * 6 + b"\x04" * 6 + b"\x08\x00" + ip + tcp


def _decode(link_type, data):
    return decode_segment(CapturedFrame(timestamp_ns=0, link_type=link_type, data=data, orig_len=len(data)))


def test_arp_frame_is_non_tcp():
    arp = b"\xff" * 6 + b"\x02" * 6 + b"\x08\x06" + bytes(28)
    assert _decode(1, arp) is None


def test_udp_is_non_tcp():
    ip = struct.pack(
        ">BBHHHBBH4s4s", 0x45, 0, 28, 1, 0, 64, 17, 0, bytes(4), bytes(4)
    )
    frame = b"\x02" * 6 + b"\x04" * 6 + b"\x08\x00" + ip + bytes(8)
    assert _decode(1, frame) is None


def test_syn_segment_empty_payload():
    pkt = _decode(1, _eth_ipv4_tcp(flags=0x02))
    assert pkt.tcp_flags == TcpFlags.SYN
    assert pkt.payload == b""
    assert not pkt.truncated
    assert (pkt.src_port, pkt.dst_port) == (40000, 443)
    assert pkt.seq == 1000


def test_options_skipped_by_data_offset():
    # data offset 8 words: 12 option bytes; payload must be exactly 100 bytes
    pkt = _decode(1, _eth_ipv4_tcp(payload=b"p" * 100, options=b"\x01" * 12))
    assert pkt.payload == b"p" * 100


def test_ethernet_trailer_padding_excluded():
    frame = _eth_ipv4_tcp(payload=b"q" * 10) + b"\x00" * 6  # 60-byte minimum pad
    pkt = _decode(1, frame)
    assert pkt.payload == b"q" * 10
    assert not pkt.truncated


def test_snap_truncation_detected():
    full = _eth_ipv4_tcp(payload=b"r" * 200)
    pkt = _decode(1, full[: len(full) - 150])
    assert pkt.truncated is True
    assert pkt.payload == b"r" * 50


def test_ipv4_fragment_is_skipped():
    tcp = struct.pack(">HHIIBBHHH", 1, 2, 0, 0, 5 << 4, 0x10, 0, 0, 0)
    ip = struct.pack(
        ">BBHHHBBH4s4s", 0x45, 0, 40, 1, 0x2000, 64, 6, 0, bytes(4), bytes(4)
    )
    frame = b"\x02" * 6 + b"\x04" * 6 + b"\x08\x00" + ip + tcp
    assert _decode(1, frame) is None


def test_ipv6_tcp():
    payload = b"v6data"
    tcp = struct.pack(">HHIIBBHHH", 5000, 443, 7, 8, 5 << 4, 0x18, 0, 0, 0) + payload
    ip6 = struct.pack(">IHBB", 6 << 28, len(tcp), 6, 64) + bytes(range(16)) + bytes(range(16, 32))
    frame = b"\x02" * 6 + b"\x04" * 6 + b"\x86\xdd" + ip6 + tcp
    pkt = _decode(1, frame)
    assert pkt.src_ip == bytes(range(16))
    assert pkt.dst_ip == bytes(range(16, 32))
    assert pkt.payload == payload


def test_linux_sll_and_raw_ip():
    inner = _eth_ipv4_tcp(payload=b"xyz")[14:]
    sll = struct.pack(">HHH8sH", 0, 1, 6, bytes(8), 0x0800) + inner
    assert _decode(113, sll).payload == b"xyz"
    assert _decode(101, inner).payload == b"xyz"


def test_ipv6_next_header_not_tcp_is_non_tcp():
    udp = struct.pack(">HHHH", 5000, 53, 8, 0)
    ip6 = struct.pack(">IHBB", 6 << 28, len(udp), 17, 64) + bytes(range(32))
    frame = b"\x02" * 6 + b"\x04" * 6 + b"\x86\xdd" + ip6 + udp
    groups, counts = ingest_frames(frame, [(0, 1, 0, len(frame), len(frame))])
    assert (groups, counts) == ({}, {"frames": 1, "non_tcp_frames": 1, "malformed_frames": 0})


def _ipv4_tcp(payload=b"", options=b"", b0=0x45, total_len=None, doff=None):
    """An IPv4 packet carrying TCP, with its version/IHL byte, total length or data offset set."""
    packet = bytearray(_eth_ipv4_tcp(payload, options, total_len_override=total_len)[14:])
    packet[0] = b0
    if doff is not None:
        packet[32] = doff << 4
    return bytes(packet)


def _ipv6_tcp(payload=b"", options=b"", b0=0x60, payload_len=None, doff=None):
    """An IPv6 packet carrying `_ipv4_tcp`'s segment, with its version byte, payload length or data offset set."""
    segment = _ipv4_tcp(payload, options, doff=doff)[20:]
    payload_len = len(segment) if payload_len is None else payload_len
    return struct.pack(">BxxxHBB", b0, payload_len, 6, 64) + bytes(range(32)) + segment


# the shared tail's three TCP checks: the header reader passes their frames on, and the tail counts them
_TAIL_CHECKS = ("tcp data offset below minimum", "tcp header exceeds ip length", "tcp options truncated")


def _malformed_packets():
    """(IP version, check, IP packet): one packet per check of the IP header reader and of the shared tail.

    A check is the message `_ip_headers` raises, or one of `_TAIL_CHECKS`.
    """
    long_ihl = _ipv4_tcp(payload=b"o" * 40, b0=0x4F)  # a 60-byte IPv4 header claimed
    with_options = b"\x01" * 12
    return [
        (4, "ipv4 header truncated", _ipv4_tcp()[:19]),
        (4, "ipv4 header length below minimum", _ipv4_tcp(b0=0x44)),
        (4, "ipv4 total length below header length", _ipv4_tcp(total_len=19)),
        (4, "ipv4 options truncated", long_ihl[:40]),
        (4, "tcp header truncated", _ipv4_tcp()[:39]),
        (4, "tcp data offset below minimum", _ipv4_tcp(doff=4)),
        (4, "tcp header exceeds ip length", _ipv4_tcp(payload=b"o" * 40, total_len=20 + 19)),
        (4, "tcp options truncated", _ipv4_tcp(payload=b"o" * 40, options=with_options)[: 20 + 20 + 6]),
        (6, "ipv6 header truncated", _ipv6_tcp()[:39]),
        (6, "ipv6 version mismatch", _ipv6_tcp(b0=0x50)),
        (6, "tcp header truncated", _ipv6_tcp()[:59]),
        (6, "tcp data offset below minimum", _ipv6_tcp(doff=4)),
        (6, "tcp header exceeds ip length", _ipv6_tcp(payload=b"o" * 40, payload_len=19)),
        (6, "tcp options truncated", _ipv6_tcp(payload=b"o" * 40, options=with_options)[: 40 + 20 + 6]),
    ]


def _malformed_frames():
    """(check, link type, frame): every IP-level check on each link type, then the link-level ones."""
    frames = []
    for version, check, packet in _malformed_packets():
        ethertype = b"\x08\x00" if version == 4 else b"\x86\xdd"
        frames.append((check, 1, b"\x02" * 6 + b"\x04" * 6 + ethertype + packet))
        frames.append((check, 113, struct.pack(">HHH8s", 0, 1, 6, bytes(8)) + ethertype + packet))
        frames.append((check, 101, packet))
    return frames + [
        ("ethernet header truncated", 1, b"\x00" * 13),
        ("sll header truncated", 113, b"\x00" * 15),
        ("empty raw-ip frame", 101, b""),
        ("unsupported link type", 147, _eth_ipv4_tcp()),  # a user-reserved DLT
        # an IPv4 ethertype before an IPv6 header: raw IP reads the version from the header itself
        ("ipv4 version mismatch", 1, _eth_ipv4_tcp()[:12] + b"\x08\x00" + _ipv6_tcp()),
        ("ipv4 version mismatch", 113, struct.pack(">HHH8s", 0, 1, 6, bytes(8)) + b"\x08\x00" + _ipv6_tcp()),
    ]


def test_malformed_frames_count_as_malformed():
    # each check counts its frame as malformed, whichever branch of the ingest loop reads it:
    # Ethernet/IPv4 frames of at least 54 bytes take the one-unpack branch, all others the header reader
    cases = _malformed_frames()
    for check, link_type, frame in cases:
        buf = JUNK + frame + JUNK
        start, end = len(JUNK), len(JUNK) + len(frame)
        counts, seg = ingest_span(buf, (7, link_type, start, end, len(frame)))
        assert (check, link_type, counts, seg) == (
            check, link_type, {"frames": 1, "non_tcp_frames": 0, "malformed_frames": 1}, None
        )
        # the frame fails the check its row names, and no other: the header reader raises that
        # check, or passes the frame on and the frame fails that one of the tail's three checks
        if check not in _TAIL_CHECKS:
            with pytest.raises(MalformedHeader, match=f"^{re.escape(check)}"):
                _ip_headers(link_type, buf, start, end)
            continue
        _, _, tcp_start, ip_end = _ip_headers(link_type, buf, start, end)
        doff = buf[tcp_start + 12]
        payload_start = tcp_start + (doff >> 4) * 4
        failed = [doff < 0x50, payload_start > ip_end, payload_start > end]
        assert (check, link_type, failed) == (check, link_type, [c == check for c in _TAIL_CHECKS])
    # the one-unpack branch is reached too: its frames make the tail's three checks and the short total length
    assert sum(link == 1 and len(frame) >= 54 and frame[14] == 0x45 for _, link, frame in cases) == 4


def test_ingest_reads_the_timestamp_payload_and_flags():
    frame = CapturedFrame(
        timestamp_ns=123, link_type=1, data=_eth_ipv4_tcp(payload=b"hello", flags=0x18), orig_len=0
    )
    pkt = decode_segment(frame)
    assert pkt.timestamp_ns == 123
    assert pkt.payload == b"hello"
    assert pkt.tcp_flags & TcpFlags.ACK and pkt.tcp_flags & TcpFlags.PSH
    counts, seg = ingest_span(b"\x00" * 8, (1, 1, 0, 8, 8))
    assert (counts["malformed_frames"], seg) == (1, None)


def test_decode_frame_orig_len_truncation():
    data = _eth_ipv4_tcp(payload=b"ok")
    pkt = decode_segment(CapturedFrame(timestamp_ns=1, link_type=1, data=data, orig_len=len(data) + 10))
    assert pkt.truncated


# -- differential test against a byte-at-a-time reference decoder ---------------


def _reference_decode(link_type, data):
    """Byte-indexing decoder kept as the oracle for the ingest loop.

    Returns None for non-TCP traffic, raises ValueError for inconsistent
    length fields, or returns (src_ip, dst_ip, src_port, dst_port, flags,
    seq, payload_start, payload_end, truncated).
    """
    n = len(data)
    if link_type == 1:
        if n < 14:
            raise ValueError("ethernet header truncated")
        ethertype = (data[12] << 8) | data[13]
        off = 14
    elif link_type == 113:
        if n < 16:
            raise ValueError("sll header truncated")
        ethertype = (data[14] << 8) | data[15]
        off = 16
    elif link_type == 101:
        if n < 1:
            raise ValueError("empty raw-ip frame")
        ethertype = 0x0800 if (data[0] >> 4) == 4 else 0x86DD
        off = 0
    else:
        raise ValueError(f"unsupported link type {link_type}")

    if ethertype == 0x0800:
        if n < off + 20:
            raise ValueError("ipv4 header truncated")
        b0 = data[off]
        if (b0 >> 4) != 4:
            raise ValueError("ipv4 version mismatch")
        ihl = (b0 & 0x0F) * 4
        if ihl < 20:
            raise ValueError("ipv4 header length below minimum")
        total_len = (data[off + 2] << 8) | data[off + 3]
        if total_len < ihl:
            raise ValueError("ipv4 total length below header length")
        flags_frag = (data[off + 6] << 8) | data[off + 7]
        if (flags_frag & 0x2000) or (flags_frag & 0x1FFF):
            return None
        proto = data[off + 9]
        if proto != 6:
            return None
        if n < off + ihl:
            raise ValueError("ipv4 options truncated")
        src_ip = data[off + 12 : off + 16]
        dst_ip = data[off + 16 : off + 20]
        tcp_start = off + ihl
        ip_end = off + total_len
    elif ethertype == 0x86DD:
        if n < off + 40:
            raise ValueError("ipv6 header truncated")
        if (data[off] >> 4) != 6:
            raise ValueError("ipv6 version mismatch")
        payload_len = (data[off + 4] << 8) | data[off + 5]
        next_header = data[off + 6]
        if next_header != 6:
            return None
        src_ip = data[off + 8 : off + 24]
        dst_ip = data[off + 24 : off + 40]
        tcp_start = off + 40
        ip_end = off + 40 + payload_len
    else:
        return None

    if n < tcp_start + 20:
        raise ValueError("tcp header truncated")
    src_port = (data[tcp_start] << 8) | data[tcp_start + 1]
    dst_port = (data[tcp_start + 2] << 8) | data[tcp_start + 3]
    seq = (
        (data[tcp_start + 4] << 24)
        | (data[tcp_start + 5] << 16)
        | (data[tcp_start + 6] << 8)
        | data[tcp_start + 7]
    )
    doff = (data[tcp_start + 12] >> 4) * 4
    if doff < 20:
        raise ValueError("tcp data offset below minimum")
    if tcp_start + doff > ip_end:
        raise ValueError("tcp header exceeds ip length")
    if n < tcp_start + doff:
        raise ValueError("tcp options truncated")
    flags = data[tcp_start + 13] & 0x1F

    payload_start = tcp_start + doff
    payload_end = ip_end
    truncated = False
    if payload_end > n:
        truncated = True
        payload_end = n
    return (src_ip, dst_ip, src_port, dst_port, flags, seq, payload_start, payload_end, truncated)


def _outcome(frame):
    """The reference decoder's outcome for one frame, as the ingest loop counts it: ('malformed',),
    ('non-tcp',) or ('packet', fields)."""
    try:
        fields = _reference_decode(frame.link_type, frame.data)
    except ValueError:
        return ("malformed",)
    if fields is None:
        return ("non-tcp",)
    src_ip, dst_ip, src_port, dst_port, flags, seq, pstart, pend, truncated = fields
    return ("packet", (
        frame.timestamp_ns, src_ip, dst_ip, src_port, dst_port, flags, seq,
        frame.data[pstart:pend], truncated or frame.orig_len > len(frame.data),
    ))


def _ingested(buf, span):
    """One frame span of `buf` through the run's ingest loop: ('malformed',), ('non-tcp',) or ('packet', fields)."""
    counts, seg = ingest_span(buf, span)
    if seg is not None:
        return ("packet", tuple(seg))
    return ("malformed",) if counts["malformed_frames"] else ("non-tcp",)


def _packet_fields(frame):
    """The frame through the ingest loop as the only frame of a buffer, its payload sliced out."""
    return decode_segment(frame, prefix=b"", suffix=b"")


@functools.lru_cache(maxsize=1)
def _synth_frames():
    spec = synth.ScenarioSpec(
        connections=(
            clean_connection_spec(seed=1),
            clean_connection_spec(offset_ns=10**8, seed=2, anomalies=("truncate",)),
        )
    )
    frames, _, _ = synth.generate(spec)
    return frames


def _to_ipv6(eth_frame):
    """Re-encode an Ethernet/IPv4 frame as Ethernet/IPv6 with the same TCP segment and trailer."""
    ihl = (eth_frame[14] & 0x0F) * 4
    total_len = struct.unpack_from(">H", eth_frame, 16)[0]
    src, dst = eth_frame[26:30], eth_frame[30:34]
    segment = eth_frame[14 + ihl :]
    ip6 = struct.pack(">IHBB", 6 << 28, total_len - ihl, 6, 64) + src * 4 + dst * 4
    return eth_frame[:12] + b"\x86\xdd" + ip6 + segment


def _relink(eth_frame, link_type):
    if link_type == 1:
        return eth_frame
    if link_type == 113:
        return struct.pack(">HHH8s", 0, 1, 6, eth_frame[6:12] + bytes(2)) + eth_frame[12:]
    return eth_frame[14:]


def _with_trailer(frame):
    """The frame with 6 bytes of Ethernet trailer padding after the IP datagram; a snap-cut frame lost it."""
    if frame.orig_len > len(frame.data):
        return frame._replace(orig_len=frame.orig_len + 6)
    return frame._replace(data=frame.data + bytes(6), orig_len=frame.orig_len + 6)


def _with_ipv4_options(frame):
    """The Ethernet/IPv4 frame with 4 bytes of NOP options in its IP header (IHL 6)."""
    data = bytearray(frame.data[:34])
    data[14] = 0x46
    struct.pack_into(">H", data, 16, struct.unpack_from(">H", data, 16)[0] + 4)
    return frame._replace(data=bytes(data) + b"\x01" * 4 + frame.data[34:], orig_len=frame.orig_len + 4)


def _non_tcp_before(frame):
    """ARP, UDP and an IPv4 fragment of `frame` with its payload inverted, all stamped with `frame`'s time."""
    arp = b"\xff" * 6 + frame.data[6:12] + b"\x08\x06" + bytes(28)
    udp = bytearray(frame.data[:42])
    udp[23] = 17
    struct.pack_into(">H", udp, 16, 28)
    # a first fragment (MF set) that would be a TCP segment: bucketing it would put its bytes first
    fragment = bytearray(frame.data[:54] + bytes(b ^ 0xFF for b in frame.data[54:]))
    struct.pack_into(">H", fragment, 20, 0x2000)
    return [frame._replace(data=bytes(d), orig_len=len(d)) for d in (arp, udp, fragment)]


def _analyzed_without_inputs(tmp_path, name, frames, keylog, link_type=1):
    path = tmp_path / f"{name}.pcap"
    synth.emit_capture(frames, path)
    if link_type != 1:
        raw = bytearray(path.read_bytes())
        struct.pack_into("<I", raw, 20, link_type)  # the pcap header's link type
        path.write_bytes(raw)
    return {**documents.build_analysis_document(analyze_capture(path, keylog, "links")), "inputs": None}


@functools.lru_cache(maxsize=1)
def _five_connection_run():
    """The frames and key log of a fixed run that mixes groups, anomalies and verdicts."""
    spec = synth.ScenarioSpec(connections=(
        clean_connection_spec(seed=1, anomalies=frozenset({"retransmit"})),
        clean_connection_spec(offset_ns=10**8, seed=2, group="x25519_mlkem768", anomalies=frozenset({"truncate"})),
        clean_connection_spec(offset_ns=2 * 10**8, seed=3, group="mlkem1024", anomalies=frozenset({"non200"})),
        clean_connection_spec(offset_ns=3 * 10**8, seed=4, anomalies=frozenset({"drop_keylog"})),
        clean_connection_spec(offset_ns=4 * 10**8, seed=5, group="mlkem512", anomalies=frozenset({"coalesce_request"})),
    ))
    frames, keylog_text, _ = synth.generate(spec)
    return frames, keylog_text


def _reference_document(tmp_path):
    """The five-connection run's frames, its key log's path, and its document without `inputs`."""
    frames, keylog_text = _five_connection_run()
    keylog = tmp_path / "keylog.txt"
    keylog.write_text(keylog_text)
    return frames, keylog, _analyzed_without_inputs(tmp_path, "reference", frames, keylog)


def test_every_link_layer_and_ip_version_gives_the_same_document(tmp_path):
    # a whole run, re-encoded frame by frame, must analyze to the same document but for the capture's hash
    frames, keylog_text = _five_connection_run()
    keylog = tmp_path / "keylog.txt"
    keylog.write_text(keylog_text)
    docs = {}
    for link_type in (1, 113, 101):
        for ipv6 in (False, True):
            relinked = []
            for f in frames:
                data = _relink(_to_ipv6(f.data) if ipv6 else f.data, link_type)
                relinked.append(f._replace(link_type=link_type, data=data, orig_len=f.orig_len + len(data) - len(f.data)))
            name = f"link{link_type}-ipv{6 if ipv6 else 4}"
            docs[name] = _analyzed_without_inputs(tmp_path, name, relinked, keylog, link_type)
    # Ethernet encodings that each frame's ingest must see through; the IPv6 one shows the
    # payload ending where the IPv6 payload length says, not at the frame's end
    trailed = [_with_trailer(f) for f in frames]
    docs["trailer-ipv4"] = _analyzed_without_inputs(tmp_path, "trailer-ipv4", trailed, keylog)
    trailed_v6 = [f._replace(data=_to_ipv6(f.data), orig_len=f.orig_len + 20) for f in trailed]
    docs["trailer-ipv6"] = _analyzed_without_inputs(tmp_path, "trailer-ipv6", trailed_v6, keylog)
    docs["ipv4-options"] = _analyzed_without_inputs(tmp_path, "ipv4-options", [_with_ipv4_options(f) for f in frames], keylog)
    interleaved = [g for f in frames for g in (*_non_tcp_before(f), f)]
    docs["interleaved"] = _analyzed_without_inputs(tmp_path, "interleaved", interleaved, keylog)
    assert docs["interleaved"]["ingest"] == {
        **docs["link1-ipv4"]["ingest"], "frames": 4 * len(frames), "non_tcp_frames": 3 * len(frames),
    }
    docs["interleaved"]["ingest"] = docs["link1-ipv4"]["ingest"]
    reference = docs.pop("link1-ipv4")
    assert reference["counts"] == {
        "total_streams": 5, "valid": 2, "partial": {"no_keys": 1, "truncated": 1}, "excluded": {"non200": 1},
    }
    assert {name: doc == reference for name, doc in docs.items()} == dict.fromkeys(docs, True)


def _pcapng_sections(frames):
    """The frames as pcapng in two sections of opposite byte order, each with two interfaces of
    different link type and time resolution; the frames alternate between a section's interfaces,
    and go to the microsecond one only when they are whole microseconds."""
    sections = (("<", ((1, 6), (113, 9))), (">", ((101, 9), (1, 6))))  # (link type, if_tsresol) per interface
    half = len(frames) // 2
    out, used = [], set()
    for part, (endian, interfaces) in zip((frames[:half], frames[half:]), sections):
        def block(block_type, body):
            body += bytes(-len(body) % 4)
            total = len(body) + 12
            return struct.pack(endian + "II", block_type, total) + body + struct.pack(endian + "I", total)

        out.append(block(0x0A0D0D0A, struct.pack(endian + "IHHq", 0x1A2B3C4D, 1, 0, -1)))
        for link_type, tsresol in interfaces:
            options = struct.pack(endian + "HH", 9, 1) + bytes([tsresol, 0, 0, 0]) + struct.pack(endian + "HH", 0, 0)
            out.append(block(1, struct.pack(endian + "HHI", link_type, 0, 262144) + options))
        for i, f in enumerate(part):
            iface = i % 2
            if f.timestamp_ns % 10 ** (9 - interfaces[iface][1]):
                iface = 1 - iface
            link_type, tsresol = interfaces[iface]
            used.add((endian, iface))
            data = _relink(f.data, link_type)
            ticks = f.timestamp_ns // 10 ** (9 - tsresol)
            orig_len = f.orig_len + len(data) - len(f.data)
            epb = struct.pack(endian + "IIIII", iface, ticks >> 32, ticks & 0xFFFFFFFF, len(data), orig_len)
            out.append(block(6, epb + data))
    assert len(used) == 4  # every interface of both sections carries frames
    return b"".join(out)


def test_pcapng_sections_and_interfaces_give_the_same_document(tmp_path):
    # byte order is a section's, and link type and time resolution an interface's: none may reach the document
    frames, keylog, reference = _reference_document(tmp_path)
    path = tmp_path / "sections.pcapng"
    path.write_bytes(_pcapng_sections(frames))
    assert {**documents.build_analysis_document(analyze_capture(path, keylog, "links")), "inputs": None} == reference
    assert reference["counts"]["valid"] == 2


def test_a_clean_retransmission_changes_nothing_but_the_frame_count(tmp_path):
    # every data segment sent again 1 us later with the same bytes: each direction takes the general
    # placement, which must keep the first arrival's bytes and times
    frames, keylog, reference = _reference_document(tmp_path)
    copies = [f._replace(timestamp_ns=f.timestamp_ns + 1000) for f in frames if decode_segment(f).payload]
    resent = sorted(frames + copies, key=lambda f: f.timestamp_ns)
    doc = _analyzed_without_inputs(tmp_path, "resent", resent, keylog)
    assert doc["ingest"]["frames"] == reference["ingest"]["frames"] + len(copies)
    assert len(copies) > 30
    doc["ingest"]["frames"] = reference["ingest"]["frames"]
    assert doc == reference


def _overlapping_run():
    """The frames and key log of a fixed run of six connections, each opened 1.5 ms after the one before
    and open for about 16 ms, so that all six overlap in time; groups, anomalies and verdicts are mixed."""
    kinds = (
        ("x25519", {"retransmit"}), ("x25519_mlkem768", {"truncate"}), ("mlkem1024", {"non200"}),
        ("x25519", {"drop_keylog"}), ("mlkem512", {"coalesce_request"}), ("x25519_mlkem768", set()),
    )
    spec = synth.ScenarioSpec(connections=tuple(
        clean_connection_spec(offset_ns=i * 1_500_000, seed=i + 1, group=group, anomalies=frozenset(anomalies))
        for i, (group, anomalies) in enumerate(kinds)
    ))
    frames, keylog_text, _ = synth.generate(spec)
    return frames, keylog_text


def test_file_order_shuffled_across_all_connections_gives_the_same_document(tmp_path):
    # first arrival is by timestamp, never by file order: frames whose timestamps no other frame
    # shares are dealt out in a random file order across every connection, and only `inputs` may
    # change (frames that tie on a timestamp keep their places: their file order breaks the tie)
    frames, keylog_text = _overlapping_run()
    keylog = tmp_path / "keylog.txt"
    keylog.write_text(keylog_text)
    reference = _analyzed_without_inputs(tmp_path, "reference", frames, keylog)
    assert reference["counts"] == {
        "total_streams": 6, "valid": 3, "partial": {"no_keys": 1, "truncated": 1}, "excluded": {"non200": 1},
    }
    spans = {}  # client port -> (first, last) timestamp
    for seg in decode_frames(frames):
        port = seg.src_port if seg.dst_port == 443 else seg.dst_port
        first, last = spans.get(port, (seg.timestamp_ns, seg.timestamp_ns))
        spans[port] = (min(first, seg.timestamp_ns), max(last, seg.timestamp_ns))
    assert len(spans) == 6 and max(a for a, _ in spans.values()) < min(b for _, b in spans.values())

    times = Counter(f.timestamp_ns for f in frames)
    movable = [i for i, f in enumerate(frames) if times[f.timestamp_ns] == 1]
    assert len(movable) > len(frames) * 3 // 4
    for seed in range(3):
        dealt = random.Random(seed).sample(movable, len(movable))
        shuffled = list(frames)
        for i, j in zip(movable, dealt):
            shuffled[i] = frames[j]
        assert shuffled != frames
        assert _analyzed_without_inputs(tmp_path, f"shuffled-{seed}", shuffled, keylog) == reference


HEADER_SPAN = 16 + 40 + 60  # longest link header + IPv6 header + TCP header with options


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    index=st.integers(min_value=0),
    ipv6=st.booleans(),
    link_type=st.sampled_from([1, 113, 101]),
    flips=st.lists(
        st.tuples(st.integers(0, HEADER_SPAN - 1), st.integers(1, 255)), max_size=4
    ),
    cut=st.one_of(st.none(), st.integers(0, HEADER_SPAN + 40)),
    orig_extra=st.sampled_from([0, 0, 1, 1500]),
    prefix=st.binary(max_size=64),
    suffix=st.binary(max_size=1600),
)
def test_decode_frame_matches_reference(index, ipv6, link_type, flips, cut, orig_extra, prefix, suffix):
    frames = _synth_frames()
    source = frames[index % len(frames)]
    data = bytearray(_relink(_to_ipv6(source.data) if ipv6 else source.data, link_type))
    for pos, mask in flips:
        if pos < len(data):
            data[pos] ^= mask
    if cut is not None:
        del data[cut:]
    data = bytes(data)
    frame = CapturedFrame(
        timestamp_ns=source.timestamp_ns, link_type=link_type, data=data, orig_len=len(data) + orig_extra
    )

    expected = _outcome(frame)
    assert _ingested(data, (frame.timestamp_ns, link_type, 0, len(data), frame.orig_len)) == expected
    # the same frame at an offset in a larger buffer: nothing outside its span may be read
    buf = prefix + data + suffix
    at = len(prefix)
    assert _ingested(buf, (frame.timestamp_ns, link_type, at, at + len(data), frame.orig_len)) == expected


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    index=st.integers(min_value=0),
    version_ihl=st.sampled_from([0x45, 0x45, 0x44, 0x46, 0x4F, 0x55, 0x65]),
    flags_frag=st.sampled_from([None, 0, 0x4000, 0x2000, 0x6000, 0x0001, 0x1FFF, 0x8000]),
    protocol=st.sampled_from([6, 6, 17]),
    total_len=st.one_of(st.none(), st.integers(0, 120)),
    data_offset=st.one_of(st.none(), st.integers(0, 15)),
    cut=st.one_of(st.none(), st.integers(40, 120)),
    trailer=st.binary(max_size=12),
    orig_extra=st.sampled_from([0, 0, 1, 1500]),
    prefix=st.binary(max_size=64),
    suffix=st.binary(max_size=64),
)
def test_ingest_matches_reference_on_ethernet_ipv4_fields(
    index, version_ihl, flags_frag, protocol, total_len, data_offset, cut, trailer, orig_extra, prefix, suffix
):
    # the fields the ingest loop's one-unpack branch reads, set to values on both sides of each of its checks
    source = _synth_frames()[index % len(_synth_frames())]
    data = bytearray(source.data + trailer)
    data[14] = version_ihl
    data[23] = protocol
    if flags_frag is not None:
        struct.pack_into(">H", data, 20, flags_frag)
    if total_len is not None:
        struct.pack_into(">H", data, 16, total_len)
    if data_offset is not None:
        data[46] = data_offset << 4 | data[46] & 0x0F
    if cut is not None:
        del data[cut:]
    data = bytes(data)
    frame = CapturedFrame(source.timestamp_ns, 1, data, len(data) + orig_extra)
    buf = prefix + data + suffix
    span = (frame.timestamp_ns, 1, len(prefix), len(prefix) + len(data), frame.orig_len)
    assert _ingested(buf, span) == _outcome(frame)


# -- several flows at once: the buckets, their order and the counts -------------------

# few addresses and ports, so flows share an address, a port or both, and a four-tuple may be looped
_ADDRESSES = (bytes([10, 0, 0, 1]), bytes([10, 0, 0, 2]), bytes([192, 168, 0, 1]))
_PORTS = (443, 40000, 40001)
# every branch of the ingest loop: the one-unpack Ethernet frame, the header reader's link layers
# and IP versions, and frames that are not TCP or are malformed
_ENCODINGS = ("ethernet", "ipv4 options", "sll", "raw ipv4", "ipv6 ethernet", "ipv6 raw", "arp", "cut")


def _encoded(frame, encoding):
    """The Ethernet/IPv4 frame `frame` in one of `_ENCODINGS`."""
    if encoding == "ipv4 options":
        return _with_ipv4_options(frame)
    if encoding == "arp":
        data = _non_tcp_before(frame)[0].data
        return frame._replace(data=data, orig_len=len(data))
    if encoding == "cut":
        return frame._replace(data=frame.data[:40])  # inside the TCP header
    data = _to_ipv6(frame.data) if encoding.startswith("ipv6") else frame.data
    link_type = {"ethernet": 1, "sll": 113, "raw ipv4": 101, "ipv6 ethernet": 1, "ipv6 raw": 101}[encoding]
    data = _relink(data, link_type)
    return frame._replace(link_type=link_type, data=data, orig_len=frame.orig_len + len(data) - len(frame.data))


def _reference_buckets(frames):
    """The frames grouped by the reference decoder: `{canonical four-tuple: entries}` in first-frame order,
    each entry `(ts, from_lower, flags, seq, payload, truncated)`, and the ingest counts."""
    groups, outcomes = {}, Counter()
    for frame in frames:
        outcome = _outcome(frame)
        outcomes[outcome[0]] += 1
        if outcome[0] == "packet":
            ts, src_ip, dst_ip, src_port, dst_port, flags, seq, payload, truncated = outcome[1]
            src, dst = (src_ip, src_port), (dst_ip, dst_port)
            key = src + dst if src <= dst else dst + src
            groups.setdefault(key, []).append((ts, src <= dst, flags, seq, payload, truncated))
    counts = {"frames": len(frames), "non_tcp_frames": outcomes["non-tcp"], "malformed_frames": outcomes["malformed"]}
    return groups, counts


_FLOW = st.tuples(st.sampled_from(_ADDRESSES), st.sampled_from(_PORTS), st.sampled_from(_ADDRESSES), st.sampled_from(_PORTS))


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    flows=st.lists(_FLOW, min_size=1, max_size=4),
    frames=st.lists(
        st.tuples(
            st.integers(min_value=0), st.booleans(), st.sampled_from(_ENCODINGS), st.binary(max_size=6),
            st.integers(0, 0xFF), st.booleans(),
        ),
        min_size=1, max_size=24,
    ),
)
def test_ingest_buckets_flows_across_link_layers_as_the_reference_does(flows, frames):
    # each frame goes one way or the other along one of the flows, in any encoding: the frames of
    # a flow share its bucket whatever link layer carries them, and an IPv6 flow is a flow of its own
    captured = []
    for i, (which, reverse, encoding, payload, flags, truncated) in enumerate(frames):
        flow = flows[which % len(flows)]
        (src_ip, src_port), (dst_ip, dst_port) = (flow[2:], flow[:2]) if reverse else (flow[:2], flow[2:])
        (frame,) = segment_frames([Segment(i * 1000, src_ip, dst_ip, src_port, dst_port, flags, i, payload, truncated)])
        captured.append(_encoded(frame, encoding))
    buf, spans = lay_out(captured)
    groups, counts = ingest_frames(buf, spans)
    got = {
        key: [(ts, from_lower, flags, seq, buf[start:end], truncated) for ts, from_lower, flags, seq, start, end, truncated in entries]
        for key, entries in groups.items()
    }
    want, want_counts = _reference_buckets(captured)
    # the same keys in the same order, each bucket's entries in file order, and the same counts
    assert list(got.items()) == list(want.items())
    assert counts == want_counts


def test_ingest_peak_memory_per_frame_is_bounded(tmp_path):
    # 300 short connections started 3 ms apart, with every key-share group, as in a load test of
    # many small transactions.  A bucket entry is a 7-tuple of small values; the flow table holds
    # one entry per direction of a flow.  At the time of writing ingest peaked at about 266 bytes
    # a frame here (Python 3.11), 251 before the flow table; a payload copy per frame, or a key
    # kept per frame, passes 300.
    key_shares = ("x25519", "mlkem512", "x25519_mlkem768", "mlkem1024")
    spec = synth.ScenarioSpec(connections=tuple(
        clean_connection_spec(offset_ns=i * 3_000_000, seed=i + 1, group=key_shares[i % 4], response_body_bytes=i * 7 % 1024)
        for i in range(300)
    ))
    frames, _, _ = synth.generate(spec)
    path = tmp_path / "handshakes.pcap"
    synth.emit_capture(frames, path)
    with map_capture(path) as buf:
        tracemalloc.start()
        try:
            _, counts = ingest_frames(buf, read_frames(buf, path))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert counts == {"frames": len(frames), "non_tcp_frames": 0, "malformed_frames": 0}
    assert peak / len(frames) < 300, (peak, len(frames))


def test_reference_agrees_on_unmutated_synth_frames():
    for source in _synth_frames():
        for data in (source.data, _to_ipv6(source.data)):
            for link_type in (1, 113, 101):
                frame = source._replace(link_type=link_type, data=_relink(data, link_type))
                expected = _outcome(frame)
                assert expected[0] == "packet"
                assert _packet_fields(frame) == expected[1]


def test_length_claim_past_the_frame_stops_at_the_frame_end(tmp_path):
    # Two back-to-back records in one chunk; the first one's IPv4 total
    # length claims 40 bytes more than its frame holds.
    first = bytearray(_eth_ipv4_tcp(payload=b"a" * 60))
    struct.pack_into(">H", first, 16, struct.unpack_from(">H", first, 16)[0] + 40)
    second = _eth_ipv4_tcp(payload=b"b" * 60)
    path = tmp_path / "two.pcap"
    synth.emit_capture([CapturedFrame(1, 1, bytes(first), len(first)), CapturedFrame(2, 1, second, len(second))], path)
    with map_capture(path) as buf:
        span1, span2 = read_frames(buf, path)
        end1 = span1[3]
        assert end1 + 16 == span2[2]  # the second record's header follows the first frame
        pkt = decode_span(buf, span1)
        assert pkt.payload == b"a" * 60
        assert pkt.truncated is True
        assert buf[end1 : end1 + 16] not in pkt.payload
        assert decode_span(buf, span2)[7:] == (b"b" * 60, False)
