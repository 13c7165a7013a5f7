"""Capture files and link-layer encodings built byte by byte, for the tests and for ci/checks.py.

Each layout is written once here: classic pcap files (`pcap_bytes`, and
`emit_pcap` for frames of any link type), pcapng blocks (`ng_block` and the
`shb`, `idb` and `epb` built on it), and the re-encodings of an
Ethernet/IPv4/TCP frame on another link layer, over IPv6, with IPv4 options
or with an Ethernet trailer.  Ethernet/IPv4/TCP frames themselves are
`synth._tcp_frame`'s.
"""

import struct

from tlslayers.capture import emit_capture

SNAPLEN = 262144  # as capture.emit_capture writes it; no reader checks it

# -- pcap ------------------------------------------------------------------------------


def pcap_bytes(endian, magic, records, tail=b"", link_type=1):
    """A pcap file in byte order `endian`: the header, each (ts_sec, ts_frac, data, orig_len) record, then `tail`."""
    out = [struct.pack(endian + "IHHiIII", magic, 2, 4, 0, 0, SNAPLEN, link_type)]
    for ts_sec, ts_frac, data, orig_len in records:
        out.append(struct.pack(endian + "IIII", ts_sec, ts_frac, len(data), orig_len) + data)
    return b"".join(out) + tail


def emit_pcap(frames, path):
    """The frames as a pcap-ns file by `capture.emit_capture`, which writes Ethernet into the header; the
    header's link type is then set to the one link type the frames share."""
    (link_type,) = {f.link_type for f in frames}
    emit_capture(frames, path, "pcap-ns")
    with open(path, "r+b") as fh:
        fh.seek(20)  # the header's link type
        fh.write(struct.pack("<I", link_type))


# -- pcapng ----------------------------------------------------------------------------


def ng_block(endian, block_type, body, total=None):
    """One pcapng block, its body padded to 4 bytes; `total` overrides the length fields."""
    body += bytes(-len(body) % 4)
    total = len(body) + 12 if total is None else total
    return struct.pack(endian + "II", block_type, total) + body + struct.pack(endian + "I", total)


def shb(endian):
    """A section header block: byte-order magic, version 1.0, section length unknown."""
    return ng_block(endian, 0x0A0D0D0A, struct.pack(endian + "IHHq", 0x1A2B3C4D, 1, 0, -1))


def tsresol(endian, exponent):
    """IDB options: if_tsresol 10**-exponent seconds, then opt_endofopt."""
    return struct.pack(endian + "HH", 9, 1) + bytes([exponent, 0, 0, 0]) + struct.pack(endian + "HH", 0, 0)


def idb(endian, link_type, options=b""):
    """An interface description block; without an if_tsresol option its units are microseconds."""
    return ng_block(endian, 1, struct.pack(endian + "HHI", link_type, 0, SNAPLEN) + options)


def epb(endian, iface, ticks, data, orig_len=None):
    """An enhanced packet block of `data` on interface `iface`, stamped `ticks` of that interface's units."""
    orig_len = len(data) if orig_len is None else orig_len
    return ng_block(endian, 6, struct.pack(endian + "IIIII", iface, ticks >> 32, ticks & 0xFFFFFFFF, len(data), orig_len) + data)


# -- link-layer re-encodings of an Ethernet/IPv4/TCP frame -----------------------------


def to_ipv6(eth_frame):
    """Re-encode an Ethernet/IPv4 frame as Ethernet/IPv6 with the same TCP segment and trailer."""
    ihl = (eth_frame[14] & 0x0F) * 4
    total_len = struct.unpack_from(">H", eth_frame, 16)[0]
    src, dst = eth_frame[26:30], eth_frame[30:34]
    segment = eth_frame[14 + ihl :]
    ip6 = struct.pack(">IHBB", 6 << 28, total_len - ihl, 6, 64) + src * 4 + dst * 4
    return eth_frame[:12] + b"\x86\xdd" + ip6 + segment


def relink(eth_frame, link_type):
    """The Ethernet frame's IP packet on link type 1 (Ethernet), 113 (Linux SLL, the source MAC kept) or 101 (raw IP)."""
    if link_type == 1:
        return eth_frame
    if link_type == 113:
        return struct.pack(">HHH8s", 0, 1, 6, eth_frame[6:12] + bytes(2)) + eth_frame[12:]
    return eth_frame[14:]


def reencoded(frame, link_type, ipv6=False):
    """The Ethernet/IPv4 `frame` relinked to `link_type`, over IPv6 if `ipv6`; its orig_len changes as its data does."""
    data = relink(to_ipv6(frame.data) if ipv6 else frame.data, link_type)
    return frame._replace(link_type=link_type, data=data, orig_len=frame.orig_len + len(data) - len(frame.data))


def with_trailer(frame):
    """The frame with 6 bytes of Ethernet trailer padding after the IP datagram; a snap-cut frame lost it."""
    if frame.orig_len > len(frame.data):
        return frame._replace(orig_len=frame.orig_len + 6)
    return frame._replace(data=frame.data + bytes(6), orig_len=frame.orig_len + 6)


def with_ipv4_options(frame):
    """The Ethernet/IPv4 frame with 4 bytes of NOP options in its IP header (IHL 6)."""
    data = bytearray(frame.data[:34])
    data[14] = 0x46
    struct.pack_into(">H", data, 16, struct.unpack_from(">H", data, 16)[0] + 4)
    return frame._replace(data=bytes(data) + b"\x01" * 4 + frame.data[34:], orig_len=frame.orig_len + 4)
