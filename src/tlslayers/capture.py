"""Packet capture ingest: classic pcap and pcapng readers.

`read_frames` is the one reader.  It yields each frame as a span of the
chunk or block it already read, `(timestamp_ns, link_type, buf, start, end,
orig_len)`, with an integer-nanosecond timestamp whatever the file's
resolution; `open_capture` copies spans out as `CapturedFrame`s.  Truncated
trailing records are skipped with a warning rather than aborting: partial
captures of long load tests are common.

Classic pcap is read in fixed chunks of `_CHUNK` bytes, each record header
decoded in place with one precompiled `struct.Struct`.  A record that runs
past the end of a chunk is completed with one read of its remainder, so
memory is bounded by about two chunks plus the largest record, never by the
file size.  A read never asks for more than the file has left: a length
field that claims more is a truncated record, not an allocation of the
claimed size.  pcapng is read one block at a time; each section has its own
byte order, read from the SHB's byte-order magic before any length in it is
trusted.
"""

from __future__ import annotations

import logging
import os
import struct
from pathlib import Path
from typing import BinaryIO, Iterator, NamedTuple

from tlslayers.errors import MalformedHeader, UnknownLinkType, UnknownMagic, UnreadableFile

logger = logging.getLogger(__name__)

LINKTYPE_ETHERNET = 1
LINKTYPE_RAW_IP = 101
LINKTYPE_LINUX_SLL = 113
SUPPORTED_LINK_TYPES = frozenset({LINKTYPE_ETHERNET, LINKTYPE_RAW_IP, LINKTYPE_LINUX_SLL})

PCAP_MAGIC_US = 0xA1B2C3D4
PCAP_MAGIC_NS = 0xA1B23C4D
PCAP_MAGIC_US_SWAPPED = 0xD4C3B2A1
PCAP_MAGIC_NS_SWAPPED = 0x4D3CB2A1
PCAPNG_SHB_TYPE = 0x0A0D0D0A
PCAPNG_BYTE_ORDER_MAGIC = 0x1A2B3C4D
CAPTURE_FORMATS = ("pcap-us", "pcap-ns", "pcapng")  # what the readers accept and synth writes

_SHB_TYPE = struct.pack("<I", PCAPNG_SHB_TYPE)  # the same bytes in either byte order
_BYTE_ORDERS = {struct.pack("<I", PCAPNG_BYTE_ORDER_MAGIC): "<", struct.pack(">I", PCAPNG_BYTE_ORDER_MAGIC): ">"}
_IDB = 0x00000001
_EPB = 0x00000006

# pcap read size; reading in chunks keeps peak memory independent of file size
_CHUNK = 1 << 20


class CapturedFrame(NamedTuple):
    """One captured link-layer frame."""

    timestamp_ns: int
    link_type: int
    data: bytes
    orig_len: int  # length on the wire; > len(data) when snap-truncated


def read_frames(path: str | Path) -> Iterator[tuple[int, int, bytes, int, int, int]]:
    """Yield each frame in file order as `(timestamp_ns, link_type, buf, start, end, orig_len)`, a span of `buf`.

    Raises UnreadableFile on I/O errors, UnknownMagic if the file is neither
    format, UnknownLinkType for unsupported interfaces.
    """
    path = Path(path)
    try:
        fh = path.open("rb")
    except OSError as exc:
        raise UnreadableFile(f"{path}: {exc}") from exc
    with fh:
        try:
            head = fh.read(4)
        except OSError as exc:
            raise UnreadableFile(f"{path}: {exc}") from exc
        if len(head) < 4:
            raise UnknownMagic(f"{path}: file shorter than any capture header")
        (magic,) = struct.unpack("<I", head)
        if magic in (PCAP_MAGIC_US, PCAP_MAGIC_NS, PCAP_MAGIC_US_SWAPPED, PCAP_MAGIC_NS_SWAPPED):
            yield from _read_pcap(fh, magic, str(path))
        elif magic == PCAPNG_SHB_TYPE:
            fh.seek(0)  # the pcapng reader starts at the first block's type field
            yield from _read_pcapng(fh, str(path))
        else:
            raise UnknownMagic(f"{path}: magic 0x{magic:08X} is neither pcap nor pcapng")


def open_capture(path: str | Path) -> Iterator[CapturedFrame]:
    """`read_frames` with each frame copied out as a `CapturedFrame`."""
    for timestamp_ns, link_type, buf, start, end, orig_len in read_frames(path):
        yield CapturedFrame(timestamp_ns, link_type, buf[start:end], orig_len)


def _read_pcap(fh: BinaryIO, magic: int, name: str) -> Iterator[tuple[int, int, bytes, int, int, int]]:
    if magic in (PCAP_MAGIC_US, PCAP_MAGIC_NS):
        endian = "<"
    else:
        endian = ">"
        magic = struct.unpack(">I", struct.pack("<I", magic))[0]
    frac_to_ns = 1000 if magic == PCAP_MAGIC_US else 1

    rest = fh.read(20)
    if len(rest) < 20:
        raise MalformedHeader(f"{name}: pcap global header truncated")
    _vmaj, _vmin, _tz, _sigfigs, _snaplen, network = struct.unpack(endian + "HHiIII", rest)
    if network not in SUPPORTED_LINK_TYPES:
        raise UnknownLinkType(f"{name}: link type {network} not supported")

    unpack_hdr = struct.Struct(endian + "IIII").unpack_from
    tail = b""  # the start of a record header cut by the previous chunk's end
    while True:
        chunk = fh.read(min(_CHUNK, _left(fh)))
        if not chunk:
            if tail:
                logger.warning("%s: truncated trailing record header, skipping", name)
            return
        buf = tail + chunk if tail else chunk
        n = len(buf)
        off = 0
        while n - off >= 16:
            ts_sec, ts_frac, caplen, origlen = unpack_hdr(buf, off)
            start = off + 16
            off = start + caplen
            frame = buf
            if off > n:
                missing = off - n
                more = fh.read(missing) if missing <= _left(fh) else b""
                if len(more) < missing:
                    logger.warning("%s: truncated trailing record body, skipping", name)
                    return
                frame, start = buf[start:] + more, 0  # the one frame copy: a record across the chunk edge
                off = n
            if not caplen:
                logger.warning("%s: zero-length record, skipping", name)
                continue
            yield ts_sec * 1_000_000_000 + ts_frac * frac_to_ns, network, frame, start, start + caplen, origlen
        tail = buf[off:]


def _pcapng_ts_to_ns(ticks: int, resol_pow10: int | None, resol_pow2: int | None) -> int:
    if resol_pow2 is not None:
        return (ticks * 1_000_000_000) >> resol_pow2
    n = 6 if resol_pow10 is None else resol_pow10
    if n <= 9:
        return ticks * 10 ** (9 - n)
    return ticks // 10 ** (n - 9)


def _left(fh: BinaryIO) -> int:
    """Bytes between the read position and the end of the (regular) file."""
    return max(0, os.fstat(fh.fileno()).st_size - fh.tell())  # 0 if the file shrank under us


def _read_pcapng(fh: BinaryIO, name: str) -> Iterator[tuple[int, int, bytes, int, int, int]]:
    # Per-section state; each SHB sets the byte order and clears the interface list.
    endian = "<"
    interfaces: list[tuple[int, int | None, int | None]] = []  # (linktype, pow10, pow2)

    while True:
        head = fh.read(8)
        if not head:
            return
        is_shb = head[:4] == _SHB_TYPE
        if is_shb:
            head += fh.read(4)  # the byte-order magic, which says how to read the length before it
        if len(head) < (12 if is_shb else 8):
            logger.warning("%s: truncated block header, stopping", name)
            return
        if is_shb:
            endian = _BYTE_ORDERS.get(head[8:])
            if endian is None:
                raise UnknownMagic(f"{name}: bad pcapng byte-order magic")
            interfaces = []
        block_type, total_len = struct.unpack_from(endian + "II", head)
        if total_len < 12 or total_len % 4 != 0:
            logger.warning("%s: implausible block length %d, stopping", name, total_len)
            return
        need = total_len - len(head)
        rest = fh.read(need) if need <= _left(fh) else b""
        if len(rest) < need:
            logger.warning("%s: truncated block body, stopping", name)
            return
        body_end = need - 4  # the trailing duplicate length follows the body

        if block_type == _IDB:
            if body_end < 8:
                logger.warning("%s: short IDB, skipping", name)
                continue
            linktype, _resv, _snaplen = struct.unpack_from(endian + "HHI", rest)
            if linktype not in SUPPORTED_LINK_TYPES:
                raise UnknownLinkType(f"{name}: link type {linktype} not supported")
            pow10, pow2 = _parse_tsresol(rest[8:body_end], endian, name)
            interfaces.append((linktype, pow10, pow2))
        elif block_type == _EPB:
            if body_end < 20:
                logger.warning("%s: short EPB, skipping", name)
                continue
            iface_id, ts_high, ts_low, caplen, origlen = struct.unpack_from(endian + "IIIII", rest)
            if iface_id >= len(interfaces):
                raise MalformedHeader(f"{name}: EPB references undefined interface {iface_id}")
            if 20 + caplen > body_end:
                logger.warning("%s: EPB shorter than caplen, skipping", name)
                continue
            if caplen == 0:
                continue
            linktype, pow10, pow2 = interfaces[iface_id]
            yield _pcapng_ts_to_ns((ts_high << 32) | ts_low, pow10, pow2), linktype, rest, 20, 20 + caplen, origlen
        # all other block types are skipped


def _parse_tsresol(options: bytes, endian: str, name: str) -> tuple[int | None, int | None]:
    """Extract if_tsresol (option 9) from an IDB option list."""
    off = 0
    while off + 4 <= len(options):
        code, length = struct.unpack(endian + "HH", options[off : off + 4])
        off += 4
        if code == 0:  # opt_endofopt
            break
        val = options[off : off + length]
        if len(val) < length:
            raise MalformedHeader(f"{name}: IDB option {code} runs past its block")
        off += (length + 3) & ~3
        if code == 9 and length == 1:
            raw = val[0]
            if raw & 0x80:
                return None, raw & 0x7F
            return raw, None
    return None, None
