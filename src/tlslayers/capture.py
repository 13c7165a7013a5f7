"""Packet capture files: classic pcap and pcapng, read and written.

Each on-disk header layout is stated once, below, without a byte order: the
readers prefix the file's, the writer (`emit_capture`) prefixes `"<"`.

`map_capture` is the one function that opens a capture file: it maps the
file read-only, as it is when opened, and the caller owns and closes the
map.  A capture that grows meanwhile is read up to its old end.
`read_frames` is the one format walk.  It yields each frame of a map as a
span of it, `(timestamp_ns, link_type, buf, start, end, orig_len)`, with an
integer-nanosecond timestamp whatever the file's resolution;
`capture_sha256` hashes the same mapped bytes, so a document names the
bytes it analyzed; `open_capture` opens, walks and closes a file, copying
spans out as `CapturedFrame`s.  Truncated trailing records are skipped with
a warning rather than aborting: partial captures of long load tests are
common.  Records skipped inside the file (zero-length records in either
format, short IDBs and EPBs, EPBs shorter than their caplen, and pcapng
Simple and obsolete Packet Blocks, which are not read) warn once per kind,
with their count, when the walk ends.  The pipeline's ingest loop
(`pipeline.ingest_frames`) decodes the spans; `decode` says which frames
take its one-unpack first branch.

Both formats are walked by offset over the one buffer, and every length
field is checked against the end of the file before it is trusted: a field
that claims more than the file holds is a truncated record, not an
allocation of the claimed size.  Classic pcap record headers are decoded in
place with one precompiled `struct.Struct`; each pcapng section has its own
byte order, read from the SHB's byte-order magic before any length in it is
trusted.

Resident memory is bounded by about `_CHUNK` plus one frame, not by the
file size: every `_CHUNK` bytes of file hashed or walked, the mapped pages
behind are released (`release_behind`: `MADV_DONTNEED`, so POSIX only); a
caller that still reads an earlier span faults its pages in again from the
page cache.  The pipeline does: its flow buckets, and the streams
reassembled from them, hold spans of the map, not copies, and the walk
releases pages behind itself with the same `release_behind`.  The readers
test the stride themselves and call `release_behind` only when a release is
due.  `pipeline.analyze_capture` holds the map from the hash to the end of
the walk and closes it then, or when the run raises.  A capture that
shrinks while its map is open ends the process with SIGBUS when a span
past its new end is read.
"""

from __future__ import annotations

import mmap
import os
import struct
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

from tlslayers.errors import MalformedHeader, UnknownLinkType, UnknownMagic, UnreadableFile, WriteFailure, warn

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
PCAPNG_IDB_TYPE = 0x00000001
PCAPNG_PB_TYPE = 0x00000002  # obsolete Packet Block
PCAPNG_SPB_TYPE = 0x00000003  # Simple Packet Block
PCAPNG_EPB_TYPE = 0x00000006
CAPTURE_FORMATS = ("pcap-us", "pcap-ns", "pcapng")  # what the readers accept and emit_capture writes

# struct layouts without a byte-order prefix
_PCAP_HEADER = "IHHiIII"  # magic, version major, minor, thiszone, sigfigs, snaplen, link type
_PCAP_RECORD = "IIII"  # ts_sec, ts_frac, caplen, orig_len
_BLOCK_HEADER = "II"  # block type, total length (repeated after the body)
_IDB = "HHI"  # link type, reserved, snaplen
_EPB = "IIIII"  # interface id, ts high, ts low, caplen, orig_len
_OPTION = "HH"  # option code, value length

# a pcap magic as read little-endian: (the file's byte order, ns per unit of ts_frac)
_PCAP_MAGICS = {PCAP_MAGIC_US: ("<", 1000), PCAP_MAGIC_NS: ("<", 1),
                PCAP_MAGIC_US_SWAPPED: (">", 1000), PCAP_MAGIC_NS_SWAPPED: (">", 1)}
_SHB_TYPE = struct.pack("<I", PCAPNG_SHB_TYPE)  # the same bytes in either byte order
_BYTE_ORDERS = {struct.pack("<I", PCAPNG_BYTE_ORDER_MAGIC): "<", struct.pack(">I", PCAPNG_BYTE_ORDER_MAGIC): ">"}

# release stride: the mapped pages behind the current frame are dropped every _CHUNK bytes walked
_CHUNK = 1 << 20


class CapturedFrame(NamedTuple):
    """One captured link-layer frame."""

    timestamp_ns: int
    link_type: int
    data: bytes
    orig_len: int  # length on the wire; > len(data) when snap-truncated


def map_capture(path: str | Path) -> mmap.mmap:
    """The capture file at `path` mapped read-only, as it is now; the caller closes the map.

    Raises UnreadableFile on I/O errors and UnknownMagic for a file shorter
    than any capture header.
    """
    path = Path(path)
    try:
        with path.open("rb") as fh:
            # mmap refuses an empty file, which is too short anyway
            if os.fstat(fh.fileno()).st_size >= 4:
                return mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
    except OSError as exc:
        raise UnreadableFile(f"{path}: {exc}") from exc
    raise UnknownMagic(f"{path}: file shorter than any capture header")


def read_frames(buf: mmap.mmap, path: str | Path) -> Iterator[tuple[int, int, mmap.mmap, int, int, int]]:
    """Each frame of `buf`, as `map_capture(path)` returned it, in file order: a span `(timestamp_ns, link_type,
    buf, start, end, orig_len)`.

    Raises UnknownMagic if the file is neither format, when called;
    UnknownLinkType for unsupported interfaces, as the walk reaches them.
    Warnings and errors name `path`.
    """
    name = str(Path(path))
    (magic,) = struct.unpack_from("<I", buf)
    if magic in _PCAP_MAGICS:
        return _read_pcap(buf, magic, name)
    if magic == PCAPNG_SHB_TYPE:
        return _read_pcapng(buf, name)
    raise UnknownMagic(f"{name}: magic 0x{magic:08X} is neither pcap nor pcapng")


def capture_sha256(buf: mmap.mmap) -> str:
    """The sha256 of the mapped capture, hashed in `_CHUNK` strides whose pages are released behind."""
    import hashlib  # not at module level: the CLI imports this module for --version and compare

    h = hashlib.sha256()
    released = 0
    for off in range(0, len(buf), _CHUNK):
        end = min(off + _CHUNK, len(buf))
        h.update(buf[off:end])
        released = release_behind(buf, released, end)
    return h.hexdigest()


def open_capture(path: str | Path) -> Iterator[CapturedFrame]:
    """Each frame of the capture file at `path` as a `CapturedFrame`; the map is closed when the walk ends."""
    with map_capture(path) as buf:
        for timestamp_ns, link_type, _buf, start, end, orig_len in read_frames(buf, path):
            yield CapturedFrame(timestamp_ns, link_type, buf[start:end], orig_len)


def release_behind(buf: mmap.mmap, released: int, offset: int) -> int:
    """Drop `buf`'s mapped pages from `released` to `offset` once that is `_CHUNK` or more.

    `offset` is rounded down to a page.  Returns where the next release starts,
    which the caller passes back as `released`.
    """
    if offset - released < _CHUNK:
        return released
    end = offset & -mmap.PAGESIZE
    if end > released:
        buf.madvise(mmap.MADV_DONTNEED, released, end - released)
        return end
    return released


def _read_pcap(buf: mmap.mmap, magic: int, name: str) -> Iterator[tuple[int, int, mmap.mmap, int, int, int]]:
    endian, frac_to_ns = _PCAP_MAGICS[magic]
    n = len(buf)
    if n < 24:
        raise MalformedHeader(f"{name}: pcap global header truncated")
    *_, network = struct.unpack_from(endian + _PCAP_HEADER, buf)
    if network not in SUPPORTED_LINK_TYPES:
        raise UnknownLinkType(f"{name}: link type {network} not supported")

    unpack_hdr = struct.Struct(endian + _PCAP_RECORD).unpack_from
    off = 24
    released = 0
    skipped = {"zero-length records": 0}
    while off < n:
        if n - off < 16:
            warn(__name__, "%s: truncated trailing record header, skipping", name)
            break
        ts_sec, ts_frac, caplen, origlen = unpack_hdr(buf, off)
        start = off + 16
        off = start + caplen
        if off > n:
            warn(__name__, "%s: truncated trailing record body, skipping", name)
            break
        if not caplen:
            skipped["zero-length records"] += 1
            continue
        if start - released >= _CHUNK:
            released = release_behind(buf, released, start)
        yield ts_sec * 1_000_000_000 + ts_frac * frac_to_ns, network, buf, start, off, origlen
    _warn_skipped(name, skipped)


def _read_pcapng(buf: mmap.mmap, name: str) -> Iterator[tuple[int, int, mmap.mmap, int, int, int]]:
    # Per-section state; each SHB sets the byte order and clears the interface list.
    endian = "<"
    interfaces: list[tuple[int, int]] = []  # (linktype, timestamp units per second)
    n = len(buf)
    off = released = 0
    # the kinds of record skipped and counted, in the order their warnings come
    skipped = dict.fromkeys(("short IDBs", "short EPBs", "EPBs shorter than caplen", "zero-length records",
                             "simple/obsolete packet blocks"), 0)
    while off < n:
        is_shb = buf[off : off + 4] == _SHB_TYPE
        # an SHB's byte-order magic says how to read the length before it
        if n - off < (12 if is_shb else 8):
            warn(__name__, "%s: truncated block header, stopping", name)
            break
        if is_shb:
            endian = _BYTE_ORDERS.get(buf[off + 8 : off + 12])
            if endian is None:
                raise UnknownMagic(f"{name}: bad pcapng byte-order magic")
            interfaces = []
        block_type, total_len = struct.unpack_from(endian + _BLOCK_HEADER, buf, off)
        if total_len < 12 or total_len % 4 != 0:
            warn(__name__, "%s: implausible block length %d, stopping", name, total_len)
            break
        body = off + 8
        off += total_len
        if off > n:
            warn(__name__, "%s: truncated block body, stopping", name)
            break
        body_len = total_len - 12  # the trailing duplicate length follows the body

        if block_type == PCAPNG_IDB_TYPE:
            if body_len < 8:
                skipped["short IDBs"] += 1
                continue
            linktype, _resv, _snaplen = struct.unpack_from(endian + _IDB, buf, body)
            if linktype not in SUPPORTED_LINK_TYPES:
                raise UnknownLinkType(f"{name}: link type {linktype} not supported")
            interfaces.append((linktype, _parse_tsresol(buf[body + 8 : off - 4], endian, name)))
        elif block_type == PCAPNG_EPB_TYPE:
            if body_len < 20:
                skipped["short EPBs"] += 1
                continue
            iface_id, ts_high, ts_low, caplen, origlen = struct.unpack_from(endian + _EPB, buf, body)
            if iface_id >= len(interfaces):
                raise MalformedHeader(f"{name}: EPB references undefined interface {iface_id}")
            if 20 + caplen > body_len:
                skipped["EPBs shorter than caplen"] += 1
                continue
            if not caplen:
                skipped["zero-length records"] += 1
                continue
            if body - released >= _CHUNK:
                released = release_behind(buf, released, body)
            linktype, units = interfaces[iface_id]
            ts_ns = ((ts_high << 32) | ts_low) * 1_000_000_000 // units
            yield ts_ns, linktype, buf, body + 20, body + 20 + caplen, origlen
        elif block_type in (PCAPNG_PB_TYPE, PCAPNG_SPB_TYPE):
            # not read: a Simple Packet Block has no timestamp, a Packet Block is obsolete
            skipped["simple/obsolete packet blocks"] += 1
        # all other block types are skipped without a word
    _warn_skipped(name, skipped)


def _warn_skipped(name: str, skipped: dict[str, int]) -> None:
    """One warning for each kind of record the walk skipped, with its count."""
    for kind, count in skipped.items():
        if count:
            warn(__name__, "%s: %d %s skipped", name, count, kind)


def _parse_tsresol(options: bytes, endian: str, name: str) -> int:
    """Timestamp units per second from an IDB option list's if_tsresol (option 9); 10**6 without one."""
    off = 0
    while off + 4 <= len(options):
        code, length = struct.unpack(endian + _OPTION, options[off : off + 4])
        off += 4
        if code == 0:  # opt_endofopt
            break
        val = options[off : off + length]
        if len(val) < length:
            raise MalformedHeader(f"{name}: IDB option {code} runs past its block")
        off += (length + 3) & ~3
        if code == 9 and length == 1:
            raw = val[0]
            return 2 ** (raw & 0x7F) if raw & 0x80 else 10**raw
    return 10**6


def emit_capture(frames: Iterable[CapturedFrame], path: str | Path, fmt: str = "pcap-ns") -> None:
    """Write frames to a bit-valid capture file in the requested format."""
    if fmt not in CAPTURE_FORMATS:
        raise ValueError(f"unknown capture format {fmt!r}")
    try:
        with open(path, "wb") as fh:
            if fmt == "pcapng":
                _write_pcapng(fh, frames)
            else:
                _write_pcap(fh, frames, ns=(fmt == "pcap-ns"))
    except OSError as exc:
        raise WriteFailure(f"{path}: {exc}") from exc


def _write_pcap(fh, frames, ns: bool) -> None:
    magic = PCAP_MAGIC_NS if ns else PCAP_MAGIC_US
    fh.write(struct.pack("<" + _PCAP_HEADER, magic, 2, 4, 0, 0, 262144, LINKTYPE_ETHERNET))
    pack_record = struct.Struct("<" + _PCAP_RECORD).pack
    for f in frames:
        sec, rem = divmod(f.timestamp_ns, 1_000_000_000)
        fh.write(pack_record(sec, rem if ns else rem // 1000, len(f.data), f.orig_len))
        fh.write(f.data)


def _block(block_type: int, body: bytes) -> bytes:
    body += bytes(-len(body) % 4)
    header = struct.pack("<" + _BLOCK_HEADER, block_type, len(body) + 12)
    return header + body + header[4:]  # the total length again


def _write_pcapng(fh, frames) -> None:
    fh.write(_block(PCAPNG_SHB_TYPE, struct.pack("<IHHq", PCAPNG_BYTE_ORDER_MAGIC, 1, 0, -1)))
    # one interface, if_tsresol = 9 (nanoseconds), then opt_endofopt
    opts = struct.pack("<" + _OPTION, 9, 1) + b"\x09\x00\x00\x00" + struct.pack("<" + _OPTION, 0, 0)
    fh.write(_block(PCAPNG_IDB_TYPE, struct.pack("<" + _IDB, LINKTYPE_ETHERNET, 0, 262144) + opts))
    pack_epb = struct.Struct("<" + _EPB).pack
    for f in frames:
        ts_high, ts_low = divmod(f.timestamp_ns, 1 << 32)
        fh.write(_block(PCAPNG_EPB_TYPE, pack_epb(0, ts_high, ts_low, len(f.data), f.orig_len) + f.data))
