"""TLS 1.3 wire formats: record layer, hello messages, key_share extension.

Parsing is bit-exact per RFC 8446.  The builders exist for the synthetic
generator and give the parser a round-trip partner.

`parse_records` reads each record header where it lies in the stream's
one buffer and returns every record, but copies no body: a `TlsRecord`
keeps its stream and slices its body only when asked (`TlsRecord.body`), so
the walk copies only the records it opens.  A record that lies inside one
piece of its stream also keeps the index in the stream's buffer where its
body starts (`body_at`), and its body is one slice of that buffer; only a
record that straddles pieces is joined from them by
`DirectionalStream.read`.  A record's body can thus be read only while its
stream's buffer is open: in the pipeline, the capture's map
(`capture.map_capture`), which `pipeline.analyze_capture` closes when the
walk ends.

A direction's first handshake message (`first_handshake_message`) is read
straight from its record when that record holds all of it; leading records
are joined, by a `HandshakeAccumulator`, only when the message spans them.
"""

from __future__ import annotations

import struct
from bisect import bisect_right
from typing import TYPE_CHECKING, NamedTuple

from tlslayers.errors import (
    BadRecordHeader,
    GapAtOffset,
    MalformedHello,
    OversizeRecord,
    UnknownGroup,
    UnsupportedCipherSuite,
)

if TYPE_CHECKING:
    from tlslayers.reassembly import DirectionalStream

# record content types
CT_CHANGE_CIPHER_SPEC = 20
CT_ALERT = 21
CT_HANDSHAKE = 22
CT_APPLICATION_DATA = 23
_LEGAL_CONTENT_TYPES = frozenset({20, 21, 22, 23})
_LEGAL_VERSIONS = frozenset({0x0301, 0x0302, 0x0303})
MAX_RECORD_BODY = (1 << 14) + 256
_RECORD_HEADER = struct.Struct(">BHH")  # content type, legacy_version, length

# handshake message types
HT_CLIENT_HELLO = 1
HT_SERVER_HELLO = 2
HT_ENCRYPTED_EXTENSIONS = 8
HT_CERTIFICATE = 11
HT_CERTIFICATE_VERIFY = 15
HT_FINISHED = 20
HT_KEY_UPDATE = 24

# extension types
EXT_SUPPORTED_GROUPS = 10
EXT_SIGNATURE_ALGORITHMS = 13
EXT_SUPPORTED_VERSIONS = 43
EXT_KEY_SHARE = 51

HRR_RANDOM = bytes.fromhex(
    "cf21ad74e59a6111be1d8c021e65b891c2a211167abb8c5e079e09e2c8a8339c"
)


# -- cipher suites -------------------------------------------------------------

class CipherSuite(NamedTuple):
    name: str
    suite_id: int
    key_len: int
    hash_name: str  # "sha256" | "sha384"

    @property
    def secret_len(self) -> int:
        return 32 if self.hash_name == "sha256" else 48


_SUITES = (
    CipherSuite("AES_128_GCM_SHA256", 0x1301, 16, "sha256"),
    CipherSuite("AES_256_GCM_SHA384", 0x1302, 32, "sha384"),
    CipherSuite("CHACHA20_POLY1305_SHA256", 0x1303, 32, "sha256"),
)
SUITES_BY_ID = {s.suite_id: s for s in _SUITES}
SUITES_BY_NAME = {s.name: s for s in _SUITES}


def suite_by_id(suite_id: int) -> CipherSuite:
    suite = SUITES_BY_ID.get(suite_id)
    if suite is None:
        raise UnsupportedCipherSuite(f"cipher suite 0x{suite_id:04X} not supported")
    return suite


# -- key exchange groups -------------------------------------------------------

class KeyExchangeGroup(NamedTuple):
    name: str
    group_id: int
    client_share_len: int  # offered key_share payload, fixed per group
    server_share_len: int  # ServerHello share / ciphertext size
    components: tuple[str, ...] = ()  # hybrid parts, in additivity order


# Client share sizes are fixed by each algorithm's public specification
# (32 B x25519 point; 800/1184/1568 B ML-KEM encapsulation keys; hybrids
# concatenate).  X25519MLKEM512 has no public codepoint; a private-use
# value is assigned here.
_GROUPS = (
    KeyExchangeGroup("x25519", 0x001D, 32, 32),
    KeyExchangeGroup("mlkem512", 0x0200, 800, 768),
    KeyExchangeGroup("mlkem768", 0x0201, 1184, 1088),
    KeyExchangeGroup("mlkem1024", 0x0202, 1568, 1568),
    KeyExchangeGroup("x25519_mlkem512", 0xFE32, 832, 800, ("x25519", "mlkem512")),
    KeyExchangeGroup("x25519_mlkem768", 0x11EC, 1216, 1120, ("x25519", "mlkem768")),
)
GROUPS_BY_ID = {g.group_id: g for g in _GROUPS}


def _canon_group_name(name: str) -> str:
    return name.lower().replace("-", "").replace("_", "")


_GROUPS_BY_CANON = {_canon_group_name(g.name): g for g in _GROUPS}


def group_by_name(name: str) -> KeyExchangeGroup:
    g = _GROUPS_BY_CANON.get(_canon_group_name(name))
    if g is None:
        raise UnknownGroup(f"key exchange group {name!r} not in the known table")
    return g


def group_name(group_id: int) -> str:
    g = GROUPS_BY_ID.get(group_id)
    return g.name if g is not None else f"0x{group_id:04X}"


# -- record layer --------------------------------------------------------------

class TlsRecord(NamedTuple):
    content_type: int
    header: bytes  # the 5 header bytes as captured: the AEAD's additional data
    stream_offset: int
    end: int  # the stream offset just past the body
    timestamp_ns: int
    stream: DirectionalStream
    body_at: int = -1  # where the body starts in stream.buf, if the record lies in one piece; else -1

    @property
    def body(self) -> bytes:
        """The record's body, sliced out of its stream's buffer when asked for."""
        at = self.body_at
        if at < 0:
            return self.stream.read(self.stream_offset + 5, self.end)
        return self.stream.buf[at : at + self.end - self.stream_offset - 5]


_new_record = tuple.__new__  # builds a TlsRecord from one tuple, without the named tuple's Python __new__


def parse_records(stream: DirectionalStream) -> tuple[list[TlsRecord], bool]:
    """Split a direction's bytes into records; (records, trailing_partial).

    trailing_partial is True when the stream ends (or hits a reassembly gap)
    inside a record.  Records before that point are returned; the walk
    decides what the missing tail means for the connection.  Each record is
    stamped as `stream.timestamp_at(offset)` would stamp it.  A header is
    read where it lies in the stream's buffer (or joined by `stream.read`
    when it straddles two pieces); a body is not read here at all, but a
    record inside one piece notes where its body lies (`body_at`).
    """
    buf, offsets, times, starts = stream.buf, stream.offsets, stream.times, stream.starts
    count = len(offsets)
    records: list[TlsRecord] = []
    off = 0
    n = len(stream)
    piece = -1  # index of the last piece starting at or before off
    while off < n:
        if off + 5 > n:
            return records, True
        piece = bisect_right(offsets, off, piece + 1) - 1
        if piece < 0:
            raise GapAtOffset(f"offset {off} precedes first mapped byte")
        next_piece = offsets[piece + 1] if piece + 1 < count else n
        if next_piece < off + 5:
            header = stream.read(off, off + 5)
            ctype, version, length = _RECORD_HEADER.unpack(header)
        else:
            pos = starts[piece] + off - offsets[piece]
            ctype, version, length = _RECORD_HEADER.unpack_from(buf, pos)
            header = buf[pos : pos + 5]
        if ctype not in _LEGAL_CONTENT_TYPES or version not in _LEGAL_VERSIONS:
            raise BadRecordHeader(
                f"illegal record header at offset {off}: type={ctype} version=0x{version:04X}"
            )
        if length > MAX_RECORD_BODY:
            raise OversizeRecord(f"record body of {length} bytes at offset {off}")
        end = off + 5 + length
        if end > n:
            return records, True
        # a record inside one piece: its header was read where it lies, at pos
        body_at = pos + 5 if end <= next_piece else -1
        records.append(_new_record(TlsRecord, (ctype, header, off, end, times[piece], stream, body_at)))
        off = end
    return records, stream.has_gap


def build_record(content_type: int, body: bytes, legacy_version: int = 0x0303) -> bytes:
    if len(body) > MAX_RECORD_BODY:
        raise OversizeRecord(f"record body of {len(body)} bytes")
    return _RECORD_HEADER.pack(content_type, legacy_version, len(body)) + body


# -- handshake message framing ---------------------------------------------------

def build_handshake_message(msg_type: int, body: bytes) -> bytes:
    return bytes([msg_type]) + len(body).to_bytes(3, "big") + body


def _message_end(data, pos: int) -> int:
    """The index just past the handshake message whose 4-byte header starts at data[pos]: type, u24 length."""
    return pos + 4 + ((data[pos + 1] << 16) | (data[pos + 2] << 8) | data[pos + 3])


def first_handshake_message(records) -> tuple[int | None, bytes, int | None]:
    """(msg_type, body, first-byte ts) of a direction's first handshake message.

    CCS records are skipped; the search stops at the first other non-handshake
    record.  (None, b"", None) when no complete message comes first.  When the
    first handshake record holds the whole message, the message is sliced
    from it; only a message that spans records is joined, by a
    `HandshakeAccumulator`.
    """
    acc = None
    for rec in records:
        content_type = rec.content_type
        if content_type == CT_CHANGE_CIPHER_SPEC:
            continue
        if content_type != CT_HANDSHAKE:
            break
        data = rec.body
        if acc is None:
            if len(data) >= 4:
                end = _message_end(data, 0)
                if end <= len(data):
                    return data[0], data[4:end], rec.timestamp_ns
            acc = HandshakeAccumulator()
        for message in acc.feed(data, rec.timestamp_ns):
            return message
    return None, b"", None


class HandshakeAccumulator:
    """Reassembles handshake messages that may span record boundaries.

    feed() returns completed (msg_type, body, first_byte_ts) tuples, where
    the timestamp is that of the record which carried the message's first
    byte.  One anchor is enough: `_buf_ts`, the time of the record that
    carried `_buf[0]`.  Because feed() drains every complete message, the
    first message a feed completes begins at `_buf[0]` (bytes left over
    from earlier records, or this record's if the buffer was empty), and
    every later one begins inside this record.  With nothing pending,
    messages are sliced straight out of the record and only a partial tail
    is buffered; with bytes pending, the record is appended to the buffer,
    so a message spread over many records is copied once.
    """

    def __init__(self):
        self._buf = bytearray()
        self._buf_ts = 0

    def feed(self, data: bytes, ts: int) -> list[tuple[int, bytes, int]]:
        buf = self._buf
        out = []
        if not buf:
            # nothing pending: parse straight out of data, keep only a partial tail
            pos = 0
            n = len(data)
            while pos + 4 <= n:
                end = _message_end(data, pos)
                if end > n:
                    break
                out.append((data[pos], data[pos + 4 : end], ts))
                pos = end
            if pos < n:
                buf += data[pos:]
                self._buf_ts = ts
            return out
        buf += data
        while len(buf) >= 4:
            end = _message_end(buf, 0)
            if len(buf) < end:
                break
            out.append((buf[0], bytes(buf[4:end]), self._buf_ts))
            del buf[:end]
            self._buf_ts = ts
        return out

    @property
    def pending(self) -> int:
        return len(self._buf)


# -- ClientHello / ServerHello ---------------------------------------------------

class ClientHelloInfo(NamedTuple):
    client_random: bytes
    total_length: int  # handshake message length incl. 4-byte header
    key_shares: tuple[tuple[int, int], ...]  # (group_id, key_exchange_length)


class ServerHelloInfo(NamedTuple):
    selected_group: int | None
    cipher_suite: str
    total_length: int
    is_hrr: bool = False


def _overrun(pos: int, need: int, end: int) -> MalformedHello:
    return MalformedHello(f"needed {need} bytes at {pos}, block ends at {end}")


def _block(msg: bytes, pos: int, end: int) -> tuple[int, int]:
    """(start, stop) of the u16-length-prefixed block at pos inside a block ending at end."""
    start = pos + 2
    if start > end:
        raise _overrun(pos, 2, end)
    stop = start + ((msg[pos] << 8) | msg[pos + 1])
    if stop > end:
        raise _overrun(start, stop - start, end)
    return start, stop


def _extensions(msg: bytes, pos: int) -> tuple[int, int]:
    """(start, stop) of the extensions block at pos; (pos, pos) when the message ends there."""
    n = len(msg)
    if pos < n:
        return _block(msg, pos, n)
    if pos > n:
        raise MalformedHello(f"field before byte {pos} runs past the message end at {n}")
    return pos, pos


def parse_client_hello(msg: bytes) -> ClientHelloInfo:
    """Parse a ClientHello body: the handshake message after its 4-byte header.

    Every length is checked against the end of the block that encloses it:
    the message, the extensions block, one extension or the key_share list.
    """
    n = len(msg)
    if n < 35:  # legacy_version, random, legacy_session_id length
        raise _overrun(0, 35, n)
    pos = 35 + msg[34]  # past legacy_session_id
    pos = _block(msg, pos, n)[1]  # past cipher_suites
    if pos >= n:
        raise _overrun(pos, 1, n)
    ext, ext_end = _extensions(msg, pos + 1 + msg[pos])  # past legacy_compression_methods

    key_shares: list[tuple[int, int]] = []
    while ext < ext_end:
        if ext + 4 > ext_end:
            raise _overrun(ext, 4, ext_end)
        data, data_end = _block(msg, ext + 2, ext_end)
        if ((msg[ext] << 8) | msg[ext + 1]) == EXT_KEY_SHARE:
            share, shares_end = _block(msg, data, data_end)
            while share < shares_end:
                if share + 4 > shares_end:
                    raise _overrun(share, 4, shares_end)
                kex_len = (msg[share + 2] << 8) | msg[share + 3]
                key_shares.append(((msg[share] << 8) | msg[share + 1], kex_len))
                share += 4 + kex_len
                if share > shares_end:
                    raise _overrun(share - kex_len, kex_len, shares_end)
        ext = data_end
    return ClientHelloInfo(
        client_random=msg[2:34],
        total_length=4 + n,
        key_shares=tuple(key_shares),
    )


def parse_server_hello(msg: bytes) -> ServerHelloInfo:
    """Parse a ServerHello body: the handshake message after its 4-byte header.

    Lengths are checked as in `parse_client_hello`.
    """
    n = len(msg)
    if n < 35:  # legacy_version, random, legacy_session_id_echo length
        raise _overrun(0, 35, n)
    pos = 35 + msg[34]  # past legacy_session_id_echo
    if pos + 2 > n:
        raise _overrun(pos, 2, n)
    suite = suite_by_id((msg[pos] << 8) | msg[pos + 1])
    ext, ext_end = _extensions(msg, pos + 3)  # past legacy_compression_method

    selected_group: int | None = None
    while ext < ext_end:
        if ext + 4 > ext_end:
            raise _overrun(ext, 4, ext_end)
        data, data_end = _block(msg, ext + 2, ext_end)
        if ((msg[ext] << 8) | msg[ext + 1]) == EXT_KEY_SHARE:
            if data + 2 > data_end:
                raise _overrun(data, 2, data_end)
            selected_group = (msg[data] << 8) | msg[data + 1]
            # HRR carries the bare group; ServerHello adds the share
            if data + 2 < data_end:
                _block(msg, data + 2, data_end)
        ext = data_end
    return ServerHelloInfo(
        selected_group=selected_group,
        cipher_suite=suite.name,
        total_length=4 + n,
        is_hrr=msg[2:34] == HRR_RANDOM,
    )


# -- builders (synthetic generator / round-trip tests) ---------------------------

def _extension(ext_type: int, data: bytes) -> bytes:
    return struct.pack(">HH", ext_type, len(data)) + data


def render_client_hello(
    client_random: bytes,
    key_shares: list[tuple[int, bytes]],
    offered_groups: list[int] | None = None,
    session_id: bytes = b"",
    cipher_suite_ids: list[int] | None = None,
) -> bytes:
    """Build a ClientHello handshake message (with 4-byte header)."""
    if len(client_random) != 32:
        raise ValueError("client_random must be 32 bytes")
    if offered_groups is None:
        offered_groups = [gid for gid, _ in key_shares]
    if cipher_suite_ids is None:
        cipher_suite_ids = [s.suite_id for s in _SUITES]

    shares = b"".join(
        struct.pack(">HH", gid, len(share)) + share for gid, share in key_shares
    )
    groups = b"".join(struct.pack(">H", gid) for gid in offered_groups)
    sig_algs = struct.pack(">HHH", 4, 0x0804, 0x0401)  # rsa_pss_rsae_sha256, rsa_pkcs1_sha256

    extensions = (
        _extension(EXT_SUPPORTED_VERSIONS, struct.pack(">BH", 2, 0x0304))
        + _extension(EXT_SUPPORTED_GROUPS, struct.pack(">H", len(groups)) + groups)
        + _extension(EXT_SIGNATURE_ALGORITHMS, sig_algs)
        + _extension(EXT_KEY_SHARE, struct.pack(">H", len(shares)) + shares)
    )
    body = (
        struct.pack(">H", 0x0303)
        + client_random
        + bytes([len(session_id)])
        + session_id
        + struct.pack(">H", 2 * len(cipher_suite_ids))
        + b"".join(struct.pack(">H", sid) for sid in cipher_suite_ids)
        + b"\x01\x00"  # legacy_compression_methods
        + struct.pack(">H", len(extensions))
        + extensions
    )
    return build_handshake_message(HT_CLIENT_HELLO, body)


def render_server_hello(
    server_random: bytes,
    suite_id: int,
    key_share: tuple[int, bytes] | None,
    session_id_echo: bytes = b"",
) -> bytes:
    if len(server_random) != 32:
        raise ValueError("server_random must be 32 bytes")
    extensions = _extension(EXT_SUPPORTED_VERSIONS, struct.pack(">H", 0x0304))
    if key_share is not None:
        gid, share = key_share
        if share:
            extensions += _extension(EXT_KEY_SHARE, struct.pack(">HH", gid, len(share)) + share)
        else:
            extensions += _extension(EXT_KEY_SHARE, struct.pack(">H", gid))
    body = (
        struct.pack(">H", 0x0303)
        + server_random
        + bytes([len(session_id_echo)])
        + session_id_echo
        + struct.pack(">H", suite_id)
        + b"\x00"
        + struct.pack(">H", len(extensions))
        + extensions
    )
    return build_handshake_message(HT_SERVER_HELLO, body)
