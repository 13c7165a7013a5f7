"""TLS 1.3 wire formats: record layer, hello messages, key_share extension.

Parsing is bit-exact per RFC 8446.  The builders exist for the synthetic
generator and give the parser a round-trip partner.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import TYPE_CHECKING

from tlslayers.errors import (
    BadRecordHeader,
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

@dataclass(frozen=True)
class CipherSuite:
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

@dataclass(frozen=True)
class KeyExchangeGroup:
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


def expected_key_share_size(group: int | str) -> int:
    """Offered key_share payload size in bytes, fixed per group."""
    if isinstance(group, str):
        return group_by_name(group).client_share_len
    g = GROUPS_BY_ID.get(group)
    if g is None:
        raise UnknownGroup(f"key exchange group 0x{group:04X} not in the known table")
    return g.client_share_len


# -- record layer --------------------------------------------------------------

@dataclass(frozen=True)
class TlsRecord:
    content_type: int
    legacy_version: int
    body: bytes
    stream_offset: int
    timestamp_ns: int

    def header(self) -> bytes:
        return struct.pack(">BHH", self.content_type, self.legacy_version, len(self.body))


def parse_records(stream: DirectionalStream) -> tuple[list[TlsRecord], bool]:
    """Split a direction's bytes into records; (records, trailing_partial).

    trailing_partial is True when the stream ends (or hits a reassembly gap)
    inside a record.  Records before that point are returned; the walk
    decides what the missing tail means for the connection.
    """
    data = stream.data
    records: list[TlsRecord] = []
    off = 0
    n = len(data)
    while off < n:
        if off + 5 > n:
            return records, True
        ctype = data[off]
        version = (data[off + 1] << 8) | data[off + 2]
        length = (data[off + 3] << 8) | data[off + 4]
        if ctype not in _LEGAL_CONTENT_TYPES or version not in _LEGAL_VERSIONS:
            raise BadRecordHeader(
                f"illegal record header at offset {off}: type={ctype} version=0x{version:04X}"
            )
        if length > MAX_RECORD_BODY:
            raise OversizeRecord(f"record body of {length} bytes at offset {off}")
        if off + 5 + length > n:
            return records, True
        records.append(
            TlsRecord(
                content_type=ctype,
                legacy_version=version,
                body=data[off + 5 : off + 5 + length],
                stream_offset=off,
                timestamp_ns=stream.timestamp_at(off),
            )
        )
        off += 5 + length
    return records, stream.has_gap


def build_record(content_type: int, body: bytes, legacy_version: int = 0x0303) -> bytes:
    if len(body) > MAX_RECORD_BODY:
        raise OversizeRecord(f"record body of {len(body)} bytes")
    return struct.pack(">BHH", content_type, legacy_version, len(body)) + body


# -- handshake message framing ---------------------------------------------------

def build_handshake_message(msg_type: int, body: bytes) -> bytes:
    return bytes([msg_type]) + len(body).to_bytes(3, "big") + body


class HandshakeAccumulator:
    """Reassembles handshake messages that may span record boundaries.

    feed() returns completed (msg_type, body, first_byte_ts) tuples, where
    the timestamp is that of the record which carried the message's first
    byte.  One anchor is enough: `_buf_ts`, the time of the record that
    carried `_buf[0]`.  Because feed() drains every complete message, the
    first message a feed completes begins at `_buf[0]` (bytes left over
    from earlier records, or this record's if the buffer was empty), and
    every later one begins inside this record.
    """

    def __init__(self):
        self._buf = bytearray()
        self._buf_ts = 0

    def feed(self, data: bytes, ts: int) -> list[tuple[int, bytes, int]]:
        if not self._buf:
            self._buf_ts = ts
        self._buf.extend(data)
        out = []
        while len(self._buf) >= 4:
            msg_type = self._buf[0]
            length = int.from_bytes(self._buf[1:4], "big")
            if len(self._buf) < 4 + length:
                break
            out.append((msg_type, bytes(self._buf[4 : 4 + length]), self._buf_ts))
            del self._buf[: 4 + length]
            self._buf_ts = ts
        return out

    @property
    def pending(self) -> int:
        return len(self._buf)


# -- ClientHello / ServerHello ---------------------------------------------------

@dataclass(frozen=True)
class ClientHelloInfo:
    client_random: bytes
    total_length: int  # handshake message length incl. 4-byte header
    key_shares: tuple[tuple[int, int], ...]  # (group_id, key_exchange_length)
    offered_groups: tuple[int, ...]


@dataclass(frozen=True)
class ServerHelloInfo:
    server_random: bytes
    selected_group: int | None
    cipher_suite: str
    total_length: int
    is_hrr: bool = False


class _Reader:
    __slots__ = ("data", "pos")

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise MalformedHello(f"needed {n} bytes at {self.pos}, have {len(self.data)}")
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def u8(self) -> int:
        return self.take(1)[0]

    def u16(self) -> int:
        b = self.take(2)
        return (b[0] << 8) | b[1]

    def done(self) -> bool:
        return self.pos == len(self.data)


def parse_client_hello(msg: bytes) -> ClientHelloInfo:
    """Parse a ClientHello body: the handshake message after its 4-byte header."""
    r = _Reader(msg)
    r.take(2)  # legacy_version
    client_random = r.take(32)
    r.take(r.u8())  # legacy_session_id
    r.take(r.u16())  # cipher_suites
    r.take(r.u8())  # legacy_compression_methods

    key_shares: list[tuple[int, int]] = []
    offered_groups: list[int] = []
    if not r.done():
        ext_total = r.u16()
        ext = _Reader(r.take(ext_total))
        while not ext.done():
            ext_type = ext.u16()
            ext_data = _Reader(ext.take(ext.u16()))
            if ext_type == EXT_KEY_SHARE:
                shares_len = ext_data.u16()
                shares = _Reader(ext_data.take(shares_len))
                while not shares.done():
                    gid = shares.u16()
                    kex_len = shares.u16()
                    shares.take(kex_len)
                    key_shares.append((gid, kex_len))
            elif ext_type == EXT_SUPPORTED_GROUPS:
                groups = _Reader(ext_data.take(ext_data.u16()))
                while not groups.done():
                    offered_groups.append(groups.u16())
    return ClientHelloInfo(
        client_random=client_random,
        total_length=4 + len(msg),
        key_shares=tuple(key_shares),
        offered_groups=tuple(offered_groups),
    )


def parse_server_hello(msg: bytes) -> ServerHelloInfo:
    """Parse a ServerHello body: the handshake message after its 4-byte header."""
    r = _Reader(msg)
    r.take(2)  # legacy_version
    server_random = r.take(32)
    r.take(r.u8())  # legacy_session_id_echo
    suite = suite_by_id(r.u16())
    r.u8()  # legacy_compression_method
    is_hrr = server_random == HRR_RANDOM

    selected_group: int | None = None
    if not r.done():
        ext = _Reader(r.take(r.u16()))
        while not ext.done():
            ext_type = ext.u16()
            ext_data = _Reader(ext.take(ext.u16()))
            if ext_type == EXT_KEY_SHARE:
                selected_group = ext_data.u16()
                # HRR carries the bare group; ServerHello adds the share
                if not ext_data.done():
                    ext_data.take(ext_data.u16())
    return ServerHelloInfo(
        server_random=server_random,
        selected_group=selected_group,
        cipher_suite=suite.name,
        total_length=4 + len(msg),
        is_hrr=is_hrr,
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
