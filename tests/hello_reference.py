"""Reference hello parsers: a cursor that checks every read against its slice.

These are the `_Reader`-based parsers `tlswire` used before it parsed hellos
by offset.  The differential test in test_tlswire.py requires the offset
parsers to return the same info, or raise the same exception type, on any
input.
"""

from tlslayers.errors import MalformedHello
from tlslayers.tlswire import (
    EXT_KEY_SHARE,
    HRR_RANDOM,
    ClientHelloInfo,
    ServerHelloInfo,
    suite_by_id,
)


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


def reference_client_hello(msg: bytes) -> ClientHelloInfo:
    """Parse a ClientHello body: the handshake message after its 4-byte header."""
    r = _Reader(msg)
    r.take(2)  # legacy_version
    client_random = r.take(32)
    r.take(r.u8())  # legacy_session_id
    r.take(r.u16())  # cipher_suites
    r.take(r.u8())  # legacy_compression_methods

    key_shares: list[tuple[int, int]] = []
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
    return ClientHelloInfo(
        client_random=client_random,
        total_length=4 + len(msg),
        key_shares=tuple(key_shares),
    )


def reference_server_hello(msg: bytes) -> ServerHelloInfo:
    """Parse a ServerHello body: the handshake message after its 4-byte header."""
    r = _Reader(msg)
    r.take(2)  # legacy_version
    is_hrr = r.take(32) == HRR_RANDOM  # random
    r.take(r.u8())  # legacy_session_id_echo
    suite = suite_by_id(r.u16())
    r.u8()  # legacy_compression_method

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
        selected_group=selected_group,
        cipher_suite=suite.name,
        total_length=4 + len(msg),
        is_hrr=is_hrr,
    )
