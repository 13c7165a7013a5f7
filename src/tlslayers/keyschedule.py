"""TLS 1.3 traffic-key derivation and record decryption.

Traffic secrets come straight from the key log, so only the
HKDF-Expand-Label step of the RFC 8446 key schedule is needed here; the
AEAD primitives come from the `cryptography` package.
"""

from __future__ import annotations

import hashlib
import hmac
import struct
from dataclasses import dataclass
from typing import NamedTuple

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import AESGCM, ChaCha20Poly1305

from tlslayers.errors import AuthFailure, EmptyInnerPlaintext, LengthMismatch
from tlslayers.tlswire import CT_APPLICATION_DATA, SUITES_BY_NAME, CipherSuite, TlsRecord

NONCE_LEN = 12


def hkdf_expand(prk: bytes, info: bytes, length: int, hash_name: str) -> bytes:
    """HKDF-Expand per RFC 5869 §2.3."""
    out = b""
    t = b""
    counter = 1
    while len(out) < length:
        t = hmac.digest(prk, t + info + bytes([counter]), hash_name)
        out += t
        counter += 1
    return out[:length]


def _hkdf_label(label: bytes, context: bytes, length: int) -> bytes:
    """The HkdfLabel structure of RFC 8446 §7.1."""
    full_label = b"tls13 " + label
    return struct.pack(">H", length) + bytes([len(full_label)]) + full_label + bytes([len(context)]) + context


def hkdf_expand_label(secret: bytes, label: bytes, context: bytes, length: int, hash_name: str) -> bytes:
    """HKDF-Expand-Label per RFC 8446 §7.1."""
    return hkdf_expand(secret, _hkdf_label(label, context, length), length, hash_name)


@dataclass
class TrafficKeys:
    """Write key, IV, the AEAD built from the key, and the per-record sequence counter."""

    key: bytes
    iv: bytes
    aead: AESGCM | ChaCha20Poly1305
    sequence_counter: int = 0

    def nonce(self) -> bytes:
        """The IV XOR the counter left-padded to 12 bytes (RFC 8446 §5.3)."""
        return (int.from_bytes(self.iv, "big") ^ self.sequence_counter).to_bytes(NONCE_LEN, "big")


class _SuiteKeying(NamedTuple):
    secret_len: int
    hash_name: str
    key_len: int
    key_info: bytes  # HkdfLabel for "key", then the T(1) counter byte
    iv_info: bytes  # likewise for "iv"
    aead: type[AESGCM] | type[ChaCha20Poly1305]


def _suite_keying(suite: CipherSuite) -> _SuiteKeying:
    # key and IV each fit in one hash block, so HKDF-Expand is T(1) alone (RFC 5869 §2.3)
    assert max(suite.key_len, NONCE_LEN) <= hashlib.new(suite.hash_name).digest_size
    return _SuiteKeying(
        suite.secret_len,
        suite.hash_name,
        suite.key_len,
        _hkdf_label(b"key", b"", suite.key_len) + b"\x01",
        _hkdf_label(b"iv", b"", NONCE_LEN) + b"\x01",
        AESGCM if suite.name.startswith("AES") else ChaCha20Poly1305,
    )


_KEYING = {name: _suite_keying(suite) for name, suite in SUITES_BY_NAME.items()}


def derive_traffic_keys(secret: bytes, suite_name: str) -> TrafficKeys:
    """key = Expand-Label(secret, "key", "", key_len); iv likewise to 12 bytes."""
    secret_len, hash_name, key_len, key_info, iv_info, aead = _KEYING[suite_name]
    if len(secret) != secret_len:
        raise LengthMismatch(
            f"secret of {len(secret)} bytes does not match {suite_name} (need {secret_len})"
        )
    key = hmac.digest(secret, key_info, hash_name)[:key_len]
    iv = hmac.digest(secret, iv_info, hash_name)[:NONCE_LEN]
    return TrafficKeys(key, iv, aead(key))


def decrypt_record(record: TlsRecord, keys: TrafficKeys) -> tuple[int, bytes]:
    """Open one protected record into (inner content type, plaintext).

    The counter advances only on success.
    """
    if record.content_type != CT_APPLICATION_DATA:
        raise ValueError(f"record type {record.content_type} is not protected")
    try:
        inner = keys.aead.decrypt(keys.nonce(), record.body, record.header)
    except InvalidTag as exc:
        raise AuthFailure(
            f"AEAD tag mismatch at record offset {record.stream_offset} "
            f"(counter {keys.sequence_counter})"
        ) from exc
    keys.sequence_counter += 1

    stripped = inner.rstrip(b"\x00")
    if not stripped:
        raise EmptyInnerPlaintext("record decrypted to padding only")
    return stripped[-1], stripped[:-1]
