"""TLS 1.3 traffic-key derivation and record decryption.

Traffic secrets come straight from the key log, so only the
HKDF-Expand-Label step of the RFC 8446 key schedule is needed here; the
AEAD primitives come from the `cryptography` package.
"""

from __future__ import annotations

import hmac
import struct
from dataclasses import dataclass

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import AESGCM, ChaCha20Poly1305

from tlslayers.errors import AuthFailure, EmptyInnerPlaintext, LengthMismatch
from tlslayers.tlswire import CT_APPLICATION_DATA, SUITES_BY_NAME, TlsRecord

NONCE_LEN = 12


def hkdf_expand(prk: bytes, info: bytes, length: int, hash_name: str) -> bytes:
    """HKDF-Expand per RFC 5869 §2.3."""
    out = b""
    t = b""
    counter = 1
    while len(out) < length:
        t = hmac.new(prk, t + info + bytes([counter]), hash_name).digest()
        out += t
        counter += 1
    return out[:length]


def hkdf_expand_label(secret: bytes, label: bytes, context: bytes, length: int, hash_name: str) -> bytes:
    """HKDF-Expand-Label per RFC 8446 §7.1."""
    full_label = b"tls13 " + label
    hkdf_label = (
        struct.pack(">H", length)
        + bytes([len(full_label)])
        + full_label
        + bytes([len(context)])
        + context
    )
    return hkdf_expand(secret, hkdf_label, length, hash_name)


@dataclass
class TrafficKeys:
    """Write key, IV, the AEAD built from the key, and the per-record sequence counter."""

    key: bytes
    iv: bytes
    aead: AESGCM | ChaCha20Poly1305
    sequence_counter: int = 0

    def nonce(self) -> bytes:
        seq = self.sequence_counter.to_bytes(NONCE_LEN, "big")
        return bytes(a ^ b for a, b in zip(self.iv, seq))


def derive_traffic_keys(secret: bytes, suite_name: str) -> TrafficKeys:
    """key = Expand-Label(secret, "key", "", key_len); iv likewise to 12 bytes."""
    suite = SUITES_BY_NAME[suite_name]
    if len(secret) != suite.secret_len:
        raise LengthMismatch(
            f"secret of {len(secret)} bytes does not match {suite.name} (need {suite.secret_len})"
        )
    key = hkdf_expand_label(secret, b"key", b"", suite.key_len, suite.hash_name)
    iv = hkdf_expand_label(secret, b"iv", b"", NONCE_LEN, suite.hash_name)
    aead = AESGCM(key) if suite.name.startswith("AES") else ChaCha20Poly1305(key)
    return TrafficKeys(key=key, iv=iv, aead=aead)


def decrypt_record(record: TlsRecord, keys: TrafficKeys) -> tuple[int, bytes]:
    """Open one protected record into (inner content type, plaintext).

    The counter advances only on success.
    """
    if record.content_type != CT_APPLICATION_DATA:
        raise ValueError(f"record type {record.content_type} is not protected")
    try:
        inner = keys.aead.decrypt(keys.nonce(), record.body, record.header())
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
