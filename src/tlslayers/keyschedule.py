"""TLS 1.3 traffic-key derivation and record decryption.

Traffic secrets come straight from the key log, so only the
HKDF-Expand-Label step of the RFC 8446 key schedule is needed here; the
AEAD primitives come from the `cryptography` package.

A key and an IV each fit in one hash block, so each is HKDF-Expand's first
block, one HMAC keyed with the secret.  `derive_traffic_keys` computes both
HMACs by hand (RFC 2104): the secret, zero-padded to the hash's block size,
is XORed into the inner and outer pads once, each pad is hashed once, and
the two hash states are copied for the key and for the IV.
`hkdf_expand_label` is the general HKDF loop, which `synth` seals with.
"""

from __future__ import annotations

import hashlib
import hmac
import struct
from typing import Callable, NamedTuple

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import AESGCM, ChaCha20Poly1305

from tlslayers.errors import AuthFailure, EmptyInnerPlaintext, LengthMismatch
from tlslayers.tlswire import CT_APPLICATION_DATA, SUITES_BY_NAME, CipherSuite, TlsRecord

NONCE_LEN = 12

# byte tables for translate(): the RFC 2104 inner and outer pads XORed into a block
_IPAD = bytes(b ^ 0x36 for b in range(256))
_OPAD = bytes(b ^ 0x5C for b in range(256))


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


class TrafficKeys:
    """Write key, IV, the AEAD built from the key, and the per-record sequence counter."""

    __slots__ = ("key", "iv", "aead", "sequence_counter", "_iv_int")

    def __init__(self, key: bytes, iv: bytes, aead: AESGCM | ChaCha20Poly1305, sequence_counter: int = 0) -> None:
        self.key = key
        self.iv = iv
        self.aead = aead
        self.sequence_counter = sequence_counter
        self._iv_int = int.from_bytes(iv, "big")


class _SuiteKeying(NamedTuple):
    secret_len: int
    new_hash: Callable  # the hashlib constructor
    zero_pad: bytes  # pads a secret to the hash's block size (RFC 2104's key K)
    key_len: int
    key_info: bytes  # HkdfLabel for "key", then the T(1) counter byte
    iv_info: bytes  # likewise for "iv"
    aead: type[AESGCM] | type[ChaCha20Poly1305]


def _suite_keying(suite: CipherSuite) -> _SuiteKeying:
    new_hash = getattr(hashlib, suite.hash_name)
    h = new_hash()
    # key and IV each fit in one hash block, so HKDF-Expand is T(1) alone (RFC 5869 §2.3)
    assert max(suite.key_len, NONCE_LEN) <= h.digest_size
    # a secret no longer than a block is the HMAC key as it stands, zero-padded (RFC 2104 §2)
    assert suite.secret_len <= h.block_size
    return _SuiteKeying(
        suite.secret_len,
        new_hash,
        bytes(h.block_size - suite.secret_len),
        suite.key_len,
        _hkdf_label(b"key", b"", suite.key_len) + b"\x01",
        _hkdf_label(b"iv", b"", NONCE_LEN) + b"\x01",
        AESGCM if suite.name.startswith("AES") else ChaCha20Poly1305,
    )


_KEYING = {name: _suite_keying(suite) for name, suite in SUITES_BY_NAME.items()}


def derive_traffic_keys(secret: bytes, suite_name: str) -> TrafficKeys:
    """key = Expand-Label(secret, "key", "", key_len); iv likewise to 12 bytes."""
    secret_len, new_hash, zero_pad, key_len, key_info, iv_info, aead = _KEYING[suite_name]
    if len(secret) != secret_len:
        raise LengthMismatch(
            f"secret of {len(secret)} bytes does not match {suite_name} (need {secret_len})"
        )
    # HMAC(K, m) = H((K ^ opad) || H((K ^ ipad) || m)), each pad hashed once for both messages
    block = secret + zero_pad
    inner = new_hash(block.translate(_IPAD))
    outer = new_hash(block.translate(_OPAD))
    key_inner = inner.copy()
    key_inner.update(key_info)
    key_outer = outer.copy()
    key_outer.update(key_inner.digest())
    inner.update(iv_info)
    outer.update(inner.digest())
    key = key_outer.digest()[:key_len]
    return TrafficKeys(key, outer.digest()[:NONCE_LEN], aead(key))


def decrypt_record(record: TlsRecord, keys: TrafficKeys) -> tuple[int, bytes]:
    """Open one protected record into (inner content type, plaintext).

    The nonce is the IV XOR the counter left-padded to 12 bytes (RFC 8446
    §5.3), so at counter 0 it is the IV itself.  The counter advances only
    on success.
    """
    if record.content_type != CT_APPLICATION_DATA:
        raise ValueError(f"record type {record.content_type} is not protected")
    counter = keys.sequence_counter
    nonce = (keys._iv_int ^ counter).to_bytes(NONCE_LEN, "big") if counter else keys.iv
    try:
        inner = keys.aead.decrypt(nonce, record.body, record.header)
    except InvalidTag as exc:
        raise AuthFailure(f"AEAD tag mismatch at record offset {record.stream_offset} (counter {counter})") from exc
    keys.sequence_counter = counter + 1

    stripped = inner.rstrip(b"\x00")
    if not stripped:
        raise EmptyInnerPlaintext("record decrypted to padding only")
    return stripped[-1], stripped[:-1]
