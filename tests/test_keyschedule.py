"""Key derivation against RFC 8448 trace vectors and an independent HKDF oracle."""

import random
import struct

import pytest
from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.ciphers.aead import AESGCM
from cryptography.hazmat.primitives.kdf.hkdf import HKDFExpand
from hypothesis import given, settings
from hypothesis import strategies as st

from tlslayers.errors import AuthFailure, EmptyInnerPlaintext, LengthMismatch
from tlslayers.keyschedule import (
    TrafficKeys,
    decrypt_record,
    derive_traffic_keys,
    hkdf_expand_label,
)
from tlslayers.reassembly import DirectionalStream
from tlslayers.tlswire import CT_APPLICATION_DATA, SUITES_BY_NAME, TlsRecord, build_record, parse_records

# RFC 8448 §3 (simple 1-RTT) handshake traffic secrets and their derived keys
RFC8448_CLIENT_HS_SECRET = bytes.fromhex(
    "b3eddb126e067f35a780b3abf45e2d8f3b1a950738f52e9600746a0e27a55a21"
)
RFC8448_CLIENT_HS_KEY = bytes.fromhex("dbfaa693d1762c5b666af5d950258d01")
RFC8448_CLIENT_HS_IV = bytes.fromhex("5bd3c71b836e0b76bb73265f")

RFC8448_SERVER_HS_SECRET = bytes.fromhex(
    "b67b7d690cc16c4e75e54213cb2d37b4e9c912bcded9105d42befd59d391ad38"
)
RFC8448_SERVER_HS_KEY = bytes.fromhex("3fce516009c21727d0f2e4e86ee403bc")
RFC8448_SERVER_HS_IV = bytes.fromhex("5d313eb2671276ee13000b30")

RFC8448_SERVER_AP_SECRET = bytes.fromhex(
    "a11af9f05531f856ad47116b45a950328204b4f44bfb6b3a4b4f1f3fcb631643"
)
RFC8448_SERVER_AP_KEY = bytes.fromhex("9f02283b6c9c07efc26bb9f2ac92e356")
RFC8448_SERVER_AP_IV = bytes.fromhex("cf782b88dd83549aadf1e984")


@pytest.mark.parametrize(
    "secret,key,iv",
    [
        (RFC8448_CLIENT_HS_SECRET, RFC8448_CLIENT_HS_KEY, RFC8448_CLIENT_HS_IV),
        (RFC8448_SERVER_HS_SECRET, RFC8448_SERVER_HS_KEY, RFC8448_SERVER_HS_IV),
        (RFC8448_SERVER_AP_SECRET, RFC8448_SERVER_AP_KEY, RFC8448_SERVER_AP_IV),
    ],
)
def test_rfc8448_key_iv_vectors(secret, key, iv):
    keys = derive_traffic_keys(secret, "AES_128_GCM_SHA256")
    assert keys.key == key
    assert keys.iv == iv


def _oracle_expand_label(secret: bytes, label: bytes, length: int, algorithm=hashes.SHA256()) -> bytes:
    # independent HKDF-Expand implementation with a hand-built HkdfLabel
    full = b"tls13 " + label
    info = struct.pack(">H", length) + bytes([len(full)]) + full + b"\x00"
    return HKDFExpand(algorithm=algorithm, length=length, info=info).derive(secret)


def test_all_zero_secret_matches_independent_hkdf_oracle():
    secret = bytes(32)
    keys = derive_traffic_keys(secret, "AES_128_GCM_SHA256")
    assert keys.key == _oracle_expand_label(secret, b"key", 16)
    assert keys.iv == _oracle_expand_label(secret, b"iv", 12)


@pytest.mark.parametrize(
    "suite,algorithm,secret_len,key_len",
    [
        ("AES_256_GCM_SHA384", hashes.SHA384, 48, 32),
        ("CHACHA20_POLY1305_SHA256", hashes.SHA256, 32, 32),
    ],
)
def test_every_suite_matches_independent_hkdf_oracle(suite, algorithm, secret_len, key_len):
    for seed in range(3):
        secret = random.Random(seed).randbytes(secret_len)
        keys = derive_traffic_keys(secret, suite)
        assert keys.key == _oracle_expand_label(secret, b"key", key_len, algorithm())
        assert keys.iv == _oracle_expand_label(secret, b"iv", 12, algorithm())


_ORACLE_HASHES = {"sha256": hashes.SHA256, "sha384": hashes.SHA384}


@pytest.mark.parametrize("suite", SUITES_BY_NAME.values(), ids=SUITES_BY_NAME)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_derived_keys_equal_both_hkdf_loops(suite, data):
    # the hand-built HMAC pads against cryptography's HKDFExpand and the general loop synth seals with
    secret = data.draw(st.binary(min_size=suite.secret_len, max_size=suite.secret_len))
    keys = derive_traffic_keys(secret, suite.name)
    algorithm = _ORACLE_HASHES[suite.hash_name]()
    assert keys.key == _oracle_expand_label(secret, b"key", suite.key_len, algorithm)
    assert keys.key == hkdf_expand_label(secret, b"key", b"", suite.key_len, suite.hash_name)
    assert keys.iv == _oracle_expand_label(secret, b"iv", 12, algorithm)
    assert keys.iv == hkdf_expand_label(secret, b"iv", b"", 12, suite.hash_name)


def test_expand_label_multi_block_output():
    # lengths beyond one hash block exercise the HKDF block chaining
    out = hkdf_expand_label(bytes(range(32)), b"key", b"", 80, "sha256")
    full = b"tls13 key"
    info = struct.pack(">H", 80) + bytes([len(full)]) + full + b"\x00"
    oracle = HKDFExpand(algorithm=hashes.SHA256(), length=80, info=info).derive(bytes(range(32)))
    assert out == oracle


def test_distinct_secrets_distinct_keys():
    a = derive_traffic_keys(b"\x01" * 32, "AES_128_GCM_SHA256")
    b = derive_traffic_keys(b"\x02" * 32, "AES_128_GCM_SHA256")
    assert a.key != b.key
    assert a.iv != b.iv


def test_suite_shapes():
    k = derive_traffic_keys(bytes(48), "AES_256_GCM_SHA384")
    assert len(k.key) == 32 and len(k.iv) == 12
    k = derive_traffic_keys(bytes(32), "CHACHA20_POLY1305_SHA256")
    assert len(k.key) == 32


def test_secret_length_mismatch():
    with pytest.raises(LengthMismatch):
        derive_traffic_keys(bytes(32), "AES_256_GCM_SHA384")
    with pytest.raises(LengthMismatch):
        derive_traffic_keys(bytes(48), "AES_128_GCM_SHA256")


def _protected_record(key, iv, counter, inner, offset=0, ts=1000):
    nonce = bytes(a ^ b for a, b in zip(iv, counter.to_bytes(12, "big")))
    total = len(inner) + 16
    header = struct.pack(">BHH", 23, 0x0303, total)
    body = AESGCM(key).encrypt(nonce, inner, header)
    end = offset + 5 + len(body)
    return TlsRecord(
        content_type=CT_APPLICATION_DATA,
        header=header,
        stream_offset=offset,
        end=end,
        timestamp_ns=ts,
        # the record alone, lying at `offset` of its stream
        stream=DirectionalStream([offset], [ts], [(header + body, 0)], end, False),
    )


def test_decrypt_round_trip_and_counter_discipline():
    keys = derive_traffic_keys(RFC8448_CLIENT_HS_SECRET, "AES_128_GCM_SHA256")
    plaintexts = [b"hello record %d" % i for i in range(5)]
    records = [
        _protected_record(keys.key, keys.iv, i, pt + b"\x16", offset=i * 100)
        for i, pt in enumerate(plaintexts)
    ]
    for i, rec in enumerate(records):
        inner_type, plaintext = decrypt_record(rec, keys)
        assert plaintext == plaintexts[i]
        assert inner_type == 0x16
        assert keys.sequence_counter == i + 1


def test_counter_misuse_fails_authentication():
    keys = derive_traffic_keys(RFC8448_CLIENT_HS_SECRET, "AES_128_GCM_SHA256")
    rec = _protected_record(keys.key, keys.iv, 0, b"data\x17")
    keys.sequence_counter = 1  # wrong nonce
    with pytest.raises(AuthFailure):
        decrypt_record(rec, keys)
    assert keys.sequence_counter == 1  # not advanced on failure


def test_padding_stripped_to_inner_type():
    keys = derive_traffic_keys(bytes(32), "AES_128_GCM_SHA256")
    inner = b"\x14" * 4 + b"\x16" + b"\x00" * 3  # content, type=handshake, padding
    rec = _protected_record(keys.key, keys.iv, 0, inner)
    inner_type, plaintext = decrypt_record(rec, keys)
    assert inner_type == 0x16
    assert plaintext == b"\x14" * 4


def test_all_padding_is_empty_inner_plaintext():
    keys = derive_traffic_keys(bytes(32), "AES_128_GCM_SHA256")
    rec = _protected_record(keys.key, keys.iv, 0, b"\x00" * 8)
    with pytest.raises(EmptyInnerPlaintext):
        decrypt_record(rec, keys)


def test_nonce_construction():
    keys = TrafficKeys(key=bytes(16), iv=bytes.fromhex("000000000000000000000001"),
                       aead=AESGCM(bytes(16)), sequence_counter=1)
    assert keys.nonce() == bytes(12)  # iv XOR counter cancels
    keys.sequence_counter = 0
    assert keys.nonce() == keys.iv


@pytest.mark.parametrize("counter", [(1 << 32) + 5, (1 << 64) - 1])
def test_nonce_is_iv_xor_padded_counter(counter):
    iv = random.Random(counter).randbytes(12)
    keys = TrafficKeys(key=bytes(16), iv=iv, aead=AESGCM(bytes(16)), sequence_counter=counter)
    assert keys.nonce() == bytes(a ^ b for a, b in zip(iv, counter.to_bytes(12, "big")))


def test_captured_header_is_the_additional_data():
    # a TLS 1.0 legacy_version in the header, as some stacks send
    keys = derive_traffic_keys(RFC8448_CLIENT_HS_SECRET, "AES_128_GCM_SHA256")
    inner = b"GET / HTTP/1.1\r\n\r\n\x17"
    header = struct.pack(">BHH", CT_APPLICATION_DATA, 0x0301, len(inner) + 16)
    wire = build_record(CT_APPLICATION_DATA, AESGCM(keys.key).encrypt(keys.nonce(), inner, header), 0x0301)
    (rec,), partial = parse_records(DirectionalStream([0], [7], [(wire, 0)], len(wire), False))
    assert not partial and rec.header == header
    assert decrypt_record(rec, keys) == (0x17, inner[:-1])

    keys.sequence_counter = 0
    altered = rec._replace(header=header[:2] + b"\x02" + header[3:])  # legacy_version 0x0302
    with pytest.raises(AuthFailure):
        decrypt_record(altered, keys)
