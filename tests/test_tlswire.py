"""Record and hello parsing, group registry, handshake reassembly."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tlslayers.errors import BadRecordHeader, MalformedHello, OversizeRecord, UnknownGroup, UnsupportedCipherSuite
from tlslayers.reassembly import DirectionalStream
from tlslayers.tlswire import (
    CT_HANDSHAKE,
    HRR_RANDOM,
    HandshakeAccumulator,
    build_handshake_message,
    build_record,
    group_by_name,
    group_name,
    parse_client_hello,
    parse_records,
    parse_server_hello,
    render_client_hello,
    render_server_hello,
)

from reference_runs import KEY_SHARE_SIZES


def _stream(data: bytes, ts: int = 500) -> DirectionalStream:
    return DirectionalStream(data, [(0, ts)], False)


def test_empty_stream_parses_to_nothing():
    records, partial = parse_records(_stream(b""))
    assert records == [] and not partial


def test_single_record_with_offset_and_timestamp():
    body = bytes(512)
    records, partial = parse_records(_stream(build_record(CT_HANDSHAKE, body), ts=777))
    assert not partial
    (rec,) = records
    assert rec.content_type == CT_HANDSHAKE
    assert rec.stream_offset == 0
    assert rec.body == body
    assert rec.timestamp_ns == 777


def test_multi_record_offsets_match_layout():
    rng = random.Random(42)
    bodies = [rng.randbytes(rng.randint(10, 3000)) for _ in range(7)]
    stream_bytes = b"".join(build_record(CT_HANDSHAKE, b) for b in bodies)
    expected_offsets = []
    pos = 0
    for b in bodies:
        expected_offsets.append(pos)
        pos += 5 + len(b)
    records, partial = parse_records(_stream(stream_bytes))
    assert not partial
    assert [r.stream_offset for r in records] == expected_offsets
    assert [r.body for r in records] == bodies


def test_trailing_partial_record_stops_cleanly():
    data = build_record(CT_HANDSHAKE, b"x" * 100)
    records, partial = parse_records(_stream(data[:-10]))
    assert records == [] and partial

    two = data + build_record(CT_HANDSHAKE, b"y" * 50)
    records, partial = parse_records(_stream(two[:-5]))
    assert len(records) == 1 and partial


def test_bad_record_header_raises():
    with pytest.raises(BadRecordHeader):
        parse_records(_stream(b"\x99\x03\x03\x00\x01x"))
    with pytest.raises(BadRecordHeader):
        parse_records(_stream(b"\x16\x09\x09\x00\x01x"))


def test_oversize_record_raises():
    header = bytes([22, 3, 3]) + (16384 + 257).to_bytes(2, "big")
    with pytest.raises(OversizeRecord):
        parse_records(_stream(header + b"\x00" * 100))


# -- hello parsing ----------------------------------------------------------------

def test_client_hello_x25519_share_size():
    g = group_by_name("x25519")
    msg = render_client_hello(bytes(32), [(g.group_id, bytes(32))])
    info = parse_client_hello(msg[4:])
    assert info.key_shares == ((g.group_id, 32),)
    assert info.total_length == len(msg)


def test_client_hello_hybrid_768_share_size():
    g = group_by_name("x25519_mlkem768")
    msg = render_client_hello(bytes(32), [(g.group_id, bytes(1216))])
    info = parse_client_hello(msg[4:])
    assert info.key_shares == ((g.group_id, 1216),)


def test_client_hello_round_trips_randoms_and_groups():
    rng = random.Random(5)
    random_bytes = rng.randbytes(32)
    shares = [(0x001D, rng.randbytes(32)), (0x11EC, rng.randbytes(1216))]
    msg = render_client_hello(random_bytes, shares, session_id=rng.randbytes(32))
    info = parse_client_hello(msg[4:])
    assert info.client_random == random_bytes
    assert info.key_shares == tuple((gid, len(s)) for gid, s in shares)


def test_client_hello_without_extensions():
    body = (
        b"\x03\x03" + bytes(32) + b"\x00" + b"\x00\x02\x13\x01" + b"\x01\x00"
    )
    msg = build_handshake_message(1, body)
    info = parse_client_hello(msg[4:])
    assert info.key_shares == ()


def test_client_hello_length_inconsistency_raises():
    msg = render_client_hello(bytes(32), [(0x001D, bytes(32))])
    with pytest.raises(MalformedHello):
        parse_client_hello(msg[4:40])


def test_server_hello_mlkem1024():
    g = group_by_name("mlkem1024")
    msg = render_server_hello(bytes(32), 0x1301, (g.group_id, bytes(1568)))
    info = parse_server_hello(msg[4:])
    assert info.selected_group == g.group_id
    assert info.cipher_suite == "AES_128_GCM_SHA256"
    assert not info.is_hrr
    assert info.total_length == len(msg)


def test_server_hello_suite_mapping():
    msg = render_server_hello(bytes(32), 0x1302, (0x001D, bytes(32)))
    assert parse_server_hello(msg[4:]).cipher_suite == "AES_256_GCM_SHA384"


def test_server_hello_unsupported_suite():
    msg = render_server_hello(bytes(32), 0xC02F, (0x001D, bytes(32)))
    with pytest.raises(UnsupportedCipherSuite):
        parse_server_hello(msg[4:])


def test_hello_retry_request_flagged():
    msg = render_server_hello(HRR_RANDOM, 0x1301, (0x001D, b""))
    info = parse_server_hello(msg[4:])
    assert info.is_hrr
    assert info.selected_group == 0x001D


# -- group registry -----------------------------------------------------------------

@pytest.mark.parametrize("name,size", sorted(KEY_SHARE_SIZES.items()))
def test_expected_key_share_sizes(name, size):
    assert group_by_name(name).client_share_len == size


def test_hybrid_additivity():
    for hybrid in ("x25519_mlkem512", "x25519_mlkem768"):
        g = group_by_name(hybrid)
        assert g.components
        total = sum(group_by_name(c).client_share_len for c in g.components)
        assert g.client_share_len == total


def test_group_aliases_and_unknown():
    assert group_by_name("X25519MLKEM768").group_id == group_by_name("x25519_mlkem768").group_id
    assert group_name(0x001D) == "x25519"
    with pytest.raises(UnknownGroup):
        group_by_name("x448")
    assert group_name(0x9999) == "0x9999"  # an unknown id is reported, not refused


# -- handshake accumulator -------------------------------------------------------------

def test_accumulator_message_spanning_chunks():
    msg = build_handshake_message(11, bytes(300))
    acc = HandshakeAccumulator()
    assert acc.feed(msg[:100], 10) == []
    assert acc.feed(msg[100:200], 20) == []
    out = acc.feed(msg[200:], 30)
    assert len(out) == 1
    msg_type, body, ts = out[0]
    assert msg_type == 11 and body == bytes(300)
    assert ts == 10  # first byte arrived in the first chunk


def test_accumulator_multiple_messages_one_chunk():
    m1 = build_handshake_message(8, b"\x00\x00")
    m2 = build_handshake_message(20, bytes(32))
    acc = HandshakeAccumulator()
    out = acc.feed(m1 + m2, 5)
    assert [(t, b) for t, b, _ in out] == [(8, b"\x00\x00"), (20, bytes(32))]
    assert all(ts == 5 for _, _, ts in out)


def test_accumulator_message_starting_mid_chunk():
    m1 = build_handshake_message(8, b"\x00\x00")
    m2 = build_handshake_message(20, bytes(64))
    acc = HandshakeAccumulator()
    out = acc.feed(m1 + m2[:10], 100)
    assert len(out) == 1 and out[0][2] == 100
    out = acc.feed(m2[10:], 200)
    assert len(out) == 1
    assert out[0][0] == 20
    assert out[0][2] == 100  # first byte of the second message was in chunk one


@settings(max_examples=300, deadline=None)
@given(
    messages=st.lists(st.tuples(st.integers(0, 255), st.binary(max_size=48)), max_size=8),
    data=st.data(),
)
def test_accumulator_stamps_every_message_with_its_first_bytes_record(messages, data):
    stream = b"".join(build_handshake_message(t, body) for t, body in messages)
    kept = data.draw(st.integers(0, len(stream)), label="kept")
    cuts = sorted(data.draw(st.lists(st.integers(0, kept), max_size=12), label="cuts"))
    bounds = [0, *cuts, kept]
    # (start offset, bytes, distinct timestamp); equal bounds give empty records
    records = [(a, stream[a:b], 1000 + i) for i, (a, b) in enumerate(zip(bounds, bounds[1:]))]

    expected = []
    end = 0
    for msg_type, body in messages:
        if end + 4 + len(body) > kept:
            break
        ts = next(t for a, chunk, t in records if a <= end < a + len(chunk))
        expected.append((msg_type, body, ts))
        end += 4 + len(body)

    acc = HandshakeAccumulator()
    got = [msg for _, chunk, t in records for msg in acc.feed(chunk, t)]
    assert got == expected
    assert acc.pending == kept - end
