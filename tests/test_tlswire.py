"""Record and hello parsing, group registry, handshake reassembly."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tlslayers.errors import BadRecordHeader, GapAtOffset, MalformedHello, OversizeRecord, UnknownGroup, UnsupportedCipherSuite
from tlslayers.reassembly import DirectionalStream
from tlslayers.tlswire import (
    CT_APPLICATION_DATA,
    CT_CHANGE_CIPHER_SPEC,
    CT_HANDSHAKE,
    EXT_KEY_SHARE,
    GROUPS_BY_ID,
    HRR_RANDOM,
    MAX_RECORD_BODY,
    SUITES_BY_ID,
    HandshakeAccumulator,
    build_handshake_message,
    build_record,
    first_handshake_message,
    group_by_name,
    group_name,
    parse_client_hello,
    parse_records,
    parse_server_hello,
    render_client_hello,
    render_server_hello,
)

import reference
from reference_runs import KEY_SHARE_SIZES


def _stream(data: bytes, ts: int = 500) -> DirectionalStream:
    return DirectionalStream(data, [0], [ts], [0], len(data), False)


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


def test_record_before_the_first_mapped_byte_raises_like_timestamp_at():
    wire = build_record(CT_HANDSHAKE, b"x" * 10)
    stream = DirectionalStream(wire, [3], [7], [3], len(wire), False)
    with pytest.raises(GapAtOffset):
        stream.timestamp_at(0)
    with pytest.raises(GapAtOffset):
        parse_records(stream)


def test_bad_record_header_raises():
    with pytest.raises(BadRecordHeader):
        parse_records(_stream(b"\x99\x03\x03\x00\x01x"))
    with pytest.raises(BadRecordHeader):
        parse_records(_stream(b"\x16\x09\x09\x00\x01x"))


def test_oversize_record_raises():
    header = bytes([22, 3, 3]) + (16384 + 257).to_bytes(2, "big")
    with pytest.raises(OversizeRecord):
        parse_records(_stream(header + b"\x00" * 100))


@settings(max_examples=300, deadline=None)
@given(
    bodies=st.lists(st.integers(0, 700), max_size=10),
    data=st.data(),
)
def test_record_timestamps_from_offset_walk(bodies, data):
    wire = b"".join(build_record(CT_APPLICATION_DATA, bytes(n)) for n in bodies)
    # the contiguous prefix reassembly kept; shorter than the wire when a gap cut it
    kept = data.draw(st.integers(0, len(wire)), label="kept")
    has_gap = kept < len(wire) or data.draw(st.booleans(), label="gap_at_end")
    starts = sorted(set(data.draw(st.lists(st.integers(1, max(kept - 1, 1)), max_size=12), label="starts")))
    offsets = [0, *(o for o in starts if o < kept)] if kept else []
    times = data.draw(st.lists(st.integers(0, 10**12), min_size=len(offsets), max_size=len(offsets)), label="times")
    stream = DirectionalStream(wire[:kept], offsets, times, offsets, kept, has_gap)

    records, partial = parse_records(stream)
    for rec in records:
        assert rec.timestamp_ns == stream.timestamp_at(rec.stream_offset)
    ends = [0]
    for n in bodies:
        ends.append(ends[-1] + 5 + n)
    complete = [e for e in ends[1:] if e <= kept]
    assert [r.stream_offset for r in records] == ends[: len(complete)]
    # a tail inside a record is partial; a tail on a record boundary is partial only at a gap
    assert partial == (kept not in ends or has_gap)


@settings(max_examples=150, deadline=None)
@given(
    bodies=st.lists(st.integers(0, 300), min_size=1, max_size=6),
    data=st.data(),
)
def test_records_and_reads_over_pieces_scattered_in_one_buffer(bodies, data):
    """Pieces lie in one buffer between junk bytes, as frame headers lie between payloads in a capture."""
    rng = random.Random(len(bodies))
    wire = b"".join(build_record(CT_APPLICATION_DATA, rng.randbytes(n)) for n in bodies)
    ends = [0]
    for n in bodies:
        ends.append(ends[-1] + 5 + n)
    # the whole wire, or cut inside the last body, inside its header or before it
    kept = data.draw(st.sampled_from([len(wire), len(wire) - 1, ends[-2] + 3, ends[-2]]), label="kept")
    step = data.draw(st.integers(1, 64), label="step")  # a small step spreads a body over many pieces
    cuts = set(range(step, kept, step)) | set(data.draw(st.lists(st.integers(1, max(kept, 1)), max_size=6), label="cuts"))
    # a cut inside a record header, so that the header straddles two pieces
    cuts.add(ends[data.draw(st.integers(0, len(bodies) - 1), label="straddled")] + data.draw(st.integers(1, 4)))
    offsets = [0, *sorted(o for o in cuts if o < kept)] if kept else []
    times = [1000 + 7 * i for i in range(len(offsets))]
    has_gap = data.draw(st.booleans(), label="gap_at_end")

    buf = bytearray()
    starts = []
    for a, b in zip(offsets, [*offsets[1:], kept]):
        buf += data.draw(st.binary(min_size=1, max_size=12), label="junk")
        starts.append(len(buf))
        buf += wire[a:b]
    buf += b"\x17\x03\x03\x40\x00"  # a read past the last piece would find a header here
    scattered = DirectionalStream(bytes(buf), offsets, times, starts, kept, has_gap)
    joined = DirectionalStream(wire[:kept], offsets, times, offsets, kept, has_gap)

    records, partial = parse_records(scattered)
    expected, expected_partial = parse_records(joined)
    assert partial == expected_partial == (kept not in ends or has_gap)
    assert [(r.content_type, r.stream_offset, r.end, r.timestamp_ns, r.header, r.body) for r in records] == [
        (r.content_type, r.stream_offset, r.end, r.timestamp_ns, r.header, r.body) for r in expected
    ]
    assert [r.stream_offset for r in records] == [e for e, f in zip(ends, ends[1:]) if f <= kept]
    for a, b in data.draw(st.lists(st.tuples(st.integers(0, kept), st.integers(0, kept)), max_size=8), label="reads"):
        a, b = min(a, b), max(a, b)
        assert scattered.read(a, b) == wire[a:b]
    assert scattered.read(0, kept) == wire[:kept]
    with pytest.raises(GapAtOffset):
        scattered.read(0, kept + 1)  # past the prefix lie the junk bytes


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


@pytest.mark.parametrize("call, error", [
    # the cipher suites end where the message ends: no legacy_compression_methods byte
    (lambda: parse_client_hello(b"\x03\x03" + bytes(32) + b"\x00" + b"\x00\x02\x13\x01"), MalformedHello),
    (lambda: build_record(CT_HANDSHAKE, bytes(MAX_RECORD_BODY + 1)), OversizeRecord),
    (lambda: render_client_hello(bytes(31), [(0x001D, bytes(32))]), ValueError),
    (lambda: render_server_hello(bytes(33), 0x1301, (0x001D, bytes(32))), ValueError),
    (lambda: DirectionalStream(bytes(10), [3], [7], [3], 10, False).read(0, 5), GapAtOffset),
], ids=["hello-without-compression", "oversize-body", "client-random", "server-random", "read-before-first-piece"])
def test_what_cannot_be_built_or_read_raises(call, error):
    with pytest.raises(error):
        call()


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


@settings(max_examples=300, deadline=None)
@given(
    messages=st.lists(st.tuples(st.integers(0, 255), st.binary(max_size=80)), min_size=1, max_size=3),
    data=st.data(),
)
def test_first_handshake_message_matches_the_accumulator(messages, data):
    """One to three messages split into plaintext records at random, with CCS and empty records between."""
    handshake = b"".join(build_handshake_message(t, body) for t, body in messages)
    kept = data.draw(st.integers(0, len(handshake)), label="kept")
    cuts = sorted(data.draw(st.lists(st.integers(0, kept), max_size=6), label="cuts"))
    wire = b""
    for a, b in zip([0, *cuts], [*cuts, kept]):
        if data.draw(st.booleans(), label="ccs before"):
            wire += build_record(CT_CHANGE_CIPHER_SPEC, b"\x01")
        wire += build_record(CT_HANDSHAKE, handshake[a:b])  # equal cuts give an empty record
    if data.draw(st.booleans(), label="application data after"):
        wire += build_record(CT_APPLICATION_DATA, bytes(20))
    # pieces cut at random, so that some records straddle them and some lie inside one
    offsets = sorted({0, *data.draw(st.lists(st.integers(1, max(len(wire) - 1, 1)), max_size=8), label="pieces")})
    offsets = [o for o in offsets if o < len(wire)] or [0]
    times = [1000 + 10 * i for i in range(len(offsets))]
    records, _ = parse_records(DirectionalStream(wire, offsets, times, offsets, len(wire), False))

    got = first_handshake_message(records)
    assert got == reference.first_message(records)
    if kept >= 4 + len(messages[0][1]):
        assert got[:2] == messages[0]


@settings(max_examples=200, deadline=None)
@given(bodies=st.lists(st.integers(0, 300), min_size=1, max_size=6), data=st.data())
def test_record_bodies_equal_the_stream_read(bodies, data):
    """A record inside one piece is sliced from where it lies; one across pieces is joined; both read alike."""
    rng = random.Random(sum(bodies))
    wire = b"".join(build_record(CT_APPLICATION_DATA, rng.randbytes(n)) for n in bodies)
    cuts = data.draw(st.lists(st.integers(1, len(wire) - 1), max_size=10), label="cuts")
    offsets = sorted({0, *cuts})
    buf, starts = bytearray(), []
    for a, b in zip(offsets, [*offsets[1:], len(wire)]):
        buf += data.draw(st.binary(min_size=1, max_size=8), label="junk")
        starts.append(len(buf))
        buf += wire[a:b]
    stream = DirectionalStream(bytes(buf), offsets, [7] * len(offsets), starts, len(wire), False)

    records, partial = parse_records(stream)
    assert not partial and len(records) == len(bodies)
    for rec in records:
        assert rec.body == stream.read(rec.stream_offset + 5, rec.end) == wire[rec.stream_offset + 5 : rec.end]
        inside = not any(rec.stream_offset < o < rec.end for o in offsets)
        assert (rec.body_at >= 0) == inside


# -- offset hello parsers against the cursor reference ------------------------------------

_SHARE_GROUPS = sorted(GROUPS_BY_ID)  # includes mlkem768 (1184 B) and mlkem1024 (1568 B) shares


def _u16(b: bytes, pos: int) -> int:
    return (b[pos] << 8) | b[pos + 1]


def _length_fields(body: bytes, client: bool) -> list[tuple[int, int, tuple[int, ...]]]:
    """(offset, width, enclosing fields' offsets) of every length prefix in a well-formed hello body.

    Every enclosing field is 2 bytes wide and comes before the fields it encloses.
    """
    fields = [(34, 1, ())]  # legacy_session_id
    pos = 35 + body[34]
    if client:
        fields.append((pos, 2, ()))  # cipher_suites
        pos += 2 + _u16(body, pos)
        fields.append((pos, 1, ()))  # legacy_compression_methods
        pos += 1 + body[pos]
    else:
        pos += 3  # cipher_suite, legacy_compression_method
    in_extensions = (pos,)
    fields.append((pos, 2, ()))  # extensions
    end = pos + 2 + _u16(body, pos)
    pos += 2
    while pos < end:
        ext_len = _u16(body, pos + 2)
        ext = (*in_extensions, pos + 2)
        fields.append((pos + 2, 2, in_extensions))
        if _u16(body, pos) == EXT_KEY_SHARE:
            if client:
                fields.append((pos + 4, 2, ext))  # client_shares
                share = pos + 6
                while share < pos + 4 + ext_len:
                    fields.append((share + 2, 2, (*ext, pos + 4)))  # key_exchange
                    share += 4 + _u16(body, share + 2)
            elif ext_len > 2:
                fields.append((pos + 6, 2, ext))  # the ServerHello share
        pos += 4 + ext_len
    return fields


def _add(buf: bytearray, offset: int, width: int, delta: int) -> None:
    value = int.from_bytes(buf[offset : offset + width], "big") + delta
    buf[offset : offset + width] = (value % (1 << 8 * width)).to_bytes(width, "big")


def _damage(body: bytes, client: bool, data) -> bytes:
    """Damage the length fields of a well-formed hello body, then maybe cut it short.

    Either one field's block gains or loses its last byte, the enclosing
    lengths are kept consistent and the field itself is left one off or
    kept consistent too; or up to two fields have a byte flipped or their
    value moved by one.  Cuts favour the bytes around a field, where one
    parser check ends and the next begins.
    """
    damaged = bytearray(body)
    fields = _length_fields(body, client)
    if data.draw(st.booleans(), label="resize"):
        offset, width, enclosing = data.draw(st.sampled_from(fields), label="field")
        end = offset + width + int.from_bytes(body[offset : offset + width], "big")
        delta = data.draw(st.sampled_from([1, -1] if end > offset + width else [1]), label="delta")
        if delta < 0:
            del damaged[end - 1]
        else:
            damaged.insert(end, 0)
        for at in enclosing:
            _add(damaged, at, 2, delta)
        if data.draw(st.booleans(), label="own"):
            _add(damaged, offset, width, delta)
    else:
        for offset, width, _ in data.draw(st.lists(st.sampled_from(fields), max_size=2), label="fields"):
            if data.draw(st.booleans(), label="flip"):
                damaged[offset + data.draw(st.integers(0, width - 1))] ^= data.draw(st.integers(1, 255))
            else:
                _add(damaged, offset, width, data.draw(st.sampled_from([1, -1])))
    how = data.draw(st.sampled_from(["whole", "near_field", "anywhere"]), label="cut")
    if how == "near_field":
        offset, width, _ = data.draw(st.sampled_from(fields))
        return bytes(damaged[: data.draw(st.integers(offset, offset + width + 2))])
    if how == "anywhere":
        return bytes(damaged[: data.draw(st.integers(0, len(damaged)))])
    return bytes(damaged)


def _same_outcome(parse, parse_reference, msg: bytes) -> None:
    try:
        expected = parse_reference(msg)
    except (MalformedHello, UnsupportedCipherSuite) as exc:
        with pytest.raises(type(exc)) as got:
            parse(msg)
        assert type(got.value) is type(exc)
    else:
        assert parse(msg) == expected


@settings(max_examples=400, deadline=None)
@given(
    session_id=st.binary(max_size=32),
    shares=st.lists(
        st.tuples(
            st.sampled_from(_SHARE_GROUPS),
            st.one_of(st.sampled_from([32, 800, 1184, 1216, 1568]), st.integers(0, 40)),
        ),
        max_size=4,
    ),
    data=st.data(),
)
def test_client_hello_parser_matches_reference(session_id, shares, data):
    msg = render_client_hello(
        data.draw(st.binary(min_size=32, max_size=32), label="random"),
        [(gid, bytes(size)) for gid, size in shares],
        session_id=session_id,
    )
    _same_outcome(parse_client_hello, reference.client_hello, _damage(msg[4:], True, data))


@settings(max_examples=400, deadline=None)
@given(
    session_id=st.binary(max_size=32),
    suite_id=st.sampled_from([*sorted(SUITES_BY_ID), 0xC02F]),
    hrr=st.booleans(),
    group=st.sampled_from(_SHARE_GROUPS),
    share=st.sampled_from(["none", "bare", "full"]),
    data=st.data(),
)
def test_server_hello_parser_matches_reference(session_id, suite_id, hrr, group, share, data):
    server_random = HRR_RANDOM if hrr else data.draw(st.binary(min_size=32, max_size=32), label="random")
    key_share = {
        "none": None,
        "bare": (group, b""),
        "full": (group, bytes(GROUPS_BY_ID[group].server_share_len)),
    }[share]
    msg = render_server_hello(server_random, suite_id, key_share, session_id_echo=session_id)
    _same_outcome(parse_server_hello, reference.server_hello, _damage(msg[4:], False, data))
