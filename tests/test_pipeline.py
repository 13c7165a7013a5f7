"""Per-connection walk edge cases built from hand-assembled streams."""

import gc
import hashlib
import pathlib
import struct
import tracemalloc
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tlslayers import capture, pipeline, synth
from tlslayers.capture import CapturedFrame
from tlslayers.decode import TcpFlags
from tlslayers.errors import MalformedHello, TlsLayersError, UnknownLinkType
from tlslayers.keylog import LABELS, KeyLogStore, parse_keylog
from tlslayers.keyschedule import decrypt_record
from tlslayers.pipeline import analyze_capture, analyze_connection, summarize_run
from tlslayers.reassembly import TcpConnection
from tlslayers.timeline import layer_deltas_ns
from tlslayers.tlswire import (
    CT_APPLICATION_DATA,
    CT_CHANGE_CIPHER_SPEC,
    CT_HANDSHAKE,
    EXT_KEY_SHARE,
    HRR_RANDOM,
    HT_ENCRYPTED_EXTENSIONS,
    HT_FINISHED,
    HT_KEY_UPDATE,
    SUITES_BY_NAME,
    build_handshake_message,
    build_record,
    group_by_name,
    parse_server_hello,
    render_client_hello,
    render_server_hello,
)

import reference
import wire
from conftest import (
    analyze_frames,
    assemble,
    assemble_frames,
    clean_connection_spec,
    decode_frames,
    run_scenario,
    segment,
    segment_frames,
)

CLIENT = (bytes([10, 0, 0, 1]), 41000)
SERVER = (bytes([10, 0, 0, 2]), 443)


def _segments(client_payloads, server_payloads, client=CLIENT, t0=0):
    """SYN at t0, SYN-ACK 100us later, data segments afterwards."""
    packets = [
        segment(client, SERVER, t0, TcpFlags.SYN, 1000),
        segment(SERVER, client, t0 + 100_000, TcpFlags.SYN | TcpFlags.ACK, 2000),
        segment(client, SERVER, t0 + 150_000, TcpFlags.ACK, 1001),
    ]
    off = 0
    for i, payload in enumerate(client_payloads):
        ts = t0 + 200_000 + i * 50_000
        packets.append(segment(client, SERVER, ts, TcpFlags.ACK | TcpFlags.PSH, 1001 + off, payload))
        off += len(payload)
    off = 0
    for i, payload in enumerate(server_payloads):
        ts = t0 + 300_000 + i * 50_000
        packets.append(segment(SERVER, client, ts, TcpFlags.ACK | TcpFlags.PSH, 2001 + off, payload))
        off += len(payload)
    return packets


def _connection(client_payloads, server_payloads):
    """SYN at 0, SYN-ACK at 100us, data segments afterwards."""
    (conn,) = assemble(_segments(client_payloads, server_payloads))
    return conn


def test_hello_retry_request_excluded():
    ch = build_record(CT_HANDSHAKE, render_client_hello(bytes(32), [(0x001D, bytes(32))]), 0x0301)
    hrr = build_record(CT_HANDSHAKE, render_server_hello(HRR_RANDOM, 0x1301, (0x001D, b"")))
    conn = _connection([ch], [hrr])
    tl = analyze_connection(conn, KeyLogStore())
    assert tl.validity == "excluded"
    assert tl.reason == "hrr"


def test_unsupported_cipher_suite_is_undecryptable_partial():
    ch = build_record(CT_HANDSHAKE, render_client_hello(bytes(32), [(0x001D, bytes(32))]), 0x0301)
    sh = build_record(CT_HANDSHAKE, render_server_hello(bytes(32), 0xC02F, (0x001D, bytes(32))))
    conn = _connection([ch], [sh])
    tl = analyze_connection(conn, KeyLogStore())
    assert tl.validity == "partial"
    assert tl.reason == "undecryptable"
    assert tl.t_clienthello is not None  # boundary up to ClientHello still usable


def test_garbage_client_stream_is_partial():
    conn = _connection([b"\x00\x01\x02 this is not TLS at all........"], [])
    tl = analyze_connection(conn, KeyLogStore())
    assert tl.validity == "partial"
    assert tl.reason == "bad_tls_stream"


def test_non_hello_first_message_is_partial():
    alert = build_record(21, b"\x02\x28")
    conn = _connection([alert], [])
    tl = analyze_connection(conn, KeyLogStore())
    assert tl.validity == "partial"
    assert tl.reason == "no_clienthello"


def test_missing_server_hello_is_partial():
    ch = build_record(CT_HANDSHAKE, render_client_hello(bytes(32), [(0x001D, bytes(32))]), 0x0301)
    conn = _connection([ch], [])
    tl = analyze_connection(conn, KeyLogStore())
    assert tl.validity == "partial"
    assert tl.reason == "no_serverhello"


def test_change_cipher_spec_before_server_hello_is_skipped():
    # RFC 8446 §5: a change_cipher_spec record may arrive any time after the ClientHello
    ch = build_record(CT_HANDSHAKE, render_client_hello(bytes(32), [(0x001D, bytes(32))]), 0x0301)
    ccs = build_record(CT_CHANGE_CIPHER_SPEC, b"\x01")
    sh = build_record(CT_HANDSHAKE, render_server_hello(bytes(32), 0x1301, (0x001D, bytes(32))))
    tl = analyze_connection(_connection([ch], [ccs, sh]), None)
    assert (tl.validity, tl.reason) == ("partial", "no_keys")
    assert tl.group == "x25519"


def test_no_decrypt_mode_stops_at_keys():
    ch, sh = _hellos(bytes(32))
    conn = _connection([ch], [sh])
    tl = analyze_connection(conn, None)
    assert tl.validity == "partial"
    assert tl.reason == "no_keys"
    assert tl.group == "x25519"
    assert tl.key_share_len == 32


def test_summarize_run_counts_must_balance():
    from tlslayers.timeline import ConnectionTimeline, classify

    timelines = [
        classify(ConnectionTimeline(t_syn=0, t_synack=100), "no_clienthello"),
        classify(ConnectionTimeline(t_syn=0, t_synack=None), "no_synack"),
    ]
    result = summarize_run(timelines, "unit")
    assert result.counts["total_streams"] == 2
    assert result.counts["valid"] == 0
    assert sum(result.counts["partial"].values()) == 2


def test_handshake_block_takes_its_sizes_from_the_modal_group():
    # mlkem1024 and mlkem768 tie and mlkem1024 wins by name, while of the tied key-share
    # sizes mlkem768's (1184) sorts first; the suite is the run's, not the group's
    plan = [("mlkem768", "AES_128_GCM_SHA256"), ("mlkem1024", "AES_256_GCM_SHA384"),
            ("mlkem768", "AES_128_GCM_SHA256"), ("mlkem1024", "AES_256_GCM_SHA384"), ("x25519", "AES_128_GCM_SHA256")]
    spec = synth.ScenarioSpec(connections=tuple(
        clean_connection_spec(offset_ns=i * 1_000_000_000, seed=i + 1, group=group, cipher_suite=suite)
        for i, (group, suite) in enumerate(plan)
    ))
    result, truth = run_scenario(spec)
    modal = next(ct for ct in truth.connections if ct.group == "mlkem1024")
    assert result.handshake == {
        "group": "mlkem1024",
        "key_share_len": group_by_name("mlkem1024").client_share_len,
        "client_hello_len": modal.client_hello_len,
        "server_hello_len": modal.server_hello_len,
        "cipher_suite": "AES_128_GCM_SHA256",
    }


def _store_for(client_random: bytes) -> KeyLogStore:
    import random

    rng = random.Random(1)
    store = KeyLogStore()
    for label in (
        "CLIENT_HANDSHAKE_TRAFFIC_SECRET",
        "SERVER_HANDSHAKE_TRAFFIC_SECRET",
        "CLIENT_TRAFFIC_SECRET_0",
        "SERVER_TRAFFIC_SECRET_0",
    ):
        store.insert(client_random, label, rng.randbytes(32))
    return store


def _seal(store, client_random, label, counter, inner_type, content):
    """One AES_128_GCM_SHA256 record sealed as synth seals it, under the logged secret, at sequence number `counter`."""
    sealer = synth._Sealer(store.get(client_random, label), SUITES_BY_NAME["AES_128_GCM_SHA256"])
    sealer.counter = counter
    return sealer.seal(inner_type, content)


def _hellos(client_random: bytes):
    ch = build_record(CT_HANDSHAKE, render_client_hello(client_random, [(0x001D, bytes(32))]), 0x0301)
    sh = build_record(CT_HANDSHAKE, render_server_hello(bytes(32), 0x1301, (0x001D, bytes(32))))
    return ch, sh


def test_client_flight_lost_is_no_finished():
    client_random = b"\x07" * 32
    store = _store_for(client_random)
    ch, sh = _hellos(client_random)
    # server Finished exists, but the client's encrypted flight never arrives
    server_fin = _seal(store, client_random, "SERVER_HANDSHAKE_TRAFFIC_SECRET", 0,
                       CT_HANDSHAKE, build_handshake_message(20, bytes(32)))
    conn = _connection([ch], [sh, server_fin])
    tl = analyze_connection(conn, store)
    assert tl.validity == "partial"
    assert tl.reason == "no_finished"


def test_request_before_the_client_finished_is_no_finished():
    client_random = b"\x0d" * 32
    store = _store_for(client_random)
    ch, sh = _hellos(client_random)
    # an HTTP request sealed under the client handshake keys, where the Finished belongs
    early_get = _seal(store, client_random, "CLIENT_HANDSHAKE_TRAFFIC_SECRET", 0, 23, b"GET / HTTP/1.1\r\n\r\n")
    ok = [b"HTTP/1.1 200 OK\r\n\r\n"]
    conn = _connection([ch, early_get], [sh, *_server_flight(store, client_random, ok)])
    tl = analyze_connection(conn, store)
    assert (tl.validity, tl.reason) == ("partial", "no_finished")
    assert layer_deltas_ns(tl) == [100_000, 100_000]  # the measured prefix stops at the Finished


def test_secret_too_long_for_the_suite_is_undecryptable():
    client_random = b"\x0e" * 32
    store = KeyLogStore()
    for label in ("CLIENT_HANDSHAKE_TRAFFIC_SECRET", "SERVER_HANDSHAKE_TRAFFIC_SECRET",
                  "CLIENT_TRAFFIC_SECRET_0", "SERVER_TRAFFIC_SECRET_0"):
        store.insert(client_random, label, bytes(48))  # AES_128_GCM_SHA256 secrets are 32 bytes
    ch, sh = _hellos(client_random)
    tl = analyze_connection(_connection([ch], [sh]), store)
    assert (tl.validity, tl.reason) == ("partial", "undecryptable")
    assert tl.cipher_suite == "AES_128_GCM_SHA256"


@pytest.mark.parametrize("logged", [LABELS[:1], LABELS[:3], LABELS[1:], LABELS[:2] + LABELS[3:]])
def test_any_missing_secret_is_no_keys(logged):
    client_random = b"\x0f" * 32
    store = KeyLogStore()
    for label in logged:
        store.insert(client_random, label, bytes(32))
    ch, sh = _hellos(client_random)
    tl = analyze_connection(_connection([ch], [sh]), store)
    assert (tl.validity, tl.reason) == ("partial", "no_keys")


def test_wrong_length_secret_before_a_missing_one_is_undecryptable():
    # secrets are derived in label order, so the 48-byte CLIENT_HS fails before SERVER_AP is missed
    client_random = b"\x10" * 32
    store = KeyLogStore()
    store.insert(client_random, LABELS[0], bytes(48))
    for label in LABELS[1:3]:
        store.insert(client_random, label, bytes(32))
    ch, sh = _hellos(client_random)
    tl = analyze_connection(_connection([ch], [sh]), store)
    assert (tl.validity, tl.reason) == ("partial", "undecryptable")


def test_client_hello_spanning_two_records():
    client_random = b"\x09" * 32
    msg = render_client_hello(client_random, [(0x11EC, bytes(1216))])
    half = len(msg) // 2
    rec1 = build_record(CT_HANDSHAKE, msg[:half], 0x0301)
    rec2 = build_record(CT_HANDSHAKE, msg[half:])
    conn = _connection([rec1, rec2], [])
    tl = analyze_connection(conn, None)
    assert tl.reason in ("no_serverhello", "no_keys")  # ClientHello itself parsed
    assert tl.t_clienthello is not None
    assert tl.client_hello_len == len(msg)


def test_key_update_before_boundaries_flags_connection():
    client_random = b"\x08" * 32
    store = _store_for(client_random)
    ch, sh = _hellos(client_random)
    fin = _seal(store, client_random, "CLIENT_HANDSHAKE_TRAFFIC_SECRET", 0,
                CT_HANDSHAKE, build_handshake_message(20, bytes(32)))
    key_update = _seal(store, client_random, "CLIENT_TRAFFIC_SECRET_0", 0,
                       CT_HANDSHAKE, build_handshake_message(24, b"\x00"))
    get = _seal(store, client_random, "CLIENT_TRAFFIC_SECRET_0", 1,
                23, b"GET / HTTP/1.1\r\n\r\n")
    conn = _connection([ch, fin, key_update, get], [sh])
    tl = analyze_connection(conn, store)
    assert tl.validity == "partial"
    assert tl.reason == "undecryptable"


def _server_flight(store, client_random, response_records):
    """ServerHello-less encrypted server flight: Finished, then application data."""
    fin = _seal(store, client_random, "SERVER_HANDSHAKE_TRAFFIC_SECRET", 0,
                CT_HANDSHAKE, build_handshake_message(20, bytes(32)))
    app = [_seal(store, client_random, "SERVER_TRAFFIC_SECRET_0", i, 23, content)
           for i, content in enumerate(response_records)]
    return [fin, *app]


def test_walk_takes_boundaries_from_record_times():
    client_random = b"\x0a" * 32
    store = _store_for(client_random)
    ch, sh = _hellos(client_random)
    fin = _seal(store, client_random, "CLIENT_HANDSHAKE_TRAFFIC_SECRET", 0,
                CT_HANDSHAKE, build_handshake_message(20, bytes(32)))
    continuation = _seal(store, client_random, "CLIENT_TRAFFIC_SECRET_0", 0, 23, b"\x00\x01binary")
    get = _seal(store, client_random, "CLIENT_TRAFFIC_SECRET_0", 1, 23, b"GET / HTTP/1.1\r\n\r\n")
    body = [b"HTTP/1.1 200 OK\r\nContent-Length: 3000\r\n\r\n", bytes(1500), bytes(1500)]
    conn = _connection([ch, fin, continuation, get], [sh, *_server_flight(store, client_random, body)])
    tl = analyze_connection(conn, store)
    assert tl.validity == "valid"
    # client segments start at 200us, server segments at 300us, 50us apart
    assert (tl.t_clienthello, tl.t_client_finished, tl.t_http_get) == (200_000, 250_000, 350_000)
    assert (tl.http_status, tl.t_http_200) == (200, 400_000)
    assert tl.t_response_last == 500_000
    # TTLB runs from the GET to the last server byte, not from the status line
    assert summarize_run([tl], "x").ttlb_stats.p50 == 0.15


def test_missing_request_and_response_are_partial():
    client_random = b"\x0b" * 32
    store = _store_for(client_random)
    ch, sh = _hellos(client_random)
    fin = _seal(store, client_random, "CLIENT_HANDSHAKE_TRAFFIC_SECRET", 0,
                CT_HANDSHAKE, build_handshake_message(20, bytes(32)))
    body_only = _seal(store, client_random, "CLIENT_TRAFFIC_SECRET_0", 0, 23, b"not http")
    conn = _connection([ch, fin, body_only], [sh])
    assert analyze_connection(conn, store).reason == "no_request"

    get = _seal(store, client_random, "CLIENT_TRAFFIC_SECRET_0", 0, 23, b"GET / HTTP/1.1\r\n\r\n")
    conn = _connection([ch, fin, get], [sh, *_server_flight(store, client_random, [b"partial body"])])
    tl = analyze_connection(conn, store)
    assert (tl.validity, tl.reason) == ("partial", "no_response")
    assert tl.t_http_get == 300_000
    assert tl.t_response_last == 400_000  # TTLB anchor is set even without a status line


def test_keys_switch_after_any_finished_with_nothing_pending():
    """A Finished record that leaves handshake bytes pending keeps the handshake keys.

    The next record completes that Finished and carries a third one, with
    nothing pending after it: it switches to the application keys, also on
    the client side.  The client Finished boundary is still the first
    Finished (250us), not a later one (300us).
    """
    client_random = b"\x0c" * 32
    store = _store_for(client_random)
    ch, sh = _hellos(client_random)
    second = build_handshake_message(20, bytes(32))
    fin_and_head = _seal(store, client_random, "CLIENT_HANDSHAKE_TRAFFIC_SECRET", 0,
                         CT_HANDSHAKE, build_handshake_message(20, bytes(32)) + second[:2])
    rest = _seal(store, client_random, "CLIENT_HANDSHAKE_TRAFFIC_SECRET", 1,
                 CT_HANDSHAKE, second[2:] + build_handshake_message(20, bytes(32)))
    get = _seal(store, client_random, "CLIENT_TRAFFIC_SECRET_0", 0, 23, b"GET / HTTP/1.1\r\n\r\n")
    ok = [b"HTTP/1.1 200 OK\r\n\r\n"]
    conn = _connection([ch, fin_and_head, rest, get], [sh, *_server_flight(store, client_random, ok)])
    tl = analyze_connection(conn, store)
    assert tl.validity == "valid"
    assert (tl.t_client_finished, tl.t_http_get) == (250_000, 350_000)


_APPLICATION_DATA = (
    b"GET / HTTP/1.1\r\n\r\n",
    b"HTTP/1.1 200 OK\r\n\r\n",
    b"HTTP/1.1 503 Service Unavailable\r\n\r\n",
    b"\x00\x01binary",
)


@st.composite
def _protected_flight(draw, store, client_random, side, last):
    """A direction's protected records: handshake messages cut into records at random, application data among them.

    The messages are drawn around a Finished, which most flights have; cuts
    may split a message's 4-byte header or leave a Finished's record with a
    tail pending.  Application data comes after the handshake records and
    between them, also before the Finished, and most flights end with
    `last`, the direction's boundary record.  Each record is sealed under the
    keys the walk must open it with: the handshake keys until a record
    completes a Finished and leaves nothing pending, the application keys
    after it.  One record may be sealed under the other keys instead, and a
    change_cipher_spec record may come first.
    """
    other_types = st.lists(
        st.sampled_from((HT_ENCRYPTED_EXTENSIONS, HT_FINISHED, HT_ENCRYPTED_EXTENSIONS, HT_KEY_UPDATE)), max_size=2
    )
    types = [*draw(other_types), *[HT_FINISHED][: draw(st.integers(0, 3)) > 0], *draw(other_types)]
    messages = [build_handshake_message(t, draw(st.binary(max_size=40))) for t in types]
    handshake = b"".join(messages)
    ends = [sum(map(len, messages[: i + 1])) for i in range(len(messages))]
    finished_ends = [end for end, t in zip(ends, types) if t == HT_FINISHED]
    cuts = sorted(draw(st.sets(st.integers(1, len(handshake) - 1), max_size=6))) if len(handshake) > 1 else []
    bounds = [0, *cuts, len(handshake)] if handshake else [0]
    items = [(CT_HANDSHAKE, a, b) for a, b in zip(bounds, bounds[1:])]
    application_data = st.lists(st.sampled_from(_APPLICATION_DATA), max_size=2)
    for content in draw(application_data):
        items.insert(draw(st.integers(0, len(items))), (CT_APPLICATION_DATA, content))
    items += [(CT_APPLICATION_DATA, content) for content in draw(application_data)]
    if draw(st.integers(0, 3)):
        items.append((CT_APPLICATION_DATA, last))
    # about one flight in four has a record sealed under the wrong keys
    wrong = draw(st.integers(0, len(items) - 1)) if items and draw(st.booleans()) and draw(st.booleans()) else None

    labels = (f"{side}_HANDSHAKE_TRAFFIC_SECRET", f"{side}_TRAFFIC_SECRET_0")
    epoch, counters, records = 0, [0, 0], []
    for i, (inner_type, *item) in enumerate(items):
        keys = 1 - epoch if i == wrong else epoch
        content = handshake[item[0] : item[1]] if inner_type == CT_HANDSHAKE else item[0]
        records.append(_seal(store, client_random, labels[keys], counters[keys], inner_type, content))
        counters[keys] += 1
        if inner_type == CT_HANDSHAKE and item[1] in ends and any(item[0] < end <= item[1] for end in finished_ends):
            epoch = 1
    if draw(st.booleans()):
        records.insert(0, build_record(CT_CHANGE_CIPHER_SPEC, b"\x01"))
    return records


def _walk_outcome(module, walk, conn, store):
    """(stop reason or the error raised, what the walk found, how many records it decrypted)."""
    decrypted = []

    def counted(rec, keys):
        decrypted.append(rec.stream_offset)
        return decrypt_record(rec, keys)

    found: dict = {}
    with mock.patch.object(module, "decrypt_record", counted):
        try:
            stop = walk(conn, store, found)
        except TlsLayersError as exc:
            stop = type(exc)
    return stop, found, len(decrypted)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_walk_opens_records_as_the_reference_walk_does(data):
    """The walk stops for the reason, finds the boundaries and decrypts the records the generator-driven walk did."""
    client_random = b"\x11" * 32
    store = _store_for(client_random)
    ch, sh = _hellos(client_random)
    client = data.draw(_protected_flight(store, client_random, "CLIENT", b"GET / HTTP/1.1\r\n\r\n"), label="client")
    server = data.draw(_protected_flight(store, client_random, "SERVER", b"HTTP/1.1 200 OK\r\n\r\n"), label="server")
    conn = _connection([ch, *client], [sh, *server])
    got = _walk_outcome(pipeline, pipeline._walk, conn, store)
    assert got == _walk_outcome(reference, reference.walk, conn, store)


def test_malformed_client_hello_is_partial():
    short_hello = build_record(CT_HANDSHAKE, build_handshake_message(1, bytes(10)), 0x0301)
    tl = analyze_connection(_connection([short_hello], []), KeyLogStore())
    assert (tl.validity, tl.reason) == ("partial", "malformed_hello")
    assert tl.t_clienthello is None


def test_malformed_server_hello_is_partial():
    ch, _sh = _hellos(bytes(32))
    short_hello = build_record(CT_HANDSHAKE, build_handshake_message(2, bytes(5)))
    tl = analyze_connection(_connection([ch], [short_hello]), KeyLogStore())
    assert (tl.validity, tl.reason) == ("partial", "malformed_hello")
    assert tl.t_clienthello == 200_000
    assert tl.cipher_suite is None


def test_server_hello_key_share_shorter_than_a_group_is_partial():
    # a key_share extension of one byte cannot hold the two-byte selected group
    key_share = struct.pack(">HH", EXT_KEY_SHARE, 1) + b"\x1d"
    body = b"\x03\x03" + bytes(32) + b"\x00" + b"\x13\x01" + b"\x00" + struct.pack(">H", len(key_share)) + key_share
    message = build_handshake_message(2, body)
    with pytest.raises(MalformedHello):
        parse_server_hello(message[4:])
    ch, _sh = _hellos(bytes(32))
    tl = analyze_connection(_connection([ch], [build_record(CT_HANDSHAKE, message)]), KeyLogStore())
    assert (tl.validity, tl.reason) == ("partial", "malformed_hello")
    assert tl.t_clienthello == 200_000
    assert tl.cipher_suite is None


# -- reassembly anomalies: recorded, validity left to the walk -------------------

SYNACK = int(TcpFlags.SYN | TcpFlags.ACK)


def _resend_request_corrupted(dt):
    """A copy of the client's last data segment, dt ns away, with its last (AEAD tag) byte flipped."""

    def inject(packets):
        last = max((p for p in packets if p.payload and p.dst_port == 443), key=lambda p: p.timestamp_ns)
        bad = last.payload[:-1] + bytes([last.payload[-1] ^ 0xFF])
        return packets + [last._replace(payload=bad, timestamp_ns=last.timestamp_ns + dt)]

    return inject


def _with_control(make):
    """One extra control segment, made from the connection's SYN and SYN-ACK."""

    def inject(packets):
        syn = next(p for p in packets if p.tcp_flags == TcpFlags.SYN)
        synack = next(p for p in packets if p.tcp_flags == SYNACK)
        return packets + [make(syn, synack)]

    return inject


def _drop_synack(packets):
    return [p for p in packets if p.tcp_flags != SYNACK]


@pytest.mark.parametrize("inject,anomalies,outcome", [
    pytest.param(_resend_request_corrupted(-1), {"overlap_mismatch"}, ("partial", "undecryptable"),
                 id="overlap_mismatch-first-arrival-corrupted"),
    pytest.param(_resend_request_corrupted(+1000), {"overlap_mismatch"}, ("valid", None),
                 id="overlap_mismatch-retransmission-corrupted"),
    pytest.param(_with_control(lambda syn, sa: syn._replace(seq=syn.seq + 1, timestamp_ns=syn.timestamp_ns + 1000)),
                 {"dual_isn"}, ("valid", None), id="dual_isn"),
    pytest.param(_with_control(lambda syn, sa: syn._replace(tcp_flags=SYNACK, timestamp_ns=sa.timestamp_ns + 1000)),
                 {"synack_from_client"}, ("valid", None), id="synack_from_client"),
    pytest.param(_with_control(lambda syn, sa: sa._replace(tcp_flags=int(TcpFlags.SYN), timestamp_ns=syn.timestamp_ns + 1000)),
                 {"simultaneous_open"}, ("valid", None), id="simultaneous_open"),
    pytest.param(_drop_synack, {"unanchored_data"}, ("partial", "no_synack"), id="unanchored_data"),
])
def test_reassembly_anomaly_leaves_validity_to_the_walk(inject, anomalies, outcome):
    frames, keylog_text, _ = synth.generate(synth.ScenarioSpec(connections=(clean_connection_spec(),)))
    packets = decode_frames(frames)
    (conn,) = assemble(inject(packets))
    assert conn.anomalies == anomalies
    tl = analyze_connection(conn, parse_keylog(keylog_text))
    assert (tl.validity, tl.reason) == outcome


# -- flow-at-a-time driver: bounded memory, the parent's order --------------------


def _decoded(spec):
    frames, keylog_text, _ = synth.generate(spec)
    return decode_frames(frames), keylog_text


def _bucket_spec(n):
    return synth.ScenarioSpec(connections=tuple(
        clean_connection_spec(offset_ns=i * 1_000_000_000, seed=i + 1, response_body_bytes=64 * 1024)
        for i in range(n)
    ))


def test_walk_holds_one_flow_of_streams_at_a_time(monkeypatch):
    frames, keylog_text, _ = synth.generate(_bucket_spec(30))
    payload_bytes = sum(len(p.payload) for p in decode_frames(frames))
    assemble_flow = pipeline.assemble_flow

    def traced_from_the_first_flow(key, group, buf):
        # tracing starts once ingest has filled the buckets, which the next test bounds per packet
        if not tracemalloc.is_tracing():
            tracemalloc.start()
        return assemble_flow(key, group, buf)

    monkeypatch.setattr(pipeline, "assemble_flow", traced_from_the_first_flow)
    try:
        result = analyze_frames(frames, keylog_text, "memory")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.counts["valid"] == 30
    # every connection's joined streams alive at once would be about 1x the payload
    assert 0 < peak < 0.25 * payload_bytes, (peak, payload_bytes)


def test_the_walk_copies_only_the_records_it_opens():
    # A 512 KiB response: the walk opens the server's hello, its handshake flight and the
    # record with the status line, and reads no other record body.  Joining the stream or
    # copying every record body would cost at least the stream's length.
    frames, keylog_text, _ = synth.generate(
        synth.ScenarioSpec(connections=(clean_connection_spec(response_body_bytes=512 * 1024),))
    )
    (conn,) = assemble_frames(frames)
    keystore = parse_keylog(keylog_text)
    tracemalloc.start()
    try:
        tl = analyze_connection(conn, keystore)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert tl.validity == "valid" and tl.t_response_last is not None
    assert peak < len(conn.server_to_client) / 4, (peak, len(conn.server_to_client))


def test_flow_buckets_hold_no_payload_copies(monkeypatch):
    # Traced memory at the end of ingest, key log included, per bucketed packet.
    # Most of these segments carry over 1 KiB of payload; a bucket entry that
    # copies it out of the capture's map costs that much again.
    frames, keylog_text, _ = synth.generate(_bucket_spec(8))
    seen = {"packets": 0}
    assemble_flow = pipeline.assemble_flow

    def measured(key, group, buf):
        seen.setdefault("traced", tracemalloc.get_traced_memory()[0])  # at the first flow: ingest is done
        seen["packets"] += len(group)
        return assemble_flow(key, group, buf)

    monkeypatch.setattr(pipeline, "assemble_flow", measured)
    tracemalloc.start()
    try:
        result = analyze_frames(frames, keylog_text, "buckets")
    finally:
        tracemalloc.stop()
    assert result.counts["valid"] == 8
    assert seen["packets"] == len(frames)
    assert seen["traced"] / seen["packets"] < 400, seen


@pytest.mark.parametrize("from_client", [True, False], ids=["client", "server"])
def test_stray_segment_before_the_syn_leaves_the_connection_valid(from_client):
    packets, keylog_text = _decoded(synth.ScenarioSpec(connections=(clean_connection_spec(offset_ns=5_000_000),)))
    syn = min(packets, key=lambda p: p.timestamp_ns)
    ends = {} if from_client else dict(
        src_ip=syn.dst_ip, dst_ip=syn.src_ip, src_port=syn.dst_port, dst_port=syn.src_port
    )
    stray = syn._replace(timestamp_ns=syn.timestamp_ns - 1_000_000, tcp_flags=int(TcpFlags.PSH | TcpFlags.ACK),
                  payload=bytes(14), **ends)
    counts = analyze_frames(segment_frames([stray, *packets]), keylog_text, "stray").counts
    assert (counts["valid"], counts["partial"]) == (1, {"no_syn": 1})


def test_capture_ingest_counts_every_frame(tmp_path):
    frames, keylog_text, _ = synth.generate(synth.ScenarioSpec(connections=(clean_connection_spec(),)))
    arp = CapturedFrame(timestamp_ns=1, link_type=1, data=b"\xff" * 6 + b"\x02" * 6 + b"\x08\x06" + bytes(28), orig_len=42)
    runt = CapturedFrame(timestamp_ns=2, link_type=1, data=bytes(10), orig_len=10)
    synth.emit_capture([arp, *frames, runt, arp], tmp_path / "capture.pcap")
    (tmp_path / "keylog.txt").write_text(keylog_text)
    result = analyze_capture(tmp_path / "capture.pcap", tmp_path / "keylog.txt", "ingest")
    assert result.ingest == {"frames": len(frames) + 3, "non_tcp_frames": 2, "malformed_frames": 1}
    assert result.counts["valid"] == 1


def test_a_capture_that_grows_after_it_is_opened_is_hashed_and_analyzed_as_opened(tmp_path, monkeypatch):
    # a capture still being written: the first handle opened on it appends a second connection when it
    # closes, and the document must hash and count the same bytes, those of the file as it was opened
    spec = synth.ScenarioSpec(connections=(clean_connection_spec(), clean_connection_spec(offset_ns=10**8, seed=2)))
    frames, keylog_text, _ = synth.generate(spec)
    first = [f for f in frames if f.timestamp_ns < 10**8]
    path, whole, keylog = tmp_path / "growing.pcap", tmp_path / "whole.pcap", tmp_path / "keylog.txt"
    synth.emit_capture(first, path)
    synth.emit_capture(frames, whole)
    keylog.write_text(keylog_text)
    original = path.read_bytes()
    later = whole.read_bytes()[len(original) :]
    assert whole.read_bytes() == original + later and len(first) < len(frames)

    real_open = pathlib.Path.open
    opened = []

    class GrowsOnClose:
        def __init__(self, fh):
            self.fh = fh

        def __getattr__(self, name):
            return getattr(self.fh, name)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()
            with real_open(path, "ab") as out:
                out.write(later)

    def open_once_growing(self, *args, **kwargs):
        fh = real_open(self, *args, **kwargs)
        if self == path and not opened:
            opened.append(self)
            return GrowsOnClose(fh)
        return fh

    monkeypatch.setattr(pathlib.Path, "open", open_once_growing)
    result = analyze_capture(path, keylog, "growing")
    assert opened and path.read_bytes() == original + later
    assert result.inputs["pcap_sha256"] == hashlib.sha256(original).hexdigest()
    assert result.ingest["frames"] == len(first)
    assert result.counts["total_streams"] == result.counts["valid"] == 1


def test_the_capture_map_is_closed_when_the_walk_ends_or_raises(tmp_path, monkeypatch):
    maps = []

    def recorded(path):
        maps.append(capture.map_capture(path))
        return maps[-1]

    monkeypatch.setattr(pipeline, "map_capture", recorded)
    frames, _, _ = synth.generate(synth.ScenarioSpec(connections=(clean_connection_spec(),)))
    path = tmp_path / "run.pcapng"
    synth.emit_capture(frames, path, "pcapng")
    assert analyze_capture(path, None, "run").counts["total_streams"] == 1
    assert len(maps) == 1 and maps[0].closed

    # a second interface, of an unsupported link type, half way through the frames
    raw = path.read_bytes()
    epbs, off = [], 0
    while off < len(raw):
        block_type, total = struct.unpack_from("<II", raw, off)
        if block_type == 6:
            epbs.append(off)
        off += total
    half = epbs[len(epbs) // 2]
    bad = tmp_path / "bad.pcapng"
    bad.write_bytes(raw[:half] + wire.idb("<", 105) + raw[half:])
    with pytest.raises(UnknownLinkType):
        analyze_capture(bad, None, "bad")
    assert len(maps) == 2 and maps[1].closed


def _reuse_after_rst(packets, first_port, second_port):
    """The first connection ends in a client RST instead of FINs; the second takes over its client port."""
    out = []
    for p in packets:
        if first_port in (p.src_port, p.dst_port) and p.tcp_flags & TcpFlags.FIN:
            if p.src_port == first_port:
                out.append(p._replace(tcp_flags=int(TcpFlags.RST | TcpFlags.ACK)))
            continue
        if p.src_port == second_port:
            p = p._replace(src_port=first_port)
        elif p.dst_port == second_port:
            p = p._replace(dst_port=first_port)
        out.append(p)
    return out


def test_flow_at_a_time_matches_assemble_sort_walk_on_hard_cases():
    anomalies = [(), ("retransmit",), ("reorder",), ("truncate",), ("drop_keylog",),
                 ("coalesce_request",), ("retransmit", "reorder"), ()]
    start_ms = [15, 0, 30, 5, 35, 10, 25, 60]  # neither the client-port order nor its reverse
    spec = synth.ScenarioSpec(connections=tuple(
        clean_connection_spec(offset_ns=ms * 1_000_000, seed=i + 1, anomalies=frozenset(a))
        for i, (a, ms) in enumerate(zip(anomalies, start_ms))
    ))
    packets, keylog_text = _decoded(spec)
    packets = _reuse_after_rst(packets, first_port=10001, second_port=10007)
    frames = segment_frames(packets)
    assert decode_frames(frames) == packets
    keystore = parse_keylog(keylog_text)

    conns = assemble_frames(frames)
    assert sorted((c.client[1], c.incarnation) for c in conns if c.client[1] == 10001) == [
        (10001, 0), (10001, 1)
    ]
    ordered = sorted(conns, key=TcpConnection.sort_key)
    assert ordered not in (conns, conns[::-1])
    expected = [analyze_connection(c, keystore) for c in ordered]
    assert {(tl.validity, tl.reason) for tl in expected} == {
        ("valid", None), ("partial", "truncated"), ("partial", "no_keys")
    }

    assert analyze_frames(frames, keylog_text, "hard").timelines == expected


# -- reference cycles: the analyze command pauses the cyclic collector for the run --------


def _every_walk_path():
    """Frames and key log of one capture: a connection on each walk path, a malformed frame, rejected key-log lines."""
    kinds = ("valid", "truncate", "drop_keylog", "non200", "corrupted_retransmit", "malformed_hello")
    spec = synth.ScenarioSpec(connections=tuple(
        clean_connection_spec(offset_ns=i * 1_000_000_000, seed=i + 1, anomalies=frozenset({kind}) & synth.ANOMALIES)
        for i, kind in enumerate(kinds)
    ))
    packets, keylog_text = _decoded(spec)
    port = dict(zip(kinds, range(10000, 10000 + len(kinds))))
    ours = [p for p in packets if port["corrupted_retransmit"] in (p.src_port, p.dst_port)]
    packets = [p for p in packets if p not in ours] + _resend_request_corrupted(-1)(ours)
    # the malformed_hello connection's ClientHello claims a 10-byte message: too short to parse
    packets = [
        p._replace(payload=p.payload[:6] + (10).to_bytes(3, "big") + p.payload[9:])
        if p.src_port == port["malformed_hello"] and p.payload.startswith(b"\x16\x03\x01") else p
        for p in packets
    ]

    client_random = b"\x12" * 32
    store = _store_for(client_random)
    ch, sh = _hellos(client_random)
    fin = _seal(store, client_random, "CLIENT_HANDSHAKE_TRAFFIC_SECRET", 0,
                CT_HANDSHAKE, build_handshake_message(HT_FINISHED, bytes(32)))
    key_update = _seal(store, client_random, "CLIENT_TRAFFIC_SECRET_0", 0,
                       CT_HANDSHAKE, build_handshake_message(HT_KEY_UPDATE, b"\x00"))
    packets += _segments([ch, fin, key_update], [sh], client=(CLIENT[0], 41000), t0=10_000_000_000)
    hrr = build_record(CT_HANDSHAKE, render_server_hello(HRR_RANDOM, 0x1301, (0x001D, b"")))
    packets += _segments([ch], [hrr], client=(CLIENT[0], 41001), t0=11_000_000_000)
    keylog_text += "".join(f"{label} {client_random.hex()} {store.get(client_random, label).hex()}\n"
                           for label in LABELS)
    keylog_text += "not a key log line\nUNKNOWN_LABEL " + "00" * 32 + " " + "00" * 32 + "\n"
    keylog_text += keylog_text.splitlines(keepends=True)[0]  # a duplicate entry, which warns

    frames = segment_frames(packets)
    bad_ihl = frames[0]._replace(data=frames[0].data[:14] + b"\x42" + frames[0].data[15:])
    return [*frames, bad_ihl], keylog_text


def test_a_run_builds_no_reference_cycles():
    """With the collector off, a run over every walk path leaves nothing for `gc.collect` to find.

    So pausing the collector for `analyze` (`cli._cmd_analyze`) holds no
    garbage until the process exits.  A first run loads what a run loads
    lazily (`logging`, for the warnings), which is not the run's garbage.
    """
    frames, keylog_text = _every_walk_path()
    result = analyze_frames(frames, keylog_text, "paths")
    assert result.counts == {
        "total_streams": 8,
        "valid": 1,
        "partial": {"malformed_hello": 1, "no_keys": 1, "truncated": 1, "undecryptable": 2},
        "excluded": {"hrr": 1, "non200": 1},
    }
    assert result.ingest["malformed_frames"] == 1
    del result
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        result = analyze_frames(frames, keylog_text, "paths")
        found = gc.collect()
    finally:
        if enabled:
            gc.enable()
    assert result.counts["total_streams"] == 8
    assert found == 0
