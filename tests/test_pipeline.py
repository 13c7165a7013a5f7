"""Per-connection walk edge cases built from hand-assembled streams."""

import hashlib
import pathlib
import struct
import tracemalloc

import pytest

from tlslayers import capture, pipeline, synth
from tlslayers.capture import LINKTYPE_ETHERNET, CapturedFrame
from tlslayers.decode import DecodedPacket, TcpFlags, decode_frame
from tlslayers.errors import UnknownLinkType
from tlslayers.keylog import LABELS, KeyLogStore, parse_keylog
from tlslayers.pipeline import analyze_capture, analyze_connection, summarize_run
from tlslayers.reassembly import TcpConnection, assemble_connections
from tlslayers.timeline import layer_deltas_ns
from tlslayers.tlswire import (
    CT_CHANGE_CIPHER_SPEC,
    CT_HANDSHAKE,
    HRR_RANDOM,
    build_handshake_message,
    build_record,
    group_by_name,
    render_client_hello,
    render_server_hello,
)

from conftest import analyze_frames, clean_connection_spec, run_scenario

CLIENT = (bytes([10, 0, 0, 1]), 41000)
SERVER = (bytes([10, 0, 0, 2]), 443)


def _pkt(src, dst, ts, flags, seq, payload=b""):
    return DecodedPacket(
        timestamp_ns=ts, src_ip=src[0], dst_ip=dst[0], src_port=src[1], dst_port=dst[1],
        tcp_flags=int(flags), seq=seq, payload=payload, truncated=False,
    )


def _connection(client_payloads, server_payloads):
    """SYN at 0, SYN-ACK at 100us, data segments afterwards."""
    packets = [
        _pkt(CLIENT, SERVER, 0, TcpFlags.SYN, 1000),
        _pkt(SERVER, CLIENT, 100_000, TcpFlags.SYN | TcpFlags.ACK, 2000),
        _pkt(CLIENT, SERVER, 150_000, TcpFlags.ACK, 1001),
    ]
    off = 0
    for i, payload in enumerate(client_payloads):
        packets.append(_pkt(CLIENT, SERVER, 200_000 + i * 50_000, TcpFlags.ACK | TcpFlags.PSH, 1001 + off, payload))
        off += len(payload)
    off = 0
    for i, payload in enumerate(server_payloads):
        packets.append(_pkt(SERVER, CLIENT, 300_000 + i * 50_000, TcpFlags.ACK | TcpFlags.PSH, 2001 + off, payload))
        off += len(payload)
    (conn,) = assemble_connections(packets)
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
    ch = build_record(CT_HANDSHAKE, render_client_hello(bytes(32), [(0x001D, bytes(32))]), 0x0301)
    sh = build_record(CT_HANDSHAKE, render_server_hello(bytes(32), 0x1301, (0x001D, bytes(32))))
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
    import struct

    from cryptography.hazmat.primitives.ciphers.aead import AESGCM

    from tlslayers.keyschedule import derive_traffic_keys

    keys = derive_traffic_keys(store.get(client_random, label), "AES_128_GCM_SHA256")
    nonce = bytes(a ^ b for a, b in zip(keys.iv, counter.to_bytes(12, "big")))
    inner = content + bytes([inner_type])
    header = struct.pack(">BHH", 23, 0x0303, len(inner) + 16)
    return header + AESGCM(keys.key).encrypt(nonce, inner, header)


def test_client_flight_lost_is_no_finished():
    client_random = b"\x07" * 32
    store = _store_for(client_random)
    ch = build_record(CT_HANDSHAKE, render_client_hello(client_random, [(0x001D, bytes(32))]), 0x0301)
    sh = build_record(CT_HANDSHAKE, render_server_hello(bytes(32), 0x1301, (0x001D, bytes(32))))
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
    ch = build_record(CT_HANDSHAKE, render_client_hello(client_random, [(0x001D, bytes(32))]), 0x0301)
    sh = build_record(CT_HANDSHAKE, render_server_hello(bytes(32), 0x1301, (0x001D, bytes(32))))
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


def _hellos(client_random: bytes):
    ch = build_record(CT_HANDSHAKE, render_client_hello(client_random, [(0x001D, bytes(32))]), 0x0301)
    sh = build_record(CT_HANDSHAKE, render_server_hello(bytes(32), 0x1301, (0x001D, bytes(32))))
    return ch, sh


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


# -- reassembly anomalies: recorded, validity left to the walk -------------------

SYNACK = int(TcpFlags.SYN | TcpFlags.ACK)


def _copy(pkt, **changes):
    fields = {name: getattr(pkt, name) for name in DecodedPacket._fields}
    return DecodedPacket(**{**fields, **changes})


def _resend_request_corrupted(dt):
    """A copy of the client's last data segment, dt ns away, with its last (AEAD tag) byte flipped."""

    def inject(packets):
        last = max((p for p in packets if p.payload and p.dst_port == 443), key=lambda p: p.timestamp_ns)
        bad = last.payload[:-1] + bytes([last.payload[-1] ^ 0xFF])
        return packets + [_copy(last, payload=bad, timestamp_ns=last.timestamp_ns + dt)]

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
    pytest.param(_with_control(lambda syn, sa: _copy(syn, seq=syn.seq + 1, timestamp_ns=syn.timestamp_ns + 1000)),
                 {"dual_isn"}, ("valid", None), id="dual_isn"),
    pytest.param(_with_control(lambda syn, sa: _copy(syn, tcp_flags=SYNACK, timestamp_ns=sa.timestamp_ns + 1000)),
                 {"synack_from_client"}, ("valid", None), id="synack_from_client"),
    pytest.param(_with_control(lambda syn, sa: _copy(sa, tcp_flags=int(TcpFlags.SYN), timestamp_ns=syn.timestamp_ns + 1000)),
                 {"simultaneous_open"}, ("valid", None), id="simultaneous_open"),
    pytest.param(_drop_synack, {"unanchored_data"}, ("partial", "no_synack"), id="unanchored_data"),
])
def test_reassembly_anomaly_leaves_validity_to_the_walk(inject, anomalies, outcome):
    frames, keylog_text, _ = synth.generate(synth.ScenarioSpec(connections=(clean_connection_spec(),)))
    packets = [p for f in frames if (p := decode_frame(f)) is not None]
    (conn,) = assemble_connections(inject(packets))
    assert conn.anomalies == anomalies
    tl = analyze_connection(conn, parse_keylog(keylog_text))
    assert (tl.validity, tl.reason) == outcome


# -- flow-at-a-time driver: bounded memory, the parent's order --------------------


def _decoded(spec):
    frames, keylog_text, _ = synth.generate(spec)
    return [p for f in frames if (p := decode_frame(f)) is not None], keylog_text


def _framed(packets):
    """Packets as Ethernet frames again, so that a run can read them from a capture."""
    frames = []
    for p in packets:
        src, dst = (bytes(6), p.src_ip, p.src_port), (bytes(6), p.dst_ip, p.dst_port)
        data = synth._tcp_frame(src, dst, 0, p.seq, 0, p.tcp_flags, p.payload)
        # a snap-cut segment stays one: the wire carried more than the frame holds
        frames.append(CapturedFrame(p.timestamp_ns, LINKTYPE_ETHERNET, data, len(data) + p.truncated))
    return frames


def _bucket_spec(n):
    return synth.ScenarioSpec(connections=tuple(
        clean_connection_spec(offset_ns=i * 1_000_000_000, seed=i + 1, response_body_bytes=64 * 1024)
        for i in range(n)
    ))


def test_walk_holds_one_flow_of_streams_at_a_time(monkeypatch):
    frames, keylog_text, _ = synth.generate(_bucket_spec(30))
    payload_bytes = sum(len(p.payload) for f in frames if (p := decode_frame(f)) is not None)
    assemble = pipeline.assemble_flow

    def traced_from_the_first_flow(key, group):
        # tracing starts once ingest has filled the buckets, which the next test bounds per packet
        if not tracemalloc.is_tracing():
            tracemalloc.start()
        return assemble(key, group)

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
    packets, keylog_text = _decoded(
        synth.ScenarioSpec(connections=(clean_connection_spec(response_body_bytes=512 * 1024),))
    )
    (conn,) = assemble_connections(packets)
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
    assemble = pipeline.assemble_flow

    def measured(key, group):
        seen.setdefault("traced", tracemalloc.get_traced_memory()[0])  # at the first flow: ingest is done
        seen["packets"] += len(group)
        return assemble(key, group)

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
    stray = _copy(syn, timestamp_ns=syn.timestamp_ns - 1_000_000, tcp_flags=int(TcpFlags.PSH | TcpFlags.ACK),
                  payload=bytes(14), **ends)
    counts = analyze_frames(_framed([stray, *packets]), keylog_text, "stray").counts
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
    idb = struct.pack("<IIHHII", 1, 20, 105, 0, 65535, 20)
    bad = tmp_path / "bad.pcapng"
    bad.write_bytes(raw[:half] + idb + raw[half:])
    with pytest.raises(UnknownLinkType):
        analyze_capture(bad, None, "bad")
    assert len(maps) == 2 and maps[1].closed


def _reuse_after_rst(packets, first_port, second_port):
    """The first connection ends in a client RST instead of FINs; the second takes over its client port."""
    out = []
    for p in packets:
        if first_port in (p.src_port, p.dst_port) and p.tcp_flags & TcpFlags.FIN:
            if p.src_port == first_port:
                out.append(_copy(p, tcp_flags=int(TcpFlags.RST | TcpFlags.ACK)))
            continue
        if p.src_port == second_port:
            p = _copy(p, src_port=first_port)
        elif p.dst_port == second_port:
            p = _copy(p, dst_port=first_port)
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
    frames = _framed(packets)
    assert [decode_frame(f) for f in frames] == packets
    keystore = parse_keylog(keylog_text)

    conns = assemble_connections(packets)
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
