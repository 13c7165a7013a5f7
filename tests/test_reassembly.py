"""TCP reassembly: orientation, first-arrival semantics, gaps, incarnations."""

import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tlslayers.decode import TcpFlags, ingest_frames
from tlslayers.errors import GapAtOffset
from tlslayers.pipeline import analyze_connection
from tlslayers.reassembly import assemble_flow

from conftest import Segment, assemble, lay_out, segment_frames

CLIENT = (bytes([10, 0, 0, 1]), 40000)
SERVER = (bytes([10, 0, 0, 2]), 443)


def pkt(src, dst, ts, flags=0, seq=0, payload=b"", truncated=False):
    return Segment(
        timestamp_ns=ts,
        src_ip=src[0],
        dst_ip=dst[0],
        src_port=src[1],
        dst_port=dst[1],
        tcp_flags=int(flags),
        seq=seq,
        payload=payload,
        truncated=truncated,
    )


def _bytes(stream):
    """A stream's contiguous prefix, joined."""
    return stream.read(0, len(stream))


def handshake(t_syn=0, t_synack=360_000, isn_c=5000, isn_s=9000):
    return [
        pkt(CLIENT, SERVER, t_syn, TcpFlags.SYN, isn_c),
        pkt(SERVER, CLIENT, t_synack, TcpFlags.SYN | TcpFlags.ACK, isn_s),
        pkt(CLIENT, SERVER, t_synack + 1000, TcpFlags.ACK, isn_c + 1),
    ]


def test_syn_synack_no_data():
    (conn,) = assemble(handshake())
    assert conn.t_syn == 0
    assert conn.t_synack == 360_000
    assert len(conn.client_to_server) == 0
    assert len(conn.server_to_client) == 0
    assert conn.client[1] == 40000 and conn.server[1] == 443


@pytest.mark.parametrize("client, server", [(CLIENT, SERVER), (SERVER, CLIENT)], ids=["client-lower", "client-higher"])
def test_orientation_follows_the_syn_whichever_endpoint_is_lower(client, server):
    packets = [
        # a remnant before any SYN, as in a capture that starts after it: its first
        # packet's sender is taken as its client, whichever endpoint is lower
        pkt(server, client, 0, TcpFlags.SYN | TcpFlags.ACK, 40),
        pkt(client, server, 1, TcpFlags.PSH | TcpFlags.ACK, 41, b"early"),
        pkt(server, client, 2, TcpFlags.PSH | TcpFlags.ACK, 47, b"stray"),
        pkt(client, server, 10, TcpFlags.SYN, 100),
        pkt(server, client, 20, TcpFlags.SYN | TcpFlags.ACK, 900),
        pkt(client, server, 30, TcpFlags.PSH | TcpFlags.ACK, 101, b"ping"),
        pkt(server, client, 40, TcpFlags.PSH | TcpFlags.ACK, 901, b"pong"),
        pkt(server, client, 50, TcpFlags.FIN | TcpFlags.ACK, 905),
    ]
    remnant, conn = assemble(packets)
    assert (remnant.client, remnant.server, remnant.t_syn, remnant.t_synack) == (server, client, None, None)
    # neither side has a SYN to anchor its data, so no byte is placed in either stream
    assert remnant.anomalies == {"synack_from_client", "unanchored_data"}
    assert (len(remnant.client_to_server), len(remnant.server_to_client)) == (0, 0)
    assert (analyze_connection(remnant, None).validity, analyze_connection(remnant, None).reason) == (
        "partial", "no_syn",
    )
    assert (conn.client, conn.server, conn.t_syn, conn.t_synack) == (client, server, 10, 20)
    assert (_bytes(conn.client_to_server), _bytes(conn.server_to_client)) == (b"ping", b"pong")
    assert (conn.fin_c, conn.fin_s, conn.anomalies) == (False, True, set())


def test_a_flow_from_an_endpoint_to_itself_is_all_client():
    # both ends are one (ip, port): every packet matches the client, and a SYN-ACK the server too
    packets = [
        pkt(CLIENT, CLIENT, 0, TcpFlags.SYN, 100),
        pkt(CLIENT, CLIENT, 10, TcpFlags.SYN | TcpFlags.ACK, 900),
        pkt(CLIENT, CLIENT, 20, TcpFlags.PSH | TcpFlags.ACK, 101, b"hello"),
        pkt(CLIENT, CLIENT, 30, TcpFlags.FIN | TcpFlags.ACK, 106),
    ]
    (conn,) = assemble(packets)
    assert (conn.client, conn.server, conn.t_syn, conn.t_synack, conn.isn_s) == (CLIENT, CLIENT, 0, 10, 900)
    assert (_bytes(conn.client_to_server), len(conn.server_to_client)) == (b"hello", 0)
    assert (conn.fin_c, conn.fin_s, conn.anomalies) == (True, False, set())


def test_a_socket_connected_to_itself_is_one_bucket_from_the_lower_end():
    # a looped four-tuple as ingest buckets it: one flow, every frame from the lower endpoint,
    # and assembled from that bucket, its SYN-ACK is the server's
    packets = [
        pkt(CLIENT, CLIENT, 0, TcpFlags.SYN, 100),
        pkt(CLIENT, CLIENT, 10, TcpFlags.SYN | TcpFlags.ACK, 900),
        pkt(CLIENT, CLIENT, 20, TcpFlags.PSH | TcpFlags.ACK, 101, b"hello"),
    ]
    buf, spans = lay_out(segment_frames(packets))
    groups, counts = ingest_frames(buf, spans)
    assert counts == {"frames": 3, "non_tcp_frames": 0, "malformed_frames": 0}
    ((key, group),) = groups.items()
    assert key == (*CLIENT, *CLIENT)
    assert [from_lower for _, from_lower, *_ in group] == [True] * 3
    (conn,) = assemble_flow(key, group, buf)
    assert (conn.client, conn.server, conn.t_syn, conn.t_synack, conn.isn_s) == (CLIENT, CLIENT, 0, 10, 900)
    # no anomaly: in particular no synack_from_client
    assert (_bytes(conn.client_to_server), len(conn.server_to_client), conn.anomalies) == (b"hello", 0, set())


def test_prescribed_handshake_spacing_is_exact():
    (conn,) = assemble(handshake(t_syn=0, t_synack=360_000))
    assert conn.t_synack - conn.t_syn == 360_000  # 0.360 ms


def test_data_placed_at_sequence_offset():
    packets = handshake(isn_c=100)
    packets.append(pkt(CLIENT, SERVER, 500_000, TcpFlags.ACK | TcpFlags.PSH, 101, b"hello"))
    packets.append(pkt(CLIENT, SERVER, 600_000, TcpFlags.ACK | TcpFlags.PSH, 106, b" world"))
    (conn,) = assemble(packets)
    assert _bytes(conn.client_to_server) == b"hello world"
    assert conn.client_to_server.timestamp_at(0) == 500_000
    assert conn.client_to_server.timestamp_at(5) == 600_000
    assert conn.client_to_server.timestamp_at(4) == 500_000


def test_retransmission_keeps_first_arrival():
    packets = handshake(isn_c=100)
    packets.append(pkt(CLIENT, SERVER, 500_000, TcpFlags.ACK, 101, b"abcd"))
    packets.append(pkt(CLIENT, SERVER, 5_500_000, TcpFlags.ACK, 101, b"abcd"))  # 5 ms later
    (conn,) = assemble(packets)
    assert conn.client_to_server.timestamp_at(0) == 500_000
    assert not conn.anomalies


def test_out_of_order_segments_permutation_insensitive():
    rng = random.Random(31337)
    payloads = [rng.randbytes(rng.randint(100, 900)) for _ in range(20)]
    segments = []
    offset = 0
    for i, payload in enumerate(payloads):
        segments.append((offset, payload, 500_000 + i * 10_000))
        offset += len(payload)
    expected = (b"".join(payloads), [off for off, _, _ in segments], [ts for _, _, ts in segments])
    for trial in range(5):
        order = list(range(len(segments)))
        rng.shuffle(order)
        packets = handshake(isn_c=100)
        for idx in order:
            off, payload, ts = segments[idx]
            packets.append(pkt(CLIENT, SERVER, ts, TcpFlags.ACK, 101 + off, payload))
        (conn,) = assemble(packets)
        stream = conn.client_to_server
        assert (_bytes(stream), stream.offsets, stream.times) == expected


def test_timestamp_at_brute_force_oracle():
    rng = random.Random(99)
    total = 40 * 1024
    data = rng.randbytes(total)
    cuts = sorted(rng.sample(range(1, total), 27))
    bounds = [0] + cuts + [total]
    packets = handshake(isn_s=200)
    per_byte = [0] * total
    for i, (a, b) in enumerate(zip(bounds, bounds[1:])):
        ts = 1_000_000 + i * 7_000
        packets.append(pkt(SERVER, CLIENT, ts, TcpFlags.ACK, 201 + a, data[a:b]))
        for j in range(a, b):
            per_byte[j] = ts
    (conn,) = assemble(packets)
    stream = conn.server_to_client
    assert _bytes(stream) == data
    for offset in rng.sample(range(total), 10_000):
        assert stream.timestamp_at(offset) == per_byte[offset]


def test_gap_detection_and_gap_at_offset():
    packets = handshake(isn_c=100)
    packets.append(pkt(CLIENT, SERVER, 500_000, TcpFlags.ACK, 101, b"aaaa"))
    packets.append(pkt(CLIENT, SERVER, 600_000, TcpFlags.ACK, 109, b"bbbb"))  # hole at 4..8
    (conn,) = assemble(packets)
    stream = conn.client_to_server
    assert stream.has_gap
    assert _bytes(stream) == b"aaaa"  # contiguous prefix only
    with pytest.raises(GapAtOffset):
        stream.timestamp_at(5)
    with pytest.raises(ValueError):
        stream.timestamp_at(-1)


def test_byte_conservation_without_gaps():
    rng = random.Random(4)
    packets = handshake(isn_c=0)
    total = 0
    for i in range(10):
        payload = rng.randbytes(100)
        packets.append(pkt(CLIENT, SERVER, 10**6 + i, TcpFlags.ACK, 1 + total, payload))
        total += 100
    (conn,) = assemble(packets)
    assert len(conn.client_to_server) == total
    assert not conn.client_to_server.has_gap


def test_overlap_mismatch_is_recorded():
    packets = handshake(isn_c=100)
    packets.append(pkt(CLIENT, SERVER, 500_000, TcpFlags.ACK, 101, b"aaaa"))
    packets.append(pkt(CLIENT, SERVER, 600_000, TcpFlags.ACK, 101, b"aXaa"))
    (conn,) = assemble(packets)
    assert "overlap_mismatch" in conn.anomalies


def test_port_reuse_after_fin_starts_new_incarnation():
    packets = handshake()
    packets += [
        pkt(CLIENT, SERVER, 700_000, TcpFlags.FIN | TcpFlags.ACK, 5001),
        pkt(SERVER, CLIENT, 710_000, TcpFlags.FIN | TcpFlags.ACK, 9001),
        pkt(CLIENT, SERVER, 720_000, TcpFlags.ACK, 5002),
    ]
    packets += handshake(t_syn=2_000_000, t_synack=2_360_000, isn_c=7777, isn_s=8888)
    conns = assemble(packets)
    assert len(conns) == 2
    assert conns[0].t_syn == 0
    assert conns[1].t_syn == 2_000_000
    assert conns[0].incarnation != conns[1].incarnation


def test_syn_after_rst_starts_new_incarnation():
    packets = handshake()
    packets.append(pkt(SERVER, CLIENT, 800_000, TcpFlags.RST, 9001))
    packets += handshake(t_syn=2_000_000, t_synack=2_360_000, isn_c=7777, isn_s=8888)
    conns = assemble(packets)
    assert [c.t_syn for c in conns] == [0, 2_000_000]
    assert [c.incarnation for c in conns] == [0, 1]
    assert not any(c.anomalies for c in conns)


def test_dual_isn_anomaly():
    packets = handshake(isn_c=100)
    packets.append(pkt(CLIENT, SERVER, 50_000, TcpFlags.SYN, 999))  # same tuple, new ISN
    (conn,) = assemble(packets)
    assert "dual_isn" in conn.anomalies


def test_synack_with_a_second_isn_is_dual_isn():
    packets = handshake(isn_s=9000)
    packets.append(pkt(SERVER, CLIENT, 400_000, TcpFlags.SYN | TcpFlags.ACK, 4242))
    (conn,) = assemble(packets)
    assert conn.anomalies == {"dual_isn"}
    assert conn.t_synack == 360_000  # the first SYN-ACK anchors the server stream


@pytest.mark.parametrize("stray_from", [CLIENT, SERVER], ids=["client", "server"])
def test_syn_after_a_remnant_before_any_syn_opens_a_new_connection(stray_from):
    """A capture that starts mid-connection, then a port reuse: the SYN is not swallowed."""
    stray_to = SERVER if stray_from == CLIENT else CLIENT
    packets = [pkt(stray_from, stray_to, 0, TcpFlags.PSH | TcpFlags.ACK, 77, b"x" * 14)]
    packets += handshake(t_syn=1_000_000, t_synack=1_360_000)
    conns = assemble(packets)
    assert [(c.t_syn, c.incarnation) for c in conns] == [(None, 0), (1_000_000, 1)]
    assert (conns[1].client, conns[1].server, conns[1].t_synack) == (CLIENT, SERVER, 1_360_000)
    assert not conns[1].anomalies


def test_syn_retransmit_is_not_an_anomaly():
    packets = handshake(isn_c=100)
    packets.insert(1, pkt(CLIENT, SERVER, 30_000, TcpFlags.SYN, 100))
    (conn,) = assemble(packets)
    assert conn.t_syn == 0  # first arrival
    assert not conn.anomalies


def test_truncated_segment_marks_connection():
    packets = handshake(isn_c=100)
    packets.append(pkt(CLIENT, SERVER, 500_000, TcpFlags.ACK, 101, b"part", truncated=True))
    (conn,) = assemble(packets)
    assert conn.truncated


def test_keepalive_probe_ignored():
    packets = handshake(isn_c=100)
    packets.append(pkt(CLIENT, SERVER, 500_000, TcpFlags.ACK, 101, b"abcd"))
    # keep-alive: one stale byte just below the current edge
    packets.append(pkt(CLIENT, SERVER, 900_000, TcpFlags.ACK, 104, b"Z"))
    (conn,) = assemble(packets)
    assert _bytes(conn.client_to_server) == b"abcd"
    assert "overlap_mismatch" not in conn.anomalies


def test_synack_ordering_invariant():
    for conn in assemble(handshake()):
        assert conn.t_syn <= conn.t_synack


def test_far_ahead_stray_segment_costs_captured_bytes_only():
    packets = handshake(isn_c=100)
    packets.append(pkt(CLIENT, SERVER, 500_000, TcpFlags.ACK, 101, b"hello"))
    packets.append(pkt(CLIENT, SERVER, 600_000, TcpFlags.ACK, 101 + (64 << 20), b"x"))
    tracemalloc.start()
    try:
        (conn,) = assemble(packets)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert _bytes(conn.client_to_server) == b"hello"
    assert conn.client_to_server.has_gap
    assert peak < 1 << 20


# -- differential check against a per-byte model -------------------------------

_SEQ_MOD = 1 << 32
_T0 = 1_000_000  # after the handshake, so every data segment joins its connection


def reference_stream(segs, isn):
    """Per-byte first-arrival placement: the model the interval builder must match.

    segs is [(seq, payload, ts)] in capture order.  Returns (data, offsets_ts,
    has_gap, anomalies), where offsets_ts holds one (offset, ts) per run of
    bytes a segment newly covered, inside the contiguous prefix.
    """
    base = (isn + 1) % _SEQ_MOD
    placed = [((seq - base) % _SEQ_MOD, payload, ts) for seq, payload, ts in segs]
    placed = [p for p in placed if p[0] < 1 << 30]  # drops pre-ISN and stale sequences
    placed.sort(key=lambda p: (p[2], p[0]))
    byte_at = {}  # offset -> (byte, first-arrival ts)
    run_starts = []
    anomalies = set()
    end_seen = 0
    for rel, payload, ts in placed:
        if len(payload) == 1 and rel == end_seen - 1 and rel in byte_at:
            continue  # keep-alive probe at the edge
        in_new_run = False
        for i, b in enumerate(payload):
            off = rel + i
            if off in byte_at:
                if byte_at[off][0] != b:
                    anomalies.add("overlap_mismatch")
                in_new_run = False
            else:
                byte_at[off] = (b, ts)
                if not in_new_run:
                    run_starts.append((off, ts))
                in_new_run = True
        end_seen = max(end_seen, rel + len(payload))
    prefix = 0
    while prefix in byte_at:
        prefix += 1
    data = bytes(byte_at[o][0] for o in range(prefix))
    offsets_ts = sorted((o, t) for o, t in run_starts if o < prefix)
    return data, offsets_ts, len(byte_at) > prefix, anomalies


@st.composite
def segment_sets(draw):
    """Segments cut from one byte string: overlaps, flipped bytes, edge probes,
    equal timestamps, pre-ISN sequence numbers and segments past a gap.
    Returns (isn, [(seq, payload, ts)]); one ISN makes sequence numbers wrap."""
    isn = draw(st.sampled_from([100, _SEQ_MOD - 3]))
    content = draw(st.binary(min_size=1, max_size=40))
    segs = []
    ends = []
    for _ in range(draw(st.integers(1, 10))):
        ts = _T0 + draw(st.integers(0, 4))
        kind = draw(st.sampled_from(["cut", "cut", "probe", "pre_isn", "past_gap"]))
        if kind == "probe" and ends:
            rel = draw(st.sampled_from(ends)) - 1
            payload = bytearray(content[rel : rel + 1])
        elif kind == "pre_isn":
            rel = -draw(st.integers(1, 4))
            payload = bytearray(draw(st.binary(min_size=1, max_size=6)))
        elif kind == "past_gap":
            rel = len(content) + draw(st.integers(1, 8))
            payload = bytearray(draw(st.binary(min_size=1, max_size=4)))
        else:
            rel = draw(st.integers(0, len(content) - 1))
            payload = bytearray(content[rel : draw(st.integers(rel + 1, len(content)))])
            ends.append(rel + len(payload))
        if draw(st.integers(0, 5)) == 0:
            payload[draw(st.integers(0, len(payload) - 1))] ^= 0xFF
        segs.append(((isn + 1 + rel) % _SEQ_MOD, bytes(payload), ts))
    return isn, segs


@st.composite
def tilings(draw):
    """Segments that tile one byte string in order, each starting where the one before
    it ended, at times that never decrease and often repeat; segments may be one byte
    long, and one ISN puts the 2^32 wrap inside the tiling.  Then, in most draws, one
    segment that breaks the order: a retransmitted tile, a segment starting before the
    previous end, or a tile's copy that arrived before every tile.
    Returns (isn, [(seq, payload, ts)]) in capture order."""
    content = draw(st.binary(min_size=1, max_size=40))
    wrap_at = draw(st.integers(0, len(content)))  # the offset whose sequence number is 0
    isn = draw(st.sampled_from([100, _SEQ_MOD - 1 - wrap_at]))
    tiles = []  # (rel, payload, ts)
    rel, ts = 0, _T0
    while rel < len(content):
        end = min(rel + draw(st.integers(1, 6)), len(content))
        ts += draw(st.integers(0, 2))
        tiles.append((rel, content[rel:end], ts))
        rel = end
    kind = draw(st.sampled_from(["none", "retransmit", "overlap", "early"]))
    if kind == "retransmit":
        rel, payload, _ = draw(st.sampled_from(tiles))
        tiles.append((rel, payload, ts + draw(st.integers(0, 2))))
    elif kind == "overlap":
        rel = draw(st.integers(0, len(content) - 1))
        tiles.append((rel, content[rel:] + draw(st.binary(max_size=4)), ts + draw(st.integers(0, 2))))
    elif kind == "early":
        rel, payload, _ = draw(st.sampled_from(tiles))
        tiles.append((rel, payload, _T0 - 1))
    if kind != "none" and draw(st.integers(0, 3)) == 0:
        rel, payload, ts = tiles[-1]
        flipped = bytearray(payload)
        flipped[draw(st.integers(0, len(payload) - 1))] ^= 0xFF
        tiles[-1] = (rel, bytes(flipped), ts)
    return isn, [((isn + 1 + rel) % _SEQ_MOD, payload, ts) for rel, payload, ts in tiles]


@settings(max_examples=500, deadline=None)
@given(st.one_of(segment_sets(), tilings()))
def test_interval_builder_matches_per_byte_model(case):
    isn, segs = case
    packets = handshake(isn_c=isn)
    packets += [pkt(CLIENT, SERVER, ts, TcpFlags.ACK, seq, payload) for seq, payload, ts in segs]
    (conn,) = assemble(packets)
    stream = conn.client_to_server
    data, offsets_ts, has_gap, anomalies = reference_stream(segs, isn)
    assert _bytes(stream) == data
    assert (stream.offsets, stream.times) == ([o for o, _ in offsets_ts], [t for _, t in offsets_ts])
    assert stream.has_gap == has_gap
    assert conn.anomalies == anomalies
