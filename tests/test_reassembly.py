"""TCP reassembly: orientation, first-arrival semantics, gaps, incarnations."""

import gc
import random
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tlslayers.decode import TcpFlags, ingest_frames
from tlslayers.errors import GapAtOffset
from tlslayers.pipeline import analyze_connection
from tlslayers.reassembly import assemble_flow

import reference
from conftest import assemble, lay_out, segment, segment_frames

CLIENT = (bytes([10, 0, 0, 1]), 40000)
SERVER = (bytes([10, 0, 0, 2]), 443)


def _bytes(stream):
    """A stream's contiguous prefix, joined."""
    return stream.read(0, len(stream))


def handshake(t_syn=0, t_synack=360_000, isn_c=5000, isn_s=9000):
    return [
        segment(CLIENT, SERVER, t_syn, TcpFlags.SYN, isn_c),
        segment(SERVER, CLIENT, t_synack, TcpFlags.SYN | TcpFlags.ACK, isn_s),
        segment(CLIENT, SERVER, t_synack + 1000, TcpFlags.ACK, isn_c + 1),
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
        segment(server, client, 0, TcpFlags.SYN | TcpFlags.ACK, 40),
        segment(client, server, 1, TcpFlags.PSH | TcpFlags.ACK, 41, b"early"),
        segment(server, client, 2, TcpFlags.PSH | TcpFlags.ACK, 47, b"stray"),
        segment(client, server, 10, TcpFlags.SYN, 100),
        segment(server, client, 20, TcpFlags.SYN | TcpFlags.ACK, 900),
        segment(client, server, 30, TcpFlags.PSH | TcpFlags.ACK, 101, b"ping"),
        segment(server, client, 40, TcpFlags.PSH | TcpFlags.ACK, 901, b"pong"),
        segment(server, client, 50, TcpFlags.FIN | TcpFlags.ACK, 905),
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
        segment(CLIENT, CLIENT, 0, TcpFlags.SYN, 100),
        segment(CLIENT, CLIENT, 10, TcpFlags.SYN | TcpFlags.ACK, 900),
        segment(CLIENT, CLIENT, 20, TcpFlags.PSH | TcpFlags.ACK, 101, b"hello"),
        segment(CLIENT, CLIENT, 30, TcpFlags.FIN | TcpFlags.ACK, 106),
    ]
    (conn,) = assemble(packets)
    assert (conn.client, conn.server, conn.t_syn, conn.t_synack, conn.isn_s) == (CLIENT, CLIENT, 0, 10, 900)
    assert (_bytes(conn.client_to_server), len(conn.server_to_client)) == (b"hello", 0)
    assert (conn.fin_c, conn.fin_s, conn.anomalies) == (True, False, set())


def test_a_socket_connected_to_itself_is_one_bucket_from_the_lower_end():
    # a looped four-tuple as ingest buckets it: one flow, every frame from the lower endpoint,
    # and assembled from that bucket, its SYN-ACK is the server's
    packets = [
        segment(CLIENT, CLIENT, 0, TcpFlags.SYN, 100),
        segment(CLIENT, CLIENT, 10, TcpFlags.SYN | TcpFlags.ACK, 900),
        segment(CLIENT, CLIENT, 20, TcpFlags.PSH | TcpFlags.ACK, 101, b"hello"),
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
    packets.append(segment(CLIENT, SERVER, 500_000, TcpFlags.ACK | TcpFlags.PSH, 101, b"hello"))
    packets.append(segment(CLIENT, SERVER, 600_000, TcpFlags.ACK | TcpFlags.PSH, 106, b" world"))
    (conn,) = assemble(packets)
    assert _bytes(conn.client_to_server) == b"hello world"
    assert conn.client_to_server.timestamp_at(0) == 500_000
    assert conn.client_to_server.timestamp_at(5) == 600_000
    assert conn.client_to_server.timestamp_at(4) == 500_000


def test_retransmission_keeps_first_arrival():
    packets = handshake(isn_c=100)
    packets.append(segment(CLIENT, SERVER, 500_000, TcpFlags.ACK, 101, b"abcd"))
    packets.append(segment(CLIENT, SERVER, 5_500_000, TcpFlags.ACK, 101, b"abcd"))  # 5 ms later
    (conn,) = assemble(packets)
    assert conn.client_to_server.timestamp_at(0) == 500_000
    assert not conn.anomalies


def test_equal_times_rank_by_offset_then_file_order():
    packets = handshake(isn_c=100)
    packets.append(segment(CLIENT, SERVER, 500_000, TcpFlags.ACK, 103, b"XY"))  # offset 2, first in the file
    packets.append(segment(CLIENT, SERVER, 500_000, TcpFlags.ACK, 101, b"abcd"))  # offset 0: ranks first
    packets.append(segment(CLIENT, SERVER, 500_000, TcpFlags.ACK, 101, b"abZZ"))  # offset 0, later in the file
    (conn,) = assemble(packets)
    stream = conn.client_to_server
    assert (_bytes(stream), stream.offsets) == (b"abcd", [0])
    assert conn.anomalies == {"overlap_mismatch"}


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
            packets.append(segment(CLIENT, SERVER, ts, TcpFlags.ACK, 101 + off, payload))
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
        packets.append(segment(SERVER, CLIENT, ts, TcpFlags.ACK, 201 + a, data[a:b]))
        for j in range(a, b):
            per_byte[j] = ts
    (conn,) = assemble(packets)
    stream = conn.server_to_client
    assert _bytes(stream) == data
    for offset in rng.sample(range(total), 10_000):
        assert stream.timestamp_at(offset) == per_byte[offset]


def test_gap_detection_and_gap_at_offset():
    packets = handshake(isn_c=100)
    packets.append(segment(CLIENT, SERVER, 500_000, TcpFlags.ACK, 101, b"aaaa"))
    packets.append(segment(CLIENT, SERVER, 600_000, TcpFlags.ACK, 109, b"bbbb"))  # hole at 4..8
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
        packets.append(segment(CLIENT, SERVER, 10**6 + i, TcpFlags.ACK, 1 + total, payload))
        total += 100
    (conn,) = assemble(packets)
    assert len(conn.client_to_server) == total
    assert not conn.client_to_server.has_gap


def test_overlap_mismatch_is_recorded():
    packets = handshake(isn_c=100)
    packets.append(segment(CLIENT, SERVER, 500_000, TcpFlags.ACK, 101, b"aaaa"))
    packets.append(segment(CLIENT, SERVER, 600_000, TcpFlags.ACK, 101, b"aXaa"))
    (conn,) = assemble(packets)
    assert "overlap_mismatch" in conn.anomalies


def test_port_reuse_after_fin_starts_new_incarnation():
    packets = handshake()
    packets += [
        segment(CLIENT, SERVER, 700_000, TcpFlags.FIN | TcpFlags.ACK, 5001),
        segment(SERVER, CLIENT, 710_000, TcpFlags.FIN | TcpFlags.ACK, 9001),
        segment(CLIENT, SERVER, 720_000, TcpFlags.ACK, 5002),
    ]
    packets += handshake(t_syn=2_000_000, t_synack=2_360_000, isn_c=7777, isn_s=8888)
    conns = assemble(packets)
    assert len(conns) == 2
    assert conns[0].t_syn == 0
    assert conns[1].t_syn == 2_000_000
    assert conns[0].incarnation != conns[1].incarnation


def test_syn_after_rst_starts_new_incarnation():
    packets = handshake()
    packets.append(segment(SERVER, CLIENT, 800_000, TcpFlags.RST, 9001))
    packets += handshake(t_syn=2_000_000, t_synack=2_360_000, isn_c=7777, isn_s=8888)
    conns = assemble(packets)
    assert [c.t_syn for c in conns] == [0, 2_000_000]
    assert [c.incarnation for c in conns] == [0, 1]
    assert not any(c.anomalies for c in conns)


def test_dual_isn_anomaly():
    packets = handshake(isn_c=100)
    packets.append(segment(CLIENT, SERVER, 50_000, TcpFlags.SYN, 999))  # same tuple, new ISN
    (conn,) = assemble(packets)
    assert "dual_isn" in conn.anomalies


def test_synack_with_a_second_isn_is_dual_isn():
    packets = handshake(isn_s=9000)
    packets.append(segment(SERVER, CLIENT, 400_000, TcpFlags.SYN | TcpFlags.ACK, 4242))
    (conn,) = assemble(packets)
    assert conn.anomalies == {"dual_isn"}
    assert conn.t_synack == 360_000  # the first SYN-ACK anchors the server stream


@pytest.mark.parametrize("stray_from", [CLIENT, SERVER], ids=["client", "server"])
def test_syn_after_a_remnant_before_any_syn_opens_a_new_connection(stray_from):
    """A capture that starts mid-connection, then a port reuse: the SYN is not swallowed."""
    stray_to = SERVER if stray_from == CLIENT else CLIENT
    packets = [segment(stray_from, stray_to, 0, TcpFlags.PSH | TcpFlags.ACK, 77, b"x" * 14)]
    packets += handshake(t_syn=1_000_000, t_synack=1_360_000)
    conns = assemble(packets)
    assert [(c.t_syn, c.incarnation) for c in conns] == [(None, 0), (1_000_000, 1)]
    assert (conns[1].client, conns[1].server, conns[1].t_synack) == (CLIENT, SERVER, 1_360_000)
    assert not conns[1].anomalies


def test_syn_retransmit_is_not_an_anomaly():
    packets = handshake(isn_c=100)
    packets.insert(1, segment(CLIENT, SERVER, 30_000, TcpFlags.SYN, 100))
    (conn,) = assemble(packets)
    assert conn.t_syn == 0  # first arrival
    assert not conn.anomalies


def test_truncated_segment_marks_connection():
    packets = handshake(isn_c=100)
    packets.append(segment(CLIENT, SERVER, 500_000, TcpFlags.ACK, 101, b"part", truncated=True))
    (conn,) = assemble(packets)
    assert conn.truncated


def test_keepalive_probe_ignored():
    packets = handshake(isn_c=100)
    packets.append(segment(CLIENT, SERVER, 500_000, TcpFlags.ACK, 101, b"abcd"))
    # keep-alive: one stale byte just below the current edge
    packets.append(segment(CLIENT, SERVER, 900_000, TcpFlags.ACK, 104, b"Z"))
    (conn,) = assemble(packets)
    assert _bytes(conn.client_to_server) == b"abcd"
    assert "overlap_mismatch" not in conn.anomalies


def test_synack_ordering_invariant():
    for conn in assemble(handshake()):
        assert conn.t_syn <= conn.t_synack


def test_far_ahead_stray_segment_costs_captured_bytes_only():
    packets = handshake(isn_c=100)
    packets.append(segment(CLIENT, SERVER, 500_000, TcpFlags.ACK, 101, b"hello"))
    packets.append(segment(CLIENT, SERVER, 600_000, TcpFlags.ACK, 101 + (64 << 20), b"x"))
    tracemalloc.start()
    try:
        (conn,) = assemble(packets)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert _bytes(conn.client_to_server) == b"hello"
    assert conn.client_to_server.has_gap
    assert peak < 1 << 20


def test_reversed_segments_cost_time_in_proportion_to_their_count():
    # 1-byte segments from the last offset back to the first, at rising times: each one lands
    # before everything placed so far.  16 times the segments may cost at most 40 times the CPU
    # time (n log n predicts about 21).
    def cpu_time(n):
        packets = handshake(isn_c=100)
        packets += [segment(CLIENT, SERVER, 1_000_000 + i, TcpFlags.ACK, 101 + off, bytes([off & 0xFF]))
                    for i, off in enumerate(reversed(range(n)))]
        buf, spans = lay_out(segment_frames(packets))
        ((key, group),) = ingest_frames(buf, spans)[0].items()
        best = float("inf")
        gc.disable()  # as analyze runs it (cli._cmd_analyze)
        try:
            for _ in range(3):
                entries = list(group)  # assemble_flow sorts its bucket in place
                start = time.process_time()
                (conn,) = assemble_flow(key, entries, buf)
                best = min(best, time.process_time() - start)
        finally:
            gc.enable()
        stream = conn.client_to_server
        assert (len(stream), stream.has_gap, stream.read(0, 512)) == (n, False, bytes(range(256)) * 2)
        return best

    n = 5_000
    small, large = cpu_time(n), cpu_time(16 * n)
    assert large / small <= 40, f"{16 * n} segments took {large:.3f} s, {n} took {small:.3f} s"


# -- differential check against a per-byte model -------------------------------

_SEQ_MOD = 1 << 32
_T0 = 1_000_000  # after the handshake, so every data segment joins its connection


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
    """Segments that tile one byte string, arriving in order, from the last tile back to the
    first, or odd tiles then even ones, at times that never decrease and often repeat; segments
    may be one byte long, and one ISN puts the 2^32 wrap inside the tiling.  Then, in most
    draws, one segment that breaks the tiling: a retransmitted tile, a segment from inside the
    string to past its end, or a tile's copy that arrived before every tile.
    Returns (isn, [(seq, payload, ts)]) in capture order."""
    content = draw(st.binary(min_size=1, max_size=40))
    wrap_at = draw(st.integers(0, len(content)))  # the offset whose sequence number is 0
    isn = draw(st.sampled_from([100, _SEQ_MOD - 1 - wrap_at]))
    cuts = []  # (rel, payload)
    rel = 0
    while rel < len(content):
        end = min(rel + draw(st.integers(1, 6)), len(content))
        cuts.append((rel, content[rel:end]))
        rel = end
    order = draw(st.sampled_from(["in order", "reversed", "odd then even"]))
    if order == "reversed":
        cuts.reverse()
    elif order == "odd then even":
        cuts = cuts[1::2] + cuts[::2]
    tiles = []  # (rel, payload, ts)
    ts = _T0
    for rel, payload in cuts:
        ts += draw(st.integers(0, 2))
        tiles.append((rel, payload, ts))
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
    packets += [segment(CLIENT, SERVER, ts, TcpFlags.ACK, seq, payload) for seq, payload, ts in segs]
    (conn,) = assemble(packets)
    stream = conn.client_to_server
    data, offsets_ts, has_gap, anomalies = reference.stream(segs, isn)
    assert _bytes(stream) == data
    assert (stream.offsets, stream.times) == ([o for o, _ in offsets_ts], [t for _, t in offsets_ts])
    assert stream.has_gap == has_gap
    assert conn.anomalies == anomalies
