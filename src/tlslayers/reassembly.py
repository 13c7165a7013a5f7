"""TCP stream reassembly with first-arrival timestamping.

Packets are grouped into bidirectional connections keyed by the four-tuple,
oriented by the SYN direction.  A SYN opens a new incarnation after a close
or after a remnant seen before any SYN; each incarnation is one
`TcpConnection`, the only connection type.  Each direction becomes a
contiguous byte stream (starting at ISN+1) plus an offset-to-timestamp map
recording when each byte range FIRST crossed the wire; retransmissions never
overwrite the first arrival, so reassembly is insensitive to capture-file
ordering.

Segments are placed in arrival order against a sorted list of disjoint
covered intervals, following the segment-placement rules of RFC 9293
§3.10.7: the uncovered sub-ranges of a segment become new pieces (each
referencing the captured payload it came from), and the sub-ranges already
covered are compared with the stored bytes, a difference being recorded as
``overlap_mismatch``.  Only the contiguous prefix from offset 0 is joined
into the stream.  Memory is therefore proportional to the captured payload
bytes, never to the sequence offsets a segment claims.  `group_flows` and
`assemble_flow` let a caller assemble one four-tuple at a time; the pipeline
does.  Packets are read by position: `decode_at`'s plain tuples and
`DecodedPacket`s are interchangeable.

Reassembly reports bytes, times and anomalies, never a verdict: an anomaly
does not change a connection's validity by itself.  The TLS walk decides
that from record framing, hello parsing and AEAD, so a retransmission with
different bytes keeps the first arrival, and if the first arrival was the
corrupt copy, AEAD rejects the record.
"""

from __future__ import annotations

import logging
from bisect import bisect_right
from operator import itemgetter
from typing import Iterable

from tlslayers.decode import DecodedPacket, TcpFlags
from tlslayers.errors import GapAtOffset

logger = logging.getLogger(__name__)

_SEQ_MOD = 1 << 32
_FORWARD_WINDOW = 1 << 30  # relative offsets past this are treated as pre-ISN junk
_SYN = int(TcpFlags.SYN)
_ACK = int(TcpFlags.ACK)
_RST = int(TcpFlags.RST)
_FIN = int(TcpFlags.FIN)
_first = itemgetter(0)  # a packet's timestamp; a stream piece's start offset
_ts_rel = itemgetter(2, 0)  # a placed segment's (ts, rel_offset)


class DirectionalStream:
    """One direction's reassembled bytes and per-offset first-arrival times."""

    __slots__ = ("data", "offsets", "times", "has_gap")

    def __init__(self, data: bytes, offsets_ts: list[tuple[int, int]], has_gap: bool):
        self.data = data
        self.offsets = [o for o, _ in offsets_ts]  # piece start offsets, ascending
        self.times = [t for _, t in offsets_ts]  # each piece's first-arrival time
        self.has_gap = has_gap

    def __len__(self) -> int:
        return len(self.data)

    @property
    def offsets_ts(self) -> list[tuple[int, int]]:
        return list(zip(self.offsets, self.times))

    def timestamp_at(self, offset: int) -> int:
        """Arrival time of the segment that first carried the byte at offset."""
        if offset < 0:
            raise ValueError(f"negative offset {offset}")
        if offset >= len(self.data):
            raise GapAtOffset(f"offset {offset} beyond contiguous data ({len(self.data)} bytes)")
        idx = bisect_right(self.offsets, offset) - 1
        if idx < 0:
            raise GapAtOffset(f"offset {offset} precedes first mapped byte")
        return self.times[idx]


EMPTY_STREAM = DirectionalStream(b"", [], False)


class TcpConnection:
    """One SYN-initiated incarnation of a four-tuple, oriented by its SYN.

    `assemble_flow` fills in the endpoints, ISNs, handshake times, FIN/RST
    flags and each direction's segments; `join_streams` then turns the
    segments into `client_to_server` and `server_to_client`.
    """

    __slots__ = (
        "client", "server", "isn_c", "isn_s", "t_syn", "t_synack",
        "segs_c", "segs_s", "reset", "fin_c", "fin_s", "truncated",
        "first_ts", "incarnation", "anomalies", "client_to_server", "server_to_client",
    )

    def __init__(self, client: tuple[bytes, int], server: tuple[bytes, int], first_ts: int, incarnation: int):
        self.client = client  # (ip, port)
        self.server = server
        self.isn_c: int | None = None
        self.isn_s: int | None = None
        self.t_syn: int | None = None
        self.t_synack: int | None = None
        self.segs_c: list[tuple[int, bytes, int]] = []  # (seq, payload, ts)
        self.segs_s: list[tuple[int, bytes, int]] = []
        self.reset = False
        self.fin_c = False
        self.fin_s = False
        self.truncated = False
        self.first_ts = first_ts
        self.incarnation = incarnation
        self.anomalies: set[str] = set()
        self.client_to_server = EMPTY_STREAM
        self.server_to_client = EMPTY_STREAM

    def sort_key(self) -> tuple:
        return (
            self.t_syn if self.t_syn is not None else self.first_ts,
            *self.client,
            *self.server,
            self.incarnation,
        )

    def join_streams(self) -> None:
        """Build both directions' streams from the segments, then drop the segments."""
        self.client_to_server = _build_stream(self.segs_c, self.isn_c, self.anomalies)
        self.server_to_client = _build_stream(self.segs_s, self.isn_s, self.anomalies)
        self.segs_c, self.segs_s = [], []


def assemble_connections(packets: Iterable[DecodedPacket]) -> list[TcpConnection]:
    """Group packets into connections; one per SYN-initiated incarnation.

    Flows come in canonical four-tuple order.  Nothing here is fatal:
    anomalies (duplicate SYN with a new ISN, inconsistent overlapping data)
    are recorded in `anomalies` and leave validity to the TLS walk.
    """
    groups = group_flows(packets)
    return [conn for canon in sorted(groups) for conn in assemble_flow(groups[canon])]


def flow_key(pkt: DecodedPacket) -> tuple:
    """A packet's canonical four-tuple: its lower (ip, port) endpoint first."""
    a, b = (pkt[1], pkt[3]), (pkt[2], pkt[4])
    return (a, b) if a <= b else (b, a)


def group_flows(packets: Iterable[DecodedPacket]) -> dict[tuple, list[DecodedPacket]]:
    """Packets by `flow_key`, in the order given."""
    groups: dict[tuple, list[DecodedPacket]] = {}
    for pkt in packets:
        canon = flow_key(pkt)
        try:
            groups[canon].append(pkt)
        except KeyError:
            groups[canon] = [pkt]
    return groups


def assemble_flow(group: list[DecodedPacket]) -> list[TcpConnection]:
    """One four-tuple's packets (sorted in place) as its connections, in incarnation order."""
    # first-arrival semantics: order by timestamp; the stable sort keeps file order on ties
    group.sort(key=_first)
    conns: list[TcpConnection] = []
    curr: TcpConnection | None = None

    for ts, src_ip, dst_ip, src_port, dst_port, tcp_flags, seq, payload, truncated in group:
        src = (src_ip, src_port)
        dst = (dst_ip, dst_port)
        syn = tcp_flags & _SYN
        ack = tcp_flags & _ACK

        if syn and not ack:
            # a new incarnation after a close, or after a remnant seen before any SYN
            if curr is None or curr.t_syn is None or curr.reset or (curr.fin_c and curr.fin_s):
                curr = TcpConnection(src, dst, ts, len(conns))
                conns.append(curr)
                curr.isn_c = seq
                curr.t_syn = ts
            elif src == curr.client:
                if seq != curr.isn_c:
                    curr.anomalies.add("dual_isn")
                # retransmitted SYN: entries are time-ordered, first wins
            else:
                curr.anomalies.add("simultaneous_open")
            continue

        if curr is None:
            # mid-stream capture: orientation unknown; the walk stops at no_syn
            curr = TcpConnection(src, dst, ts, len(conns))
            conns.append(curr)

        if syn and ack:
            if src == curr.server:
                if curr.isn_s is None:
                    curr.isn_s = seq
                    curr.t_synack = ts
                elif seq != curr.isn_s:
                    curr.anomalies.add("dual_isn")
            else:
                curr.anomalies.add("synack_from_client")
            continue

        if tcp_flags & _RST:
            curr.reset = True
            continue
        if tcp_flags & _FIN:
            if src == curr.client:
                curr.fin_c = True
            else:
                curr.fin_s = True

        if truncated:
            curr.truncated = True
        if payload:
            if src == curr.client:
                curr.segs_c.append((seq, payload, ts))
            elif src == curr.server:
                curr.segs_s.append((seq, payload, ts))

    for conn in conns:
        conn.join_streams()
    return conns


def _build_stream(segs: list[tuple[int, bytes, int]], isn: int | None, anomalies: set[str]) -> DirectionalStream:
    if not segs:
        return EMPTY_STREAM
    if isn is None:
        # no SYN/SYN-ACK anchors this direction; data cannot be placed
        anomalies.add("unanchored_data")
        return EMPTY_STREAM

    base = (isn + 1) % _SEQ_MOD
    placed: list[tuple[int, bytes, int]] = []  # (rel_offset, payload, ts)
    for seq, payload, ts in segs:
        rel = (seq - base) % _SEQ_MOD
        if rel >= _FORWARD_WINDOW:
            continue  # keep-alive style probe at ISN or stale sequence
        placed.append((rel, payload, ts))
    if not placed:
        return EMPTY_STREAM

    # Disjoint covered pieces sorted by offset: (start, end, bytes, ts), where
    # ts is the arrival time of the segment that first carried those bytes.
    pieces: list[tuple[int, int, bytes, int]] = []
    placed.sort(key=_ts_rel)
    end_seen = 0  # the end of the last piece
    for rel, payload, ts in placed:
        end = rel + len(payload)
        if rel >= end_seen:
            # in order or past a hole: overlaps no piece
            pieces.append((rel, end, payload, ts))
            end_seen = end
            continue
        i = bisect_right(pieces, rel, key=_first) - 1
        if i < 0 or pieces[i][1] <= rel:
            i += 1
        elif end == rel + 1 == end_seen:
            continue  # zero-window probe / keep-alive: one stale byte at the stream edge
        end_seen = max(end_seen, end)

        # Walk the pieces overlapping [rel, end): the gaps between them become
        # new pieces, the covered sub-ranges must repeat the stored bytes.
        run: list[tuple[int, int, bytes, int]] = []
        pos = rel
        j = i
        while j < len(pieces) and pieces[j][0] < end:
            piece = pieces[j]
            p_start, p_end, p_bytes, _ = piece
            if pos < p_start:
                run.append((pos, p_start, payload[pos - rel : p_start - rel], ts))
                pos = p_start
            stop = min(end, p_end)
            if p_bytes[pos - p_start : stop - p_start] != payload[pos - rel : stop - rel]:
                anomalies.add("overlap_mismatch")
            run.append(piece)
            pos = stop
            j += 1
        if pos < end:
            run.append((pos, end, payload[pos - rel :], ts))
        pieces[i:j] = run

    # Only the contiguous prefix from offset 0 is materialised.
    k = 0
    prefix = 0
    while k < len(pieces) and pieces[k][0] == prefix:
        prefix = pieces[k][1]
        k += 1
    prefix_pieces = pieces[:k]
    return DirectionalStream(
        b"".join(p[2] for p in prefix_pieces),
        [(p[0], p[3]) for p in prefix_pieces],
        k < len(pieces),
    )
