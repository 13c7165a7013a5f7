"""TCP stream reassembly with first-arrival timestamping.

Packets are grouped into bidirectional connections keyed by the four-tuple,
oriented by the SYN direction.  A SYN opens a new incarnation after a close
or after a remnant seen before any SYN; each incarnation is one
`TcpConnection`, the only connection type.  Each direction becomes a
contiguous byte stream (starting at ISN+1) plus an offset-to-timestamp map
recording when each byte range FIRST crossed the wire; retransmissions never
overwrite the first arrival, so reassembly is insensitive to capture-file
ordering.

A direction whose segments arrive in order, each starting where the one
before it ended, takes its segments as the stream's pieces as they are,
with no sort and no search.  Any other direction places its segments in
arrival order against a sorted list of disjoint covered intervals,
following the segment-placement rules of RFC 9293 §3.10.7: the uncovered
sub-ranges of a segment become new pieces, and the sub-ranges already
covered are compared with the stored bytes, a difference being recorded as
``overlap_mismatch``.  Only the contiguous prefix from offset 0 is the
stream.  Memory is therefore proportional to the captured payload bytes,
never to the sequence offsets a segment claims.  `assemble_flow` assembles
one four-tuple at a time; the pipeline's walk calls it flow by flow.

A flow's bucket is keyed by its canonical four-tuple `(ip_lo, port_lo,
ip_hi, port_hi)`, the lower `(ip, port)` endpoint first, and holds one
plain tuple per packet, `(ts, from_lower, flags, seq, start, end,
truncated)`, built by the ingest loop (`decode.ingest_frames`): one
direction bit stands in for the two endpoints, and the payload is the span
`buf[start:end]` of the run's one buffer.  No entry
holds that buffer: `assemble_flow` takes it once, as an argument.  In a
run it is the capture's map (`capture.map_capture`), which
`pipeline.analyze_capture` holds open until the last flow is walked and
then closes, and a capture that shrinks on disk before then ends the
process with SIGBUS (see `capture`).  Nothing is copied in reassembly: a
connection's segments are its bucket entries, and a `DirectionalStream`
holds the buffer once and each piece as the integer index where its bytes
start, so a stream's bytes are copied only when `DirectionalStream.read`,
or a record's body (`tlswire.TlsRecord.body`), asks for them.  `assemble_connections`, which only the benchmark's layer
trace calls, joins its `DecodedPacket`s' payloads into one `bytes`, builds
the same entries as offsets into it, bucketed by the ingest loop's own rule
(`decode.flow_bucket`), and assembles every flow at once.

Reassembly reports bytes, times and anomalies, never a verdict: an anomaly
does not change a connection's validity by itself.  The TLS walk decides
that from record framing, hello parsing and AEAD, so a retransmission with
different bytes keeps the first arrival, and if the first arrival was the
corrupt copy, AEAD rejects the record.  The anomalies reach no document and
no CLI output: `TcpConnection.anomalies` is read only by the tests and by
the benchmark trace's `reassembly.anomalies` count.
"""

from __future__ import annotations

from bisect import bisect_right
from operator import itemgetter
from typing import Iterable

from tlslayers.decode import DecodedPacket, TcpFlags, flow_bucket
from tlslayers.errors import GapAtOffset

_SEQ_MOD = 1 << 32
_FORWARD_WINDOW = 1 << 30  # relative offsets past this are treated as pre-ISN junk
_SYN = int(TcpFlags.SYN)
_ACK = int(TcpFlags.ACK)
_RST = int(TcpFlags.RST)
_FIN = int(TcpFlags.FIN)
_first = itemgetter(0)  # a bucket entry's timestamp; a stream piece's start offset
_start = itemgetter(4)  # a bucket entry's payload start
_ts_rel = itemgetter(3, 0)  # a placed segment's (ts, rel_offset)


class DirectionalStream:
    """One direction's reassembled bytes as spans of one buffer, and per-offset first-arrival times.

    The contiguous prefix from offset 0 is a run of pieces: piece `i` starts at
    stream offset `offsets[i]`, first crossed the wire at `times[i]`, and its bytes
    begin at `buf[starts[i]]`; it ends where the next piece starts, the last one at
    `len(self)`.  No byte is copied until `read` asks for it.
    """

    __slots__ = ("buf", "offsets", "times", "starts", "length", "has_gap")

    def __init__(self, buf, offsets: list[int], times: list[int], starts: list[int], length: int, has_gap: bool):
        self.buf = buf  # the run's one buffer: every piece lies in it
        self.offsets = offsets  # piece start offsets, ascending
        self.times = times  # each piece's first-arrival time
        self.starts = starts  # the index in buf of each piece's first byte
        self.length = length
        self.has_gap = has_gap

    def __len__(self) -> int:
        return self.length

    def timestamp_at(self, offset: int) -> int:
        """Arrival time of the segment that first carried the byte at offset."""
        if offset < 0:
            raise ValueError(f"negative offset {offset}")
        if offset >= self.length:
            raise GapAtOffset(f"offset {offset} beyond contiguous data ({self.length} bytes)")
        idx = bisect_right(self.offsets, offset) - 1
        if idx < 0:
            raise GapAtOffset(f"offset {offset} precedes first mapped byte")
        return self.times[idx]

    def read(self, a: int, b: int) -> bytes:
        """The stream's bytes `[a, b)`, joined from the pieces that cover them alone."""
        if b > self.length:
            raise GapAtOffset(f"offset {b} beyond contiguous data ({self.length} bytes)")
        if a >= b:
            return b""
        buf, offsets, starts = self.buf, self.offsets, self.starts
        i = bisect_right(offsets, a) - 1
        if i < 0:
            raise GapAtOffset(f"offset {a} precedes first mapped byte")
        last = len(offsets) - 1
        base = starts[i] - offsets[i]  # the buffer index of stream offset 0, as piece i lies
        parts = []
        while i < last and offsets[i + 1] < b:
            i += 1
            parts.append(buf[base + a : base + offsets[i]])
            a = offsets[i]
            base = starts[i] - a
        parts.append(buf[base + a : base + b])
        return b"".join(parts)  # one part is returned as it is, not copied


EMPTY_STREAM = DirectionalStream(b"", [], [], [], 0, False)


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
        self.segs_c: list[tuple] = []  # the bucket entries that carry data, in time order
        self.segs_s: list[tuple] = []
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

    def join_streams(self, buf) -> None:
        """Build both directions' streams from the segments, spans of `buf`, then drop the segments."""
        self.client_to_server = _build_stream(self.segs_c, self.isn_c, self.anomalies, buf)
        self.server_to_client = _build_stream(self.segs_s, self.isn_s, self.anomalies, buf)
        self.segs_c, self.segs_s = [], []


def assemble_connections(packets: Iterable[DecodedPacket]) -> list[TcpConnection]:
    """Group packets into connections; one per SYN-initiated incarnation.

    The packets' payloads are joined into one buffer, and each packet becomes a bucket
    entry whose span is its payload there.  Flows come in canonical four-tuple order.
    Nothing here is fatal: anomalies (duplicate SYN with a new ISN, inconsistent
    overlapping data) are recorded in `anomalies` and leave validity to the TLS walk.
    """
    groups: dict[tuple, list[tuple]] = {}
    payloads = []
    end = 0
    for ts, src_ip, dst_ip, src_port, dst_port, flags, seq, payload, truncated in packets:
        start, end = end, end + len(payload)
        payloads.append(payload)
        bucket, from_lower = flow_bucket(groups, src_ip + dst_ip + (src_port << 16 | dst_port).to_bytes(4, "big"))
        bucket.append((ts, from_lower, flags, seq, start, end, truncated))
    buf = b"".join(payloads)
    return [conn for key in sorted(groups) for conn in assemble_flow(key, groups[key], buf)]


def assemble_flow(key: tuple, group: list[tuple], buf) -> list[TcpConnection]:
    """One four-tuple's bucket (sorted in place) as its connections, in incarnation order.

    The entries' payloads are spans of `buf`, the run's one buffer.
    """
    # first-arrival semantics: order by timestamp; the stable sort keeps file order on ties
    group.sort(key=_first)
    lower, higher = key[:2], key[2:]
    # a four-tuple whose endpoints are equal: every packet is both the client's and the server's
    looped = lower == higher
    conns: list[TcpConnection] = []
    curr: TcpConnection | None = None
    client_lower = True  # curr's client is the lower endpoint

    for entry in group:
        ts, from_lower, tcp_flags, seq, start, end, truncated = entry
        from_client = from_lower == client_lower
        syn = tcp_flags & _SYN
        ack = tcp_flags & _ACK

        if syn and not ack:
            # a new incarnation after a close, or after a remnant seen before any SYN
            if curr is None or curr.t_syn is None or curr.reset or (curr.fin_c and curr.fin_s):
                curr = _open(lower, higher, from_lower, ts, len(conns))
                conns.append(curr)
                client_lower = from_lower
                curr.isn_c = seq
                curr.t_syn = ts
            elif from_client:
                if seq != curr.isn_c:
                    curr.anomalies.add("dual_isn")
                # retransmitted SYN: entries are time-ordered, first wins
            else:
                curr.anomalies.add("simultaneous_open")
            continue

        if curr is None:
            # mid-stream capture: orientation unknown, the sender is taken as the client; the walk stops at no_syn
            curr = _open(lower, higher, from_lower, ts, len(conns))
            conns.append(curr)
            client_lower = from_lower
            from_client = True

        if syn and ack:
            if not from_client or looped:
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
            if from_client:
                curr.fin_c = True
            else:
                curr.fin_s = True

        if truncated:
            curr.truncated = True
        if end > start:
            (curr.segs_c if from_client else curr.segs_s).append(entry)

    for conn in conns:
        conn.join_streams(buf)
    return conns


def _open(lower: tuple, higher: tuple, from_lower: bool, ts: int, incarnation: int) -> TcpConnection:
    """A connection whose client sent the packet at hand."""
    if from_lower:
        return TcpConnection(lower, higher, ts, incarnation)
    return TcpConnection(higher, lower, ts, incarnation)


def _build_stream(segs: list[tuple], isn: int | None, anomalies: set[str], buf) -> DirectionalStream:
    """A direction's stream from its segments: bucket entries, sorted by time, whose payloads are spans of `buf`."""
    if not segs:
        return EMPTY_STREAM
    if isn is None:
        # no SYN/SYN-ACK anchors this direction; data cannot be placed
        anomalies.add("unanchored_data")
        return EMPTY_STREAM

    base = (isn + 1) % _SEQ_MOD
    # In order: each segment starts where the one before it ended, the first at offset 0.
    # The segments' times do not decrease, so the (ts, rel) sort below would leave them as
    # they are and each would be appended as a piece of its own: the segments are the pieces.
    offsets: list[int] = []
    rel = 0
    for _, _, _, seq, lo, hi, _ in segs:
        if (seq - base) % _SEQ_MOD != rel:
            break
        offsets.append(rel)
        rel += hi - lo
    else:
        if offsets[-1] < _FORWARD_WINDOW:  # the placement below drops a segment starting past it
            return DirectionalStream(buf, offsets, list(map(_first, segs)), list(map(_start, segs)), rel, False)

    placed: list[tuple] = []  # (rel_offset, lo, hi, ts): the payload is buf[lo:hi]
    for ts, _, _, seq, lo, hi, _ in segs:
        rel = (seq - base) % _SEQ_MOD
        if rel >= _FORWARD_WINDOW:
            continue  # keep-alive style probe at ISN or stale sequence
        placed.append((rel, lo, hi, ts))
    if not placed:
        return EMPTY_STREAM

    # Disjoint covered pieces sorted by offset: (start, end, lo, ts), the piece's bytes
    # starting at buf[lo], where ts is the arrival time of the segment that first carried them.
    pieces: list[tuple] = []
    placed.sort(key=_ts_rel)
    end_seen = 0  # the end of the last piece
    for rel, lo, hi, ts in placed:
        end = rel + hi - lo
        if rel >= end_seen:
            # in order or past a hole: overlaps no piece
            pieces.append((rel, end, lo, ts))
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
        run: list[tuple] = []
        pos = rel
        j = i
        while j < len(pieces) and pieces[j][0] < end:
            piece = pieces[j]
            p_start, p_end, p_lo, _ = piece
            if pos < p_start:
                run.append((pos, p_start, lo + pos - rel, ts))
                pos = p_start
            stop = min(end, p_end)
            if buf[p_lo + pos - p_start : p_lo + stop - p_start] != buf[lo + pos - rel : lo + stop - rel]:
                anomalies.add("overlap_mismatch")
            run.append(piece)
            pos = stop
            j += 1
        if pos < end:
            run.append((pos, end, lo + pos - rel, ts))
        pieces[i:j] = run

    # The stream is the contiguous prefix from offset 0.
    k = 0
    prefix = 0
    while k < len(pieces) and pieces[k][0] == prefix:
        prefix = pieces[k][1]
        k += 1
    prefix_pieces = pieces[:k]
    return DirectionalStream(
        buf,
        [p[0] for p in prefix_pieces],
        [p[3] for p in prefix_pieces],
        [p[2] for p in prefix_pieces],
        prefix,
        k < len(pieces),
    )
