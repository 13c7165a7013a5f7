"""Capture-to-statistics pipeline.

A run is one process: ingest, reassembly, the per-connection TLS walk and
the summary run in sequence, connections in `TcpConnection.sort_key` order.
A process pool for the walk did not pay for itself.  On the 3000-connection
`handshake` benchmark inputs (2-core Xeon, Python 3.11) two workers took
1.80 s wall against 1.77 s, with 28% more CPU and 18% more peak RSS: the
walk's saving (about 0.1 s) went to pickling, forking and the pool's imports.

Each connection has one walk (`_walk`).  It finds the first handshake
message of each direction (ClientHello, ServerHello), derives the four
traffic keys, then runs one protected-record opener (`_open_protected`)
over each direction in turn: the client's yields the Finished and the HTTP
request, the server's the HTTP status line.  The walk writes boundaries
and handshake metadata straight into a `ConnectionTimeline` and returns why
it stopped early, if it did; `timeline.classify` turns that into validity
and reason.
"""

from __future__ import annotations

import hashlib
import logging
from dataclasses import dataclass, field
from pathlib import Path

from tlslayers.capture import open_capture
from tlslayers.decode import decode_frame
from tlslayers.errors import (
    AuthFailure,
    BadRecordHeader,
    EmptyInnerPlaintext,
    MalformedHeader,
    MalformedHello,
    OversizeRecord,
    TlsLayersError,
    UnreadableFile,
    UnsupportedCipherSuite,
)
from tlslayers.keylog import (
    LABEL_CLIENT_AP,
    LABEL_CLIENT_HS,
    LABEL_SERVER_AP,
    LABEL_SERVER_HS,
    KeyLogStore,
    parse_keylog,
)
from tlslayers.keyschedule import derive_traffic_keys, decrypt_record
from tlslayers.reassembly import TcpConnection, assemble_connections
from tlslayers.stats import LayerStatistics, summarize
from tlslayers.timeline import (
    LAYERS,
    NS_PER_MS,
    PARTIAL,
    VALID,
    ConnectionTimeline,
    classify,
    http_status,
    layer_deltas_ns,
    starts_http_request,
)
from tlslayers.tlswire import (
    CT_APPLICATION_DATA,
    CT_CHANGE_CIPHER_SPEC,
    CT_HANDSHAKE,
    HT_CLIENT_HELLO,
    HT_FINISHED,
    HT_KEY_UPDATE,
    HT_SERVER_HELLO,
    HandshakeAccumulator,
    group_name,
    parse_client_hello,
    parse_records,
    parse_server_hello,
)

logger = logging.getLogger(__name__)


@dataclass
class RunResult:
    """Full-precision analysis of one capture run."""

    label: str
    timelines: list[ConnectionTimeline]
    layer_stats: dict[str, LayerStatistics]
    e2e_stats: LayerStatistics | None
    ttlb_stats: LayerStatistics | None
    counts: dict
    handshake: dict
    ingest: dict
    inputs: dict = field(default_factory=dict)
    decrypted: bool = True


def analyze_connection(conn: TcpConnection, keystore: KeyLogStore | None) -> ConnectionTimeline:
    """Walk one connection's TLS session and extract the six boundaries."""
    tl = ConnectionTimeline(t_syn=conn.t_syn, t_synack=conn.t_synack)
    try:
        stop = _walk(conn, keystore, tl)
    except (BadRecordHeader, OversizeRecord):
        stop = "bad_tls_stream"
    except MalformedHello:
        stop = "malformed_hello"
    except (UnsupportedCipherSuite, AuthFailure, EmptyInnerPlaintext):
        stop = "undecryptable"
    # A snap-cut or gapped capture is the root cause of an early stop, except
    # missing keys (the walk stops before it reaches the cut) and an HRR.
    if stop not in (None, "no_keys", "hrr") and (
        conn.truncated or conn.client_to_server.has_gap or conn.server_to_client.has_gap
    ):
        stop = "truncated"
    return classify(tl, stop)


def _walk(conn: TcpConnection, keystore: KeyLogStore | None, tl: ConnectionTimeline) -> str | None:
    """Fill in tl's boundaries and handshake metadata; why the walk stopped early, or None."""
    if conn.t_syn is None:
        return "no_syn"
    if conn.t_synack is None:
        return "no_synack"

    client_records, _c_tail = parse_records(conn.client_to_server)
    server_records, _s_tail = parse_records(conn.server_to_client)

    msg_type, message, ts = _first_handshake_message(client_records)
    if msg_type != HT_CLIENT_HELLO:
        return "no_clienthello"
    ch = parse_client_hello(message)
    tl.t_clienthello, tl.client_hello_len = ts, ch.total_length

    msg_type, message, _ts = _first_handshake_message(server_records)
    if msg_type != HT_SERVER_HELLO:
        return "no_serverhello"
    sh = parse_server_hello(message)
    if sh.is_hrr:
        return "hrr"
    tl.cipher_suite, tl.server_hello_len = sh.cipher_suite, sh.total_length
    if sh.selected_group is not None:
        tl.group = group_name(sh.selected_group)
        for gid, length in ch.key_shares:
            if gid == sh.selected_group:
                tl.key_share_len = length
                break

    if keystore is None:
        return "no_keys"
    keys = []
    for label in (LABEL_CLIENT_HS, LABEL_SERVER_HS, LABEL_CLIENT_AP, LABEL_SERVER_AP):
        secret = keystore.get(ch.client_random, label)
        if secret is None:
            return "no_keys"
        try:
            keys.append(derive_traffic_keys(secret, tl.cipher_suite))
        except TlsLayersError:
            return "undecryptable"
    client_hs, server_hs, client_ap, server_ap = keys

    # decryption stops once each direction's boundary is found
    for msg_type, data, ts in _open_protected(client_records, client_hs, client_ap):
        if msg_type == HT_FINISHED:
            if tl.t_client_finished is None:
                tl.t_client_finished = ts
        elif msg_type == HT_KEY_UPDATE:
            return "undecryptable"
        elif msg_type is None and starts_http_request(data):
            tl.t_http_get = ts
            break
    else:
        return "no_finished" if tl.t_client_finished is None else "no_request"

    # TTLB anchor from record metadata alone: the last server application-data byte
    last = next((r for r in reversed(server_records) if r.content_type == CT_APPLICATION_DATA), None)
    if last is not None:
        tl.t_response_last = conn.server_to_client.timestamp_at(last.stream_offset + 5 + len(last.body) - 1)

    for msg_type, data, ts in _open_protected(server_records, server_hs, server_ap):
        if msg_type is None:
            status = http_status(data, ts, tl.t_http_get)
            if status is not None:
                tl.http_status, tl.t_http_200 = status, ts
                return None
    return "no_response"


def _first_handshake_message(records) -> tuple[int | None, bytes, int | None]:
    """(msg_type, body, first-byte ts) of a direction's first handshake message.

    CCS records are skipped; the search stops at the first other non-handshake
    record.  (None, b"", None) when no complete message comes first.
    """
    acc = HandshakeAccumulator()
    for rec in records:
        if rec.content_type == CT_CHANGE_CIPHER_SPEC:
            continue
        if rec.content_type != CT_HANDSHAKE:
            break
        for msg_type, body, ts in acc.feed(rec.body, rec.timestamp_ns):
            return msg_type, body, ts
    return None, b"", None


def _open_protected(records, hs_keys, ap_keys):
    """Decrypt a direction's protected records in order.

    Yields (msg_type, body, first-byte ts) for each complete handshake
    message, and (None, plaintext, ts) for each application-data record;
    other inner types are skipped.  After the record that completes a
    Finished message with no handshake bytes pending, the application
    traffic keys replace the handshake keys.  A record that does not open
    raises AuthFailure or EmptyInnerPlaintext.
    """
    keys = hs_keys
    acc = HandshakeAccumulator()
    for rec in records:
        if rec.content_type != CT_APPLICATION_DATA:
            continue
        inner_type, plaintext = decrypt_record(rec, keys)
        if inner_type == CT_HANDSHAKE:
            finished = False
            for msg_type, body, ts in acc.feed(plaintext, rec.timestamp_ns):
                finished = finished or msg_type == HT_FINISHED
                yield msg_type, body, ts
            if finished and acc.pending == 0:
                keys = ap_keys
        elif inner_type == CT_APPLICATION_DATA:
            yield None, plaintext, rec.timestamp_ns


def analyze_packets(
    packets,
    keystore: KeyLogStore | None,
    label: str,
    ingest: dict | None = None,
    inputs: dict | None = None,
) -> RunResult:
    conns = assemble_connections(packets)
    conns.sort(key=TcpConnection.sort_key)
    return analyze_connections(conns, keystore, label, ingest=ingest, inputs=inputs)


def analyze_connections(
    conns: list[TcpConnection],
    keystore: KeyLogStore | None,
    label: str,
    workers: int = 1,
    ingest: dict | None = None,
    inputs: dict | None = None,
) -> RunResult:
    """Walk each connection in order and summarize; `workers` is deprecated and ignored."""
    timelines = [analyze_connection(c, keystore) for c in conns]
    return summarize_run(timelines, label, decrypted=keystore is not None, ingest=ingest, inputs=inputs)


def summarize_run(
    timelines: list[ConnectionTimeline],
    label: str,
    decrypted: bool = True,
    ingest: dict | None = None,
    inputs: dict | None = None,
) -> RunResult:
    layer_samples: dict[str, list[float]] = {layer: [] for layer in LAYERS}
    e2e: list[float] = []
    ttlb: list[float] = []
    valid = 0
    partial: dict[str, int] = {}
    excluded: dict[str, int] = {}
    meta: dict[str, list] = {k: [] for k in ("group", "key_share_len", "client_hello_len", "server_hello_len", "cipher_suite")}

    for tl in timelines:
        deltas = layer_deltas_ns(tl)
        for layer, delta in zip(LAYERS, deltas):
            layer_samples[layer].append(delta / NS_PER_MS)
        if tl.validity == VALID:
            valid += 1
            e2e.append(sum(deltas) / NS_PER_MS)  # the integer sum is t_http_200 - t_syn
            if tl.t_response_last is not None and tl.t_response_last >= tl.t_http_get:
                ttlb.append((tl.t_response_last - tl.t_http_get) / NS_PER_MS)
        elif tl.validity == PARTIAL:
            partial[tl.reason] = partial.get(tl.reason, 0) + 1
        else:
            excluded[tl.reason] = excluded.get(tl.reason, 0) + 1
        for k in meta:
            v = getattr(tl, k)
            if v is not None:
                meta[k].append(v)

    counts = {
        "total_streams": len(timelines),
        "valid": valid,
        "partial": dict(sorted(partial.items())),
        "excluded": dict(sorted(excluded.items())),
    }
    bucket_sum = valid + sum(partial.values()) + sum(excluded.values())
    if bucket_sum != len(timelines):
        raise AssertionError(
            f"stream tallies ({bucket_sum}) do not sum to total ({len(timelines)})"
        )

    layer_stats = {
        layer: summarize(samples) for layer, samples in layer_samples.items() if samples
    }
    return RunResult(
        label=label,
        timelines=timelines,
        layer_stats=layer_stats,
        e2e_stats=summarize(e2e) if e2e else None,
        ttlb_stats=summarize(ttlb) if ttlb else None,
        counts=counts,
        handshake={k: _modal(v) for k, v in meta.items()},
        ingest=ingest or {},
        inputs=inputs or {},
        decrypted=decrypted,
    )


def _modal(values: list):
    if not values:
        return None
    freq: dict = {}
    for v in values:
        freq[v] = freq.get(v, 0) + 1
    return sorted(freq.items(), key=lambda kv: (-kv[1], str(kv[0])))[0][0]


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def analyze_capture(
    pcap_path: str | Path,
    keylog_path: str | Path | None,
    label: str,
    workers: int = 1,
) -> RunResult:
    """Run the full pipeline over a capture file and optional key log.

    `workers` is deprecated and ignored: the analysis runs in one process.
    """
    pcap_path = Path(pcap_path)
    packets = []
    frames = 0
    non_tcp = 0
    malformed = 0
    for frame in open_capture(pcap_path):
        frames += 1
        try:
            pkt = decode_frame(frame)
        except MalformedHeader:
            malformed += 1
            continue
        if pkt is None:
            non_tcp += 1
            continue
        packets.append(pkt)

    keystore = None
    inputs: dict = {"pcap_sha256": _sha256(pcap_path), "keylog_sha256": None}
    if keylog_path is not None:
        keylog_path = Path(keylog_path)
        try:
            raw = keylog_path.read_bytes()
        except OSError as exc:
            raise UnreadableFile(f"{keylog_path}: {exc}") from exc
        inputs["keylog_sha256"] = hashlib.sha256(raw).hexdigest()
        # a non-UTF-8 byte spoils only its own line, which parse_keylog then rejects
        keystore = parse_keylog(raw.decode("utf-8", errors="replace"))

    if malformed:
        logger.warning("%s: %d malformed frames skipped", pcap_path, malformed)

    ingest = {"frames": frames, "non_tcp_frames": non_tcp, "malformed_frames": malformed}
    return analyze_packets(packets, keystore, label, ingest=ingest, inputs=inputs)
