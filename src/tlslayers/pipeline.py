"""Capture-to-statistics pipeline.

A run is one process and has one driver, `analyze_capture`.  It reads and
hashes the key log, then maps the capture once (`capture.map_capture`) and
holds that map until the walk ends: the document's capture hash
(`capture.capture_sha256`) is of the mapped bytes, the bytes the run
analyzes.  The map is the run's one buffer, and every span is two offsets
into it: `decode.ingest_frames` and `reassembly.assemble_flow` take the map
once, as an argument, and no frame span, bucket entry or stream piece
carries it.  In one loop (`decode.ingest_frames`, the one frame decoder)
the run counts each frame span `capture.read_frames` yields from the map,
decodes it where it lies and appends it to its flow's bucket as a bucket
entry, whose payload is a span of the map: no payload is copied at ingest.
It then assembles, walks and drops each flow in turn.  Reassembly copies
nothing either: a flow's streams are spans of the map, and the walk slices
a record's body out of the map only when it opens the record, so only the
records the walk opens are copied.  Every connection is walked on its own;
flows are walked in the file order of their first frames, so the map's
pages before the current flow's first frame are no longer needed, and the
walk releases them (`capture.release_behind`) as the reader did.  The map is closed when the
walk ends, or when the run raises.  Timelines are reported in
`TcpConnection.sort_key` order, which `summarize_run` does not depend on.

A process pool for the walk did not pay for itself.  On the 3000-connection
`handshake` benchmark inputs (2-core Xeon, Python 3.11) two workers took
1.80 s wall against 1.77 s, with 28% more CPU and 18% more peak RSS: the
walk's saving (about 0.1 s) went to pickling, forking and the pool's imports.

Each connection has one walk (`_walk`).  It finds the first handshake
message of each direction (ClientHello, ServerHello), derives the four
traffic keys, then runs one protected-record opener (`_open_protected`)
over each direction in turn: the client's yields the Finished and the HTTP
request, the server's the HTTP status line.  The walk collects the
boundaries and handshake metadata it finds in a dict and returns why it
stopped early, if it did.  `analyze_connection` maps the walk's errors to
stop reasons, notes whether the capture cut the connection, and builds the
connection's one `ConnectionTimeline` from what the walk found;
`timeline.classify` alone turns stop and cut into validity and reason.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from operator import itemgetter
from pathlib import Path
from typing import NamedTuple

from tlslayers.capture import capture_sha256, map_capture, read_frames, release_behind
from tlslayers.decode import ingest_frames
from tlslayers.errors import (
    AuthFailure,
    BadRecordHeader,
    EmptyInnerPlaintext,
    LengthMismatch,
    MalformedHello,
    OversizeRecord,
    UnreadableFile,
    UnsupportedCipherSuite,
    warn,
)
from tlslayers.keylog import KeyLogStore, parse_keylog
from tlslayers.keyschedule import derive_traffic_keys, decrypt_record
from tlslayers.reassembly import TcpConnection, assemble_flow
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
    CT_HANDSHAKE,
    HT_CLIENT_HELLO,
    HT_FINISHED,
    HT_KEY_UPDATE,
    HT_SERVER_HELLO,
    HandshakeAccumulator,
    first_handshake_message,
    group_name,
    parse_client_hello,
    parse_records,
    parse_server_hello,
)

class RunResult(NamedTuple):
    """Full-precision analysis of one capture run."""

    label: str
    timelines: list[ConnectionTimeline]
    layer_stats: dict[str, LayerStatistics]
    e2e_stats: LayerStatistics | None
    ttlb_stats: LayerStatistics | None
    counts: dict
    handshake: dict
    ingest: dict
    inputs: dict
    decrypted: bool = True


def analyze_connection(conn: TcpConnection, keystore: KeyLogStore | None) -> ConnectionTimeline:
    """Walk one connection's TLS session and extract the six boundaries."""
    found: dict = {}
    try:
        stop = _walk(conn, keystore, found)
    except (BadRecordHeader, OversizeRecord):
        stop = "bad_tls_stream"
    except MalformedHello:
        stop = "malformed_hello"
    except (UnsupportedCipherSuite, LengthMismatch, AuthFailure, EmptyInnerPlaintext):
        stop = "undecryptable"
    cut = conn.truncated or conn.client_to_server.has_gap or conn.server_to_client.has_gap
    return classify(ConnectionTimeline(conn.t_syn, conn.t_synack, **found), stop, cut)


def _walk(conn: TcpConnection, keystore: KeyLogStore | None, found: dict) -> str | None:
    """Put the boundaries and handshake metadata the walk finds in `found`; why it stopped early, or None."""
    if conn.t_syn is None:
        return "no_syn"
    if conn.t_synack is None:
        return "no_synack"

    client_records, _c_tail = parse_records(conn.client_to_server)
    server_records, _s_tail = parse_records(conn.server_to_client)

    msg_type, message, ts = first_handshake_message(client_records)
    if msg_type != HT_CLIENT_HELLO:
        return "no_clienthello"
    ch = parse_client_hello(message)
    found["t_clienthello"], found["client_hello_len"] = ts, ch.total_length

    msg_type, message, _ts = first_handshake_message(server_records)
    if msg_type != HT_SERVER_HELLO:
        return "no_serverhello"
    sh = parse_server_hello(message)
    if sh.is_hrr:
        return "hrr"
    found["cipher_suite"], found["server_hello_len"] = sh.cipher_suite, sh.total_length
    if sh.selected_group is not None:
        found["group"] = group_name(sh.selected_group)
        for gid, length in ch.key_shares:
            if gid == sh.selected_group:
                found["key_share_len"] = length
                break

    if keystore is None:
        return "no_keys"
    keys = []
    # in keylog.LABELS order: the first missing secret stops the walk before later ones are derived
    for secret in keystore.secrets(ch.client_random):
        if secret is None:
            return "no_keys"
        keys.append(derive_traffic_keys(secret, sh.cipher_suite))
    client_hs, server_hs, client_ap, server_ap = keys

    # decryption stops once each direction's boundary is found
    t_finished = None
    for msg_type, data, ts in _open_protected(client_records, client_hs, client_ap):
        if msg_type == HT_FINISHED:
            if t_finished is None:
                t_finished = found["t_client_finished"] = ts
        elif msg_type == HT_KEY_UPDATE:
            return "undecryptable"
        elif msg_type is None and starts_http_request(data):
            if t_finished is None:
                return "no_finished"  # a request before the client Finished
            t_get = found["t_http_get"] = ts
            break
    else:
        return "no_finished" if t_finished is None else "no_request"

    # TTLB anchor from record metadata alone: the last server application-data byte
    for rec in reversed(server_records):
        if rec.content_type == CT_APPLICATION_DATA:
            found["t_response_last"] = conn.server_to_client.timestamp_at(rec.end - 1)
            break

    for msg_type, data, ts in _open_protected(server_records, server_hs, server_ap):
        if msg_type is None:
            status = http_status(data, ts, t_get)
            if status is not None:
                found["http_status"], found["t_http_200"] = status, ts
                return None
    return "no_response"


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


def analyze_connections(
    conns: list[TcpConnection],
    keystore: KeyLogStore | None,
    label: str,
    workers: int = 1,
) -> RunResult:
    """Walk each connection in order and summarize; `workers` is deprecated and ignored.

    Only the benchmark's layer trace calls this: a run walks each flow as `analyze_capture` assembles it.
    """
    timelines = [analyze_connection(c, keystore) for c in conns]
    return summarize_run(timelines, label, decrypted=keystore is not None)


def summarize_run(
    timelines: list[ConnectionTimeline],
    label: str,
    decrypted: bool = True,
    ingest: dict | None = None,
    inputs: dict | None = None,
) -> RunResult:
    layer_samples: list[list[float]] = [[] for _ in LAYERS]  # in LAYERS order
    e2e: list[float] = []
    ttlb: list[float] = []
    valid = 0
    partial: dict[str, int] = {}
    excluded: dict[str, int] = {}

    for tl in timelines:
        deltas = layer_deltas_ns(tl)
        for samples, delta in zip(layer_samples, deltas):
            samples.append(delta / NS_PER_MS)
        validity = tl.validity
        if validity == VALID:
            valid += 1
            e2e.append(sum(deltas) / NS_PER_MS)  # the integer sum is t_http_200 - t_syn
            t_response_last, t_http_get = tl.t_response_last, tl.t_http_get
            if t_response_last is not None and t_response_last >= t_http_get:
                ttlb.append((t_response_last - t_http_get) / NS_PER_MS)
        elif validity == PARTIAL:
            partial[tl.reason] = partial.get(tl.reason, 0) + 1
        else:
            excluded[tl.reason] = excluded.get(tl.reason, 0) + 1

    counts = {
        "total_streams": len(timelines),
        "valid": valid,
        "partial": dict(sorted(partial.items())),
        "excluded": dict(sorted(excluded.items())),
    }

    layer_stats = {layer: summarize(samples) for layer, samples in zip(LAYERS, layer_samples) if samples}
    return RunResult(
        label=label,
        timelines=timelines,
        layer_stats=layer_stats,
        e2e_stats=summarize(e2e) if e2e else None,
        ttlb_stats=summarize(ttlb) if ttlb else None,
        counts=counts,
        handshake=_handshake_block(timelines),
        ingest=ingest or {},
        inputs=inputs or {},
        decrypted=decrypted,
    )


def _handshake_block(timelines: list[ConnectionTimeline]) -> dict:
    """The run's modal group and suite, and the modal hello and key-share sizes within that group.

    A run that mixes groups thus never reports one group's name beside another's sizes.  The
    suite is the whole run's: it is not a property of the group.
    """
    group = _modal(tl.group for tl in timelines)
    of_group = [tl for tl in timelines if tl.group == group]
    sizes = {
        k: _modal(getattr(tl, k) for tl in of_group) for k in ("key_share_len", "client_hello_len", "server_hello_len")
    }
    return {"group": group, **sizes, "cipher_suite": _modal(tl.cipher_suite for tl in timelines)}


def _modal(values):
    """The most frequent value but None, a tie going to the one that sorts first as text; None for none."""
    freq = Counter(v for v in values if v is not None)
    return min(freq, key=lambda v: (-freq[v], str(v)), default=None)


def analyze_capture(
    pcap_path: str | Path,
    keylog_path: str | Path | None,
    label: str,
    workers: int = 1,
) -> RunResult:
    """Run the full pipeline over a capture file and optional key log.

    The key log is read first, so a bad one fails before the capture is
    opened.  The capture is mapped once (`capture.map_capture`); its hash,
    ingest and walk all read that map, which is closed when the walk ends
    or the run raises.  `workers` is deprecated and ignored: the analysis
    runs in one process.
    """
    pcap_path = Path(pcap_path)
    keystore = keylog_sha256 = None
    if keylog_path is not None:
        try:
            raw = Path(keylog_path).read_bytes()
        except OSError as exc:
            raise UnreadableFile(f"{keylog_path}: {exc}") from exc
        keylog_sha256 = hashlib.sha256(raw).hexdigest()
        # a leading byte-order mark is dropped; a non-UTF-8 byte spoils only its own line,
        # which parse_keylog then rejects
        keystore = parse_keylog(raw.decode("utf-8-sig", errors="replace"))
        del raw  # not held through ingest and the walk
    with map_capture(pcap_path) as buf:
        inputs = {"pcap_sha256": capture_sha256(buf), "keylog_sha256": keylog_sha256}
        groups, ingest_counts = ingest_frames(buf, read_frames(buf, pcap_path))
        if ingest_counts["malformed_frames"]:
            warn(__name__, "%s: %d malformed frames skipped", pcap_path, ingest_counts["malformed_frames"])

        # one flow at a time, in the file order of its first frame, emptying the buckets
        keyed: list[tuple[tuple, ConnectionTimeline]] = []
        released = 0
        for key in list(groups):
            group = groups.pop(key)
            # the first frame's payload offset, before assemble_flow sorts the bucket
            released = release_behind(buf, released, group[0][4])
            keyed.extend(
                (conn.sort_key(), analyze_connection(conn, keystore)) for conn in assemble_flow(key, group, buf)
            )
    keyed.sort(key=itemgetter(0))
    return summarize_run(
        [tl for _, tl in keyed], label, decrypted=keystore is not None, ingest=ingest_counts, inputs=inputs
    )
