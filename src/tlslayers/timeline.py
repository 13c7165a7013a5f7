"""Boundary timestamps and the five-layer latency decomposition.

A connection's six boundaries are SYN, SYN-ACK, ClientHello, client TLS
Finished, HTTP GET, HTTP 200 OK.  Consecutive differences give the five
layer latencies; the end-to-end time is the full SYN-to-200 span.  The HTTP
200 boundary is the arrival of the record carrying the status line, not the
last body byte (time-to-last-byte is emitted separately as an informational
figure).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from tlslayers.errors import InvalidTimeline, NoRequestFound, NoResponseFound
from tlslayers.keyschedule import DecryptedMessage

NS_PER_MS = 1_000_000

LAYERS = ("tcp_handshake", "tcp_to_tls", "tls_handshake", "tls_to_app", "app_response")
BOUNDARIES = ("t_syn", "t_synack", "t_clienthello", "t_client_finished", "t_http_get", "t_http_200")

VALID = "valid"
PARTIAL = "partial"
EXCLUDED = "excluded"

_HTTP_METHODS = (b"GET ", b"POST ", b"PUT ", b"HEAD ", b"DELETE ", b"OPTIONS ", b"PATCH ")
_HTTP2_PREFACE = b"PRI * HTTP/2.0"


@dataclass
class ConnectionTimeline:
    t_syn: int | None = None
    t_synack: int | None = None
    t_clienthello: int | None = None
    t_client_finished: int | None = None
    t_http_get: int | None = None
    t_http_200: int | None = None
    group: str | None = None
    cipher_suite: str | None = None
    client_hello_len: int | None = None
    server_hello_len: int | None = None
    key_share_len: int | None = None
    http_status: int | None = None
    t_response_last: int | None = None  # informational TTLB anchor
    validity: str = PARTIAL
    reason: str | None = None
    sort_key: tuple = field(default_factory=tuple)

    def boundary(self, name: str) -> int | None:
        return getattr(self, name)


def detect_http_request(messages: Iterable[DecryptedMessage]) -> int:
    """First client application-data message that starts an HTTP request.

    Partial body continuations are skipped; HTTP/2 is recognized by its
    connection preface and timestamped the same way.
    """
    for msg in messages:
        head = msg.plaintext[:16]
        if head.startswith(_HTTP_METHODS) or head.startswith(_HTTP2_PREFACE):
            return msg.record_timestamp_ns
    raise NoRequestFound("no HTTP request found in client application data")


def detect_http_response(messages: Iterable[DecryptedMessage], t_http_get: int) -> tuple[int, int]:
    """(status, timestamp) of the first status line at or after the request.

    The timestamp is the carrying record's first-byte arrival: this is a
    response-latency boundary, not time-to-last-byte.
    """
    for msg in messages:
        if msg.record_timestamp_ns < t_http_get:
            continue
        if not msg.plaintext.startswith(b"HTTP/1."):
            continue
        parts = msg.plaintext.split(b" ", 2)
        if len(parts) < 2 or not parts[1].isdigit():
            continue
        return int(parts[1]), msg.record_timestamp_ns
    raise NoResponseFound("no HTTP status line found in server application data")


def build_timeline(
    *,
    t_syn: int | None,
    t_synack: int | None,
    t_clienthello: int | None = None,
    t_client_finished: int | None = None,
    t_http_get: int | None = None,
    t_http_200: int | None = None,
    group: str | None = None,
    cipher_suite: str | None = None,
    client_hello_len: int | None = None,
    server_hello_len: int | None = None,
    key_share_len: int | None = None,
    http_status: int | None = None,
    t_response_last: int | None = None,
    partial_reason: str | None = None,
    excluded_reason: str | None = None,
    sort_key: tuple = (),
) -> ConnectionTimeline:
    """Assemble the timeline and compute its validity.

    Missing boundaries yield `partial` with a reason; ordering violations and
    caller-supplied exclusions (HRR, non-200) yield `excluded`.
    """
    tl = ConnectionTimeline(
        t_syn=t_syn,
        t_synack=t_synack,
        t_clienthello=t_clienthello,
        t_client_finished=t_client_finished,
        t_http_get=t_http_get,
        t_http_200=t_http_200,
        group=group,
        cipher_suite=cipher_suite,
        client_hello_len=client_hello_len,
        server_hello_len=server_hello_len,
        key_share_len=key_share_len,
        http_status=http_status,
        t_response_last=t_response_last,
        sort_key=sort_key,
    )
    if excluded_reason is not None:
        tl.validity, tl.reason = EXCLUDED, excluded_reason
        return tl
    if http_status is not None and http_status != 200:
        tl.validity, tl.reason = EXCLUDED, "non200"
        return tl

    missing = [name for name in BOUNDARIES if tl.boundary(name) is None]
    if missing:
        tl.validity = PARTIAL
        tl.reason = partial_reason or f"no_{missing[0][2:]}"
        return tl

    ordered = all(
        tl.boundary(a) <= tl.boundary(b) for a, b in zip(BOUNDARIES, BOUNDARIES[1:])
    )
    if not ordered:
        tl.validity, tl.reason = EXCLUDED, "ordering"
        return tl
    tl.validity, tl.reason = VALID, None
    return tl


def measurable_layers(tl: ConnectionTimeline) -> tuple[str, ...]:
    """Prefix of layers whose bounding timestamps both exist and are ordered.

    Excluded connections contribute nothing; partial ones contribute exactly
    the measurable prefix.
    """
    if tl.validity == EXCLUDED:
        return ()
    if tl.validity == VALID:
        return LAYERS
    out = []
    for i, layer in enumerate(LAYERS):
        a = tl.boundary(BOUNDARIES[i])
        b = tl.boundary(BOUNDARIES[i + 1])
        if a is None or b is None or b < a:
            break
        out.append(layer)
    return tuple(out)


@dataclass(frozen=True)
class LayerDeltas:
    """Per-connection layer latencies in exact integer nanoseconds."""

    tcp_handshake_ns: int
    tcp_to_tls_ns: int
    tls_handshake_ns: int
    tls_to_app_ns: int
    app_response_ns: int
    e2e_ns: int

    @property
    def tcp_handshake_ms(self) -> float:
        return self.tcp_handshake_ns / NS_PER_MS

    @property
    def tcp_to_tls_ms(self) -> float:
        return self.tcp_to_tls_ns / NS_PER_MS

    @property
    def tls_handshake_ms(self) -> float:
        return self.tls_handshake_ns / NS_PER_MS

    @property
    def tls_to_app_ms(self) -> float:
        return self.tls_to_app_ns / NS_PER_MS

    @property
    def app_response_ms(self) -> float:
        return self.app_response_ns / NS_PER_MS

    @property
    def e2e_ms(self) -> float:
        return self.e2e_ns / NS_PER_MS


def compute_deltas(tl: ConnectionTimeline) -> LayerDeltas:
    """Consecutive boundary differences; the five deltas sum exactly to e2e."""
    if tl.validity != VALID:
        raise InvalidTimeline(f"timeline is {tl.validity} ({tl.reason})")
    return LayerDeltas(
        tcp_handshake_ns=tl.t_synack - tl.t_syn,
        tcp_to_tls_ns=tl.t_clienthello - tl.t_synack,
        tls_handshake_ns=tl.t_client_finished - tl.t_clienthello,
        tls_to_app_ns=tl.t_http_get - tl.t_client_finished,
        app_response_ns=tl.t_http_200 - tl.t_http_get,
        e2e_ns=tl.t_http_200 - tl.t_syn,
    )


def layer_delta_ns(tl: ConnectionTimeline, layer: str) -> int:
    """One layer's latency for a timeline that measures it (see measurable_layers)."""
    i = LAYERS.index(layer)
    a = tl.boundary(BOUNDARIES[i])
    b = tl.boundary(BOUNDARIES[i + 1])
    if a is None or b is None:
        raise InvalidTimeline(f"layer {layer} not measurable")
    return b - a
