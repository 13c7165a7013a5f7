"""Boundary timestamps and the five-layer latency decomposition.

A connection's six boundaries are SYN, SYN-ACK, ClientHello, client TLS
Finished, HTTP GET, HTTP 200 OK.  Consecutive differences give the five
layer latencies; the end-to-end time is the full SYN-to-200 span.  The HTTP
200 boundary is the arrival of the record carrying the status line, not the
last body byte.  Time-to-last-byte, from the HTTP GET to the last server
application-data byte, is emitted separately as an informational figure.

A connection's timeline is a value, `ConnectionTimeline`: the walk builds it
once from what it found, and `classify` returns it with its verdict set.
"""

from __future__ import annotations

from typing import NamedTuple

NS_PER_MS = 1_000_000

LAYERS = ("tcp_handshake", "tcp_to_tls", "tls_handshake", "tls_to_app", "app_response")

VALID = "valid"
PARTIAL = "partial"
EXCLUDED = "excluded"

_REQUEST_STARTS = (
    b"GET ", b"POST ", b"PUT ", b"HEAD ", b"DELETE ", b"OPTIONS ", b"PATCH ",
    b"PRI * HTTP/2.0",  # HTTP/2 connection preface
)


class ConnectionTimeline(NamedTuple):
    """One connection's boundaries (ns), handshake metadata and verdict."""

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
    t_response_last: int | None = None  # last server application-data byte; TTLB runs from t_http_get to it
    validity: str = PARTIAL
    reason: str | None = None


BOUNDARIES = ConnectionTimeline._fields[:6]  # in time order
_new_timeline = tuple.__new__  # builds a timeline from one tuple, without the named tuple's Python __new__


def starts_http_request(plaintext: bytes) -> bool:
    """Whether a client application-data record starts an HTTP request.

    Body continuations do not; HTTP/2 is recognized by its connection
    preface.
    """
    return plaintext.startswith(_REQUEST_STARTS)


def http_status(plaintext: bytes, ts: int, t_http_get: int) -> int | None:
    """Status code of a server record that opens with an HTTP/1.x status line.

    None for a record that arrived before the request (`ts < t_http_get`) or
    does not start with a status line, whose code is exactly three digits
    (RFC 9110 §15).  The record's first-byte arrival is the response-latency
    boundary, not time-to-last-byte.
    """
    if ts < t_http_get or not plaintext.startswith(b"HTTP/1."):
        return None
    parts = plaintext.split(b" ", 2)
    if len(parts) < 2 or len(parts[1]) != 3 or not parts[1].isdigit():
        return None
    return int(parts[1])


def classify(tl: ConnectionTimeline, stop_reason: str | None = None, cut: bool = False) -> ConnectionTimeline:
    """`tl` with `validity` and `reason` set by the first rule that holds; `tl` itself is a value and unchanged.

    `stop_reason` says why the walk stopped early, if it did; `cut` says the
    capture lost bytes of the connection (snap-cut or a gap).  An `hrr` stop
    is `excluded`.  Any other stop is `partial`: its reason is `truncated` on
    a cut connection, since the cut is then the root cause, but `no_keys`
    stays `no_keys` (the walk stops before it reaches the cut).  With no
    stop, a non-200 status or unordered boundaries are `excluded`, and else
    the connection is `valid`.

    The walk returns no stop only right after it finds `http_status` and
    `t_http_200`, when the other five boundaries are already found, and
    every stop leaves `t_http_200` unfound.  So with no stop all six
    boundaries exist, and with a stop at least one is missing.
    """
    if stop_reason == "hrr":
        verdict = EXCLUDED, "hrr"
    elif stop_reason is not None:
        verdict = PARTIAL, "truncated" if cut and stop_reason != "no_keys" else stop_reason
    elif tl.http_status != 200:
        verdict = EXCLUDED, "non200"
    else:
        t_syn, t_synack, t_clienthello, t_client_finished, t_http_get, t_http_200 = tl[:6]
        if t_syn <= t_synack <= t_clienthello <= t_client_finished <= t_http_get <= t_http_200:
            verdict = VALID, None
        else:
            verdict = EXCLUDED, "ordering"
    return _new_timeline(ConnectionTimeline, tl[:-2] + verdict)  # validity and reason are the last two fields


def layer_deltas_ns(tl: ConnectionTimeline) -> list[int]:
    """Exact-integer latencies of the measurable prefix of `LAYERS`.

    Excluded connections measure none; valid ones all five, whose sum is
    exactly `t_http_200 - t_syn`; partial ones the prefix whose bounding
    timestamps both exist and are ordered.
    """
    if tl.validity == EXCLUDED:
        return []
    out = []
    a = tl.t_syn
    for b in tl[1:6]:  # the boundaries after SYN, in BOUNDARIES order
        if a is None or b is None or b < a:
            break
        out.append(b - a)
        a = b
    return out
