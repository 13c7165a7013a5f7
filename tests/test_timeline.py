"""Boundary detection, validity rules, and layer-delta arithmetic."""

import random

from hypothesis import given
from hypothesis import strategies as st

from tlslayers.timeline import (
    EXCLUDED,
    LAYERS,
    PARTIAL,
    VALID,
    ConnectionTimeline,
    classify,
    http_status,
    layer_deltas_ns,
    starts_http_request,
)


# -- HTTP boundary detection --------------------------------------------------

def test_get_request_detected():
    assert starts_http_request(b"GET /customers HTTP/1.1\r\n...")


def test_request_scan_skips_body_continuation():
    assert not starts_http_request(b"\x00\x01binary continuation")
    assert starts_http_request(b"POST /x HTTP/1.1\r\n")


def test_http2_preface_detected():
    assert starts_http_request(b"PRI * HTTP/2.0\r\n\r\nSM\r\n\r\n")


def test_no_request_found():
    assert not starts_http_request(b"")
    assert not starts_http_request(b"not http")


def test_response_status_line():
    assert http_status(b"HTTP/1.1 200 OK\r\n...", 900, t_http_get=100) == 200


def test_response_multi_record_body_uses_first_record_only():
    rng = random.Random(8)
    assert http_status(b"HTTP/1.1 200 OK\r\nContent-Length: 40960\r\n\r\n", 1000, t_http_get=0) == 200
    for i in range(1, 28):
        assert http_status(rng.randbytes(1500), 1000 + 50 * i, t_http_get=0) is None


def test_response_before_request_time_skipped():
    assert http_status(b"HTTP/1.1 200 OK\r\n", 50, t_http_get=100) is None
    assert http_status(b"HTTP/1.1 200 OK\r\n", 100, t_http_get=100) == 200


def test_non200_status_parsed():
    assert http_status(b"HTTP/1.1 503 Service Unavailable\r\n", 10, 0) == 503


def test_no_response_found():
    assert http_status(b"partial body", 10, 0) is None
    assert http_status(b"HTTP/1.1 OK\r\n", 10, 0) is None
    # a status code is exactly three digits (RFC 9110 §15); int() refuses 4301 or more
    assert http_status(b"HTTP/1.1 " + b"2" * 5000 + b" OK\r\n", 10, 0) is None
    assert http_status(b"HTTP/1.1 2000 OK\r\n", 10, 0) is None
    assert http_status(b"HTTP/1.1 20 OK\r\n", 10, 0) is None


# -- timeline validity ---------------------------------------------------------

BOUNDS = dict(
    t_syn=0,
    t_synack=360_000,
    t_clienthello=654_000,
    t_client_finished=6_201_000,
    t_http_get=6_727_000,
    t_http_200=15_798_000,
)


def test_all_boundaries_ordered_is_valid():
    tl = classify(ConnectionTimeline(**BOUNDS, http_status=200))
    assert tl.validity == VALID
    assert tl.reason is None
    assert len(layer_deltas_ns(tl)) == len(LAYERS)


def test_missing_keys_is_partial_with_prefix_layers():
    tl = classify(ConnectionTimeline(t_syn=0, t_synack=360_000, t_clienthello=654_000), "no_keys")
    assert tl.validity == PARTIAL
    assert tl.reason == "no_keys"
    assert layer_deltas_ns(tl) == [360_000, 294_000]  # tcp_handshake, tcp_to_tls


def test_ordering_violation_is_excluded():
    bounds = dict(BOUNDS)
    bounds["t_http_get"] = bounds["t_client_finished"] - 1  # clock anomaly
    tl = classify(ConnectionTimeline(**bounds, http_status=200))
    assert tl.validity == EXCLUDED
    assert tl.reason == "ordering"
    assert layer_deltas_ns(tl) == []


def test_non200_excluded_but_tallied():
    tl = classify(ConnectionTimeline(**BOUNDS, http_status=503))
    assert tl.validity == EXCLUDED
    assert tl.reason == "non200"
    assert layer_deltas_ns(tl) == []


def test_partial_prefix_stops_at_first_unordered_pair():
    bounds = dict(BOUNDS, t_clienthello=BOUNDS["t_synack"] - 1, t_http_200=None)
    tl = classify(ConnectionTimeline(**bounds), "no_response")
    assert tl.validity == PARTIAL
    assert layer_deltas_ns(tl) == [360_000]  # tcp_handshake only


def test_stop_precedence_on_a_cut_connection():
    # a cut names the cause of every stop but missing keys, which come before it, and an HRR
    table = [
        ("no_response", PARTIAL, "truncated"),
        ("undecryptable", PARTIAL, "truncated"),
        ("no_keys", PARTIAL, "no_keys"),
        ("hrr", EXCLUDED, "hrr"),
    ]
    for stop, validity, reason in table:
        tl = classify(ConnectionTimeline(t_syn=0, t_synack=100_000, t_clienthello=200_000), stop, cut=True)
        assert (tl.validity, tl.reason) == (validity, reason), stop
        uncut = classify(ConnectionTimeline(t_syn=0, t_synack=100_000, t_clienthello=200_000), stop)
        assert uncut.reason == stop


# -- delta arithmetic -------------------------------------------------------------

def test_reference_row_deltas():
    tl = classify(ConnectionTimeline(**BOUNDS, http_status=200))
    d = layer_deltas_ns(tl)
    assert d == [360_000, 294_000, 5_547_000, 526_000, 9_071_000]
    assert sum(d) == 15_798_000


def test_degenerate_equal_boundaries():
    tl = classify(ConnectionTimeline(
        t_syn=5, t_synack=5, t_clienthello=5, t_client_finished=5, t_http_get=5, t_http_200=5,
        http_status=200,
    ))
    assert tl.validity == VALID
    assert layer_deltas_ns(tl) == [0, 0, 0, 0, 0]


def _random_timeline(rng: random.Random):
    times = sorted(rng.randrange(0, 10**10) for _ in range(6))
    return classify(ConnectionTimeline(
        t_syn=times[0], t_synack=times[1], t_clienthello=times[2],
        t_client_finished=times[3], t_http_get=times[4], t_http_200=times[5],
        http_status=200,
    ))


def test_additivity_exact_over_random_timelines():
    rng = random.Random(2024)
    for _ in range(10_000):
        tl = _random_timeline(rng)
        d = layer_deltas_ns(tl)
        assert len(d) == len(LAYERS)
        assert sum(d) == tl.t_http_200 - tl.t_syn  # exact integer arithmetic
        assert min(d) >= 0


@given(
    st.lists(st.integers(min_value=0, max_value=10**12), min_size=6, max_size=6),
    st.integers(min_value=-10**9, max_value=10**12),
)
def test_translation_invariance(times, shift):
    times = sorted(times)
    if times[0] + shift < 0:
        shift = -times[0]
    kw = dict(zip(
        ("t_syn", "t_synack", "t_clienthello", "t_client_finished", "t_http_get", "t_http_200"),
        times,
    ))
    base = layer_deltas_ns(classify(ConnectionTimeline(**kw, http_status=200)))
    shifted = layer_deltas_ns(
        classify(ConnectionTimeline(**{k: v + shift for k, v in kw.items()}, http_status=200))
    )
    assert len(base) == len(LAYERS)
    assert base == shifted
