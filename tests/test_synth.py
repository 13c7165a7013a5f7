"""Synthetic generator: determinism, ground-truth agreement, anomaly plans."""

import hashlib
import itertools
import json
import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tlslayers import synth
from tlslayers.errors import InvalidSpec
from tlslayers.timeline import BOUNDARIES, LAYERS

from conftest import analyze_frames, clean_connection_spec, run_scenario


def _frames_fingerprint(frames):
    return [(f.timestamp_ns, f.orig_len, f.data) for f in frames]


def test_generation_is_byte_deterministic(clean_scenario):
    a_frames, a_keylog, _ = synth.generate(clean_scenario)
    b_frames, b_keylog, _ = synth.generate(clean_scenario)
    assert _frames_fingerprint(a_frames) == _frames_fingerprint(b_frames)
    assert a_keylog == b_keylog


def _pinned_scenario():
    """Each anomaly alone and in pairs, over three group/suite pairs and bodies of 0 B to ~20 KB."""
    pairs = (
        ("x25519", "AES_128_GCM_SHA256"),
        ("mlkem1024", "AES_256_GCM_SHA384"),
        ("x25519_mlkem768", "CHACHA20_POLY1305_SHA256"),
    )
    combos = [c for r in range(3) for c in itertools.combinations(sorted(synth.ANOMALIES), r)]
    conns = []
    for combo, (group, suite) in itertools.product(combos, pairs):
        i = len(conns)
        conns.append(clean_connection_spec(
            offset_ns=i * 40_000_000 + 123, seed=i, group=group, cipher_suite=suite,
            response_body_bytes=(i * 977) % 20000, anomalies=frozenset(combo),
        ))
    return synth.ScenarioSpec(connections=tuple(conns))


def test_generated_bytes_are_pinned(tmp_path):
    # every rng draw feeds the output, so a refactor of the generator must keep these hashes
    frames, keylog_text, truth = synth.generate(_pinned_scenario())
    got = {}
    for fmt in ("pcap-us", "pcap-ns", "pcapng"):
        path = tmp_path / fmt
        synth.emit_capture(frames, path, fmt)
        got[fmt] = hashlib.sha256(path.read_bytes()).hexdigest()
    got["keylog"] = hashlib.sha256(keylog_text.encode()).hexdigest()
    got["truth"] = hashlib.sha256(json.dumps(truth.as_dict(), sort_keys=True).encode()).hexdigest()
    assert got == {
        "pcap-us": "9ffe1d5d9de02fe0665be7ffee7963dc4bf79ffc0f0383d3ec07109eaa1554a3",
        "pcap-ns": "a608bf3cecd9b7ead2a7f1cb762ff707ef3e38eea5a8b0852a36e0ed63c8f7f5",
        "pcapng": "30f9cca6dc834721bf2ba79518a5845cf550ea8f6ab83e057b109b39756c86b9",
        "keylog": "c90a6a44ebbe8c2ae450c957a6a803b7e2fa19bbffc0b9b2927beb4bff32b8c4",
        "truth": "5b3006bf40ba7303ba24cbdff3e0000aa32be9796b9ef36533278a9839b92f28",
    }


@settings(max_examples=100, deadline=None)
@given(
    records=st.lists(st.tuples(st.integers(1, 3000), st.integers(0, 50_000)), min_size=1, max_size=8),
    forced=st.sets(st.integers(0, 25_000), max_size=4),
    seed=st.integers(0, 2**32),
    pick=st.integers(0),
)
def test_segmentation_tiles_the_stream_and_a_cut_it_makes_anyway_changes_nothing(records, forced, seed, pick):
    times = sorted(ts for _, ts in records)
    records = [(bytes([i]) * n, ts) for i, ((n, _), ts) in enumerate(zip(records, times))]
    stream = b"".join(body for body, _ in records)
    segs = synth._segment_stream(records, forced, random.Random(seed))
    offsets = [off for off, _, _ in segs]
    assert b"".join(p for _, p, _ in segs) == stream
    assert offsets == list(itertools.accumulate((len(p) for _, p, _ in segs[:-1]), initial=0))
    assert all(0 < len(p) <= synth._MAX_SEG for _, p, _ in segs)
    assert {c for c in forced if 0 < c < len(stream)} <= set(offsets)
    # forcing a cut the draws make anyway must cost no draw and add no segment
    also = forced | {offsets[pick % len(offsets)]}
    assert synth._segment_stream(records, also, random.Random(seed)) == segs


def test_different_seeds_change_segmentation():
    a = synth.ScenarioSpec(connections=(clean_connection_spec(seed=1),))
    b = synth.ScenarioSpec(connections=(clean_connection_spec(seed=2),))
    fa, _, _ = synth.generate(a)
    fb, _, _ = synth.generate(b)
    assert _frames_fingerprint(fa) != _frames_fingerprint(fb)


def test_clean_connection_recovered_exactly(clean_scenario):
    result, truth = run_scenario(clean_scenario)
    (tl,) = result.timelines
    ct = truth.connections[0]
    assert tl.validity == ct.validity == "valid"
    for name in BOUNDARIES:
        assert getattr(tl, name) == ct.boundaries[name], name
    assert tl.group == ct.group
    assert tl.key_share_len == ct.key_share_len
    assert tl.client_hello_len == ct.client_hello_len
    assert tl.server_hello_len == ct.server_hello_len
    assert tl.cipher_suite == ct.cipher_suite


@pytest.mark.parametrize("group,suite", [
    ("x25519", "AES_128_GCM_SHA256"),
    ("mlkem512", "CHACHA20_POLY1305_SHA256"),
    ("x25519_mlkem512", "AES_128_GCM_SHA256"),
    ("x25519_mlkem768", "AES_256_GCM_SHA384"),
    ("mlkem1024", "AES_256_GCM_SHA384"),
])
def test_every_group_and_suite_round_trips(group, suite):
    spec = synth.ScenarioSpec(connections=(
        clean_connection_spec(seed=9, group=group, cipher_suite=suite),
    ))
    result, truth = run_scenario(spec)
    (tl,) = result.timelines
    assert tl.validity == "valid"
    assert tl.group == group
    assert tl.key_share_len == truth.connections[0].key_share_len


def test_drop_keylog_contributes_layer_prefix_only():
    spec = synth.ScenarioSpec(connections=(
        clean_connection_spec(seed=3, anomalies=frozenset({"drop_keylog"})),
    ))
    result, truth = run_scenario(spec)
    assert result.counts["partial"] == {"no_keys": 1}
    assert set(result.layer_stats) == {"tcp_handshake", "tcp_to_tls"}
    assert truth.tallies["partial"] == {"no_keys": 1}


def test_truncate_plan():
    spec = synth.ScenarioSpec(connections=(
        clean_connection_spec(seed=4, anomalies=frozenset({"truncate"}), response_body_bytes=40960),
    ))
    result, truth = run_scenario(spec)
    assert result.counts["partial"] == {"truncated": 1}
    assert set(result.layer_stats) == {"tcp_handshake", "tcp_to_tls", "tls_handshake", "tls_to_app"}
    assert truth.tallies["partial"] == {"truncated": 1}


def test_missing_keys_win_over_truncation():
    # the walk stops at the missing keys, before it reaches the cut status segment
    spec = synth.ScenarioSpec(connections=(
        clean_connection_spec(seed=4, anomalies=frozenset({"drop_keylog", "truncate"}), response_body_bytes=40960),
    ))
    result, truth = run_scenario(spec)
    assert result.counts == truth.tallies
    assert result.counts["partial"] == {"no_keys": 1}


def test_non200_excluded_everywhere():
    spec = synth.ScenarioSpec(connections=(
        clean_connection_spec(seed=5, anomalies=frozenset({"non200"})),
    ))
    result, truth = run_scenario(spec)
    assert result.counts["excluded"] == {"non200": 1}
    assert result.layer_stats == {}
    assert truth.tallies["excluded"] == {"non200": 1}
    (tl,) = result.timelines
    assert tl.http_status == 503


def test_coalesced_request_shares_flight_timestamp():
    spec = synth.ScenarioSpec(connections=(
        clean_connection_spec(seed=6, anomalies=frozenset({"coalesce_request"})),
    ))
    result, truth = run_scenario(spec)
    (tl,) = result.timelines
    assert tl.validity == "valid"
    assert tl.t_http_get == tl.t_client_finished  # same first-byte flight time
    assert tl.t_http_get == truth.connections[0].boundaries["t_http_get"]


def test_retransmission_does_not_inflate_boundaries(clean_scenario):
    base_result, _ = run_scenario(clean_scenario)
    retrans = synth.ScenarioSpec(connections=(
        clean_connection_spec(seed=1, anomalies=frozenset({"retransmit"})),
    ))
    result, _ = run_scenario(retrans)
    for name in BOUNDARIES:
        assert getattr(result.timelines[0], name) == getattr(base_result.timelines[0], name)


def test_reorder_within_one_ms_yields_identical_timelines(clean_scenario):
    base_result, _ = run_scenario(clean_scenario)
    spec = synth.ScenarioSpec(connections=(
        clean_connection_spec(seed=1, anomalies=frozenset({"reorder"})),
    ))
    result, _ = run_scenario(spec)
    assert len(result.timelines) == len(base_result.timelines)
    for a, b in zip(base_result.timelines, result.timelines):
        for name in BOUNDARIES:
            assert getattr(a, name) == getattr(b, name)


def test_file_order_shuffle_yields_identical_timelines(clean_scenario):
    frames, keylog_text, _ = synth.generate(clean_scenario)
    base = analyze_frames(frames, keylog_text, "shuffle")
    rng = random.Random(17)
    for _ in range(3):
        # permute within 1 ms buckets, preserving each frame's timestamp
        mixed = synth._shuffle_within_ms(frames, rng)
        result = analyze_frames(mixed, keylog_text, "shuffle")
        assert len(result.timelines) == len(base.timelines)
        for a, b in zip(base.timelines, result.timelines):
            for name in BOUNDARIES:
                assert getattr(a, name) == getattr(b, name)


def test_cross_format_equivalence_for_us_aligned_times(tmp_path, clean_scenario):
    from tlslayers.pipeline import analyze_capture

    frames, keylog_text, _ = synth.generate(clean_scenario)
    keylog_path = tmp_path / "keys.txt"
    keylog_path.write_text(keylog_text)
    stats = {}
    for fmt in ("pcap-us", "pcap-ns", "pcapng"):
        path = tmp_path / f"c-{fmt}"
        synth.emit_capture(frames, path, fmt)
        result = analyze_capture(path, keylog_path, "fmt")
        stats[fmt] = [
            (tl.t_syn, tl.t_synack, tl.t_clienthello, tl.t_client_finished, tl.t_http_get, tl.t_http_200)
            for tl in result.timelines
        ]
    # boundary times are microsecond-aligned, so all formats agree exactly
    assert stats["pcap-us"] == stats["pcap-ns"] == stats["pcapng"]


def test_cross_format_ingest_agrees_on_hostile_input(tmp_path):
    from tlslayers.capture import CapturedFrame
    from tlslayers.pipeline import analyze_capture

    anomalies = [("retransmit",), ("truncate",), ("coalesce_request",), ("retransmit", "truncate"), ()]
    spec = synth.ScenarioSpec(connections=tuple(
        clean_connection_spec(offset_ns=i * 40_000_000 + 123, seed=i + 1, anomalies=frozenset(a))
        for i, a in enumerate(anomalies)
    ))
    frames, keylog_text, _ = synth.generate(spec)
    arp = CapturedFrame(timestamp_ns=1, link_type=1, data=b"\xff" * 6 + b"\x02" * 6 + b"\x08\x06" + bytes(28), orig_len=42)
    runt = CapturedFrame(timestamp_ns=2, link_type=1, data=bytes(10), orig_len=10)
    bad_ihl = frames[0]._replace(data=frames[0].data[:14] + b"\x42" + frames[0].data[15:])
    keylog_path = tmp_path / "keys.txt"
    keylog_path.write_text(keylog_text)
    results = {}
    for fmt in ("pcap-ns", "pcapng"):
        path = tmp_path / f"c-{fmt}"
        synth.emit_capture([arp, *frames, runt, bad_ihl, arp], path, fmt)
        results[fmt] = analyze_capture(path, keylog_path, "fmt")
    a, b = results["pcap-ns"], results["pcapng"]
    assert a.ingest == {"frames": len(frames) + 4, "non_tcp_frames": 2, "malformed_frames": 2}
    assert a.counts["total_streams"] == len(anomalies)
    assert (a.timelines, a.counts, a.ingest) == (b.timelines, b.counts, b.ingest)


def test_ground_truth_statistics_match_oracle_for_mixed_run():
    rng = random.Random(404)
    conns = []
    for i in range(40):
        base = [0, rng.randint(100_000, 900_000)]
        for _ in range(4):
            base.append(base[-1] + rng.randint(100_000, 9_000_000))
        conns.append(synth.ConnectionSpec(
            boundary_times=tuple(t + i * 10**9 for t in base),
            group=rng.choice(("x25519", "mlkem512", "x25519_mlkem768")),
            response_body_bytes=rng.choice((1024, 4096)),
            segmentation_seed=i,
        ))
    spec = synth.ScenarioSpec(connections=tuple(conns))
    result, truth = run_scenario(spec)
    assert result.counts == {"total_streams": 40, "valid": 40, "partial": {}, "excluded": {}}
    import numpy as np

    for layer in LAYERS:
        planned = truth.layer_samples_ms(layer)
        got = result.layer_stats[layer]
        assert got.count == len(planned)
        assert got.mean == pytest.approx(float(np.mean(planned)), abs=1e-9)
        assert got.p50 == pytest.approx(float(np.percentile(planned, 50)), abs=1e-9)


def test_validation_rejects_bad_specs():
    # (connection fields or None for no connection, scenario fields, what the error names); a spec
    # built in code gets the same type checks as a scenario file
    table = [
        (None, {}, "no connections"),
        ({"boundary_times": (5, 4, 3, 2, 1, 0)}, {}, "connection 0: boundary times not ordered"),
        ({"anomalies": frozenset({"alien"})}, {}, "connection 0: unknown anomalies"),
        ({"response_body_bytes": -1}, {}, "connection 0: response_body_bytes"),
        ({"boundary_times": 5}, {}, "connection 0: boundary_times_ns: expected tuple"),
        ({"boundary_times": (0, 1, 2, 3, 4, 5.5)}, {}, "connection 0: boundary_times_ns: expected int"),
        ({"group": 5}, {}, "connection 0: group: expected str"),
        ({"response_body_bytes": True}, {}, "connection 0: response_body_bytes: expected int"),
        ({"segmentation_seed": "1"}, {}, "connection 0: segmentation_seed: expected int"),
        ({}, {"server_port": 443.0}, "server_port: expected int"),
        ({}, {"client_ip": 0x0A000001}, "client_ip: expected str"),
    ]
    for conn, scenario, named in table:
        conns = () if conn is None else (synth.ConnectionSpec(**{"boundary_times": (0, 1, 2, 3, 4, 5), **conn}),)
        with pytest.raises(InvalidSpec, match=named):
            synth.validate_spec(synth.ScenarioSpec(connections=conns, **scenario))


def test_response_body_bound_is_inclusive():
    # checked without generating: the body would be 16 MiB
    conn = synth.ConnectionSpec(boundary_times=(0, 1, 2, 3, 4, 5), response_body_bytes=1 << 24)
    synth.validate_spec(synth.ScenarioSpec(connections=(conn,)))
    with pytest.raises(InvalidSpec, match="connection 0: response_body_bytes"):
        synth.validate_spec(synth.ScenarioSpec(connections=(
            synth.ConnectionSpec(boundary_times=(0, 1, 2, 3, 4, 5), response_body_bytes=(1 << 24) + 1),
        )))


def test_scenario_file_loading(tmp_path):
    path = tmp_path / "scenario.yaml"
    path.write_text(
        "defaults:\n"
        "  group: mlkem1024\n"
        "  response_body_bytes: 2048\n"
        "connections:\n"
        "  - boundary_times_ns: [0, 100000, 200000, 300000, 400000, 500000]\n"
        "    segmentation_seed: 12\n"
        "  - boundary_times_ns: [1000000, 1100000, 1200000, 1300000, 1400000, 1500000]\n"
        "    group: x25519\n"
        "    anomalies: [non200]\n"
    )
    spec = synth.load_scenario(path)
    assert len(spec.connections) == 2
    assert spec.connections[0].group == "mlkem1024"
    assert spec.connections[0].response_body_bytes == 2048
    assert spec.connections[1].group == "x25519"
    assert spec.connections[1].anomalies == frozenset({"non200"})
    for value in ("{retransmit: false}", "retransmit"):
        path.write_text("connections:\n  - boundary_times_ns: [0, 1, 2, 3, 4, 5]\n    anomalies: " + value + "\n")
        with pytest.raises(InvalidSpec, match="anomalies: expected a list"):
            synth.load_scenario(path)
    for value in ('"012345"', "{0: a, 1: b, 2: c, 3: d, 4: e, 5: f}"):
        path.write_text("connections:\n  - boundary_times_ns: " + value + "\n")
        with pytest.raises(InvalidSpec, match="connection 0: boundary_times_ns: expected a list"):
            synth.load_scenario(path)


def test_documented_scenario_example_analyses_to_its_ground_truth(tmp_path):
    doc = (Path(__file__).parent.parent / "docs" / "scenario_format.md").read_text()
    (example,) = re.findall(r"```yaml\n(.*?)```", doc, re.DOTALL)
    path = tmp_path / "scenario.yaml"
    path.write_text(example)
    result, truth = run_scenario(synth.load_scenario(path))
    assert result.counts["valid"] == len(result.timelines) == 2
    by_syn = {ct.boundaries["t_syn"]: ct for ct in truth.connections}
    for tl in result.timelines:
        ct = by_syn[tl.t_syn]
        for name in BOUNDARIES:
            assert getattr(tl, name) == ct.boundaries[name], name
