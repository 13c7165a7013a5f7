"""Synthetic generator: determinism, ground-truth agreement, anomaly plans."""

import random
import re
from pathlib import Path

import pytest

from tlslayers import synth
from tlslayers.decode import decode_frame
from tlslayers.errors import InvalidSpec
from tlslayers.keylog import parse_keylog
from tlslayers.pipeline import analyze_packets
from tlslayers.timeline import BOUNDARIES, LAYERS

from conftest import clean_connection_spec, run_scenario


def _frames_fingerprint(frames):
    return [(f.timestamp_ns, f.orig_len, f.data) for f in frames]


def test_generation_is_byte_deterministic(clean_scenario):
    a_frames, a_keylog, _ = synth.generate(clean_scenario)
    b_frames, b_keylog, _ = synth.generate(clean_scenario)
    assert _frames_fingerprint(a_frames) == _frames_fingerprint(b_frames)
    assert a_keylog == b_keylog


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
        assert tl.boundary(name) == ct.boundaries[name], name
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
        assert result.timelines[0].boundary(name) == base_result.timelines[0].boundary(name)


def test_reorder_within_one_ms_yields_identical_timelines(clean_scenario):
    base_result, _ = run_scenario(clean_scenario)
    spec = synth.ScenarioSpec(connections=(
        clean_connection_spec(seed=1, anomalies=frozenset({"reorder"})),
    ))
    result, _ = run_scenario(spec)
    for a, b in zip(base_result.timelines, result.timelines):
        for name in BOUNDARIES:
            assert a.boundary(name) == b.boundary(name)


def test_file_order_shuffle_yields_identical_timelines(clean_scenario):
    frames, keylog_text, _ = synth.generate(clean_scenario)
    keystore = parse_keylog(keylog_text)

    def analyze(frame_list):
        packets = [p for f in frame_list if (p := decode_frame(f)) is not None]
        return analyze_packets(packets, keystore, "shuffle")

    base = analyze(frames)
    rng = random.Random(17)
    for _ in range(3):
        shuffled = frames[:]
        # permute within 1 ms buckets, preserving each frame's timestamp
        buckets = {}
        for f in shuffled:
            buckets.setdefault(f.timestamp_ns // 1_000_000, []).append(f)
        mixed = []
        for key in sorted(buckets):
            group = buckets[key]
            rng.shuffle(group)
            mixed.extend(group)
        result = analyze(mixed)
        for a, b in zip(base.timelines, result.timelines):
            for name in BOUNDARIES:
                assert a.boundary(name) == b.boundary(name)


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
    with pytest.raises(InvalidSpec):
        synth.validate_spec(synth.ScenarioSpec(connections=()))
    with pytest.raises(InvalidSpec):
        synth.validate_spec(synth.ScenarioSpec(connections=(
            synth.ConnectionSpec(boundary_times=(5, 4, 3, 2, 1, 0)),
        )))
    with pytest.raises(InvalidSpec):
        synth.validate_spec(synth.ScenarioSpec(connections=(
            synth.ConnectionSpec(boundary_times=(0, 1, 2, 3, 4, 5), anomalies=frozenset({"alien"})),
        )))
    with pytest.raises(InvalidSpec):
        synth.validate_spec(synth.ScenarioSpec(connections=(
            synth.ConnectionSpec(boundary_times=(0, 1, 2, 3, 4, 5), response_body_bytes=-1),
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
            assert tl.boundary(name) == ct.boundaries[name], name
