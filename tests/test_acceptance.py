"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS line on success; a failing criterion surfaces as a
regular pytest failure.  Criteria 1-3 reproduce published overhead metrics
from hand-encoded reference documents; 4-10 exercise the pipeline against
the synthetic oracle.
"""

import json
import random
import time

import numpy as np
import pytest

from tlslayers import documents, synth
from tlslayers.cli import main
from tlslayers.errors import AuthFailure
from tlslayers.keylog import parse_keylog
from tlslayers.keyschedule import decrypt_record, derive_traffic_keys
from tlslayers.metrics import combined_overhead_factor, cryptographic_overhead_share, glass_delta, overhead_factor
from tlslayers.stats import mean, percentile, sample_sd
from tlslayers.timeline import BOUNDARIES, LAYERS, ConnectionTimeline, classify, layer_deltas_ns
from tlslayers.tlswire import group_by_name, parse_client_hello, render_client_hello

import reference_runs as ref
from conftest import analyze_frames, assemble_frames, run_scenario


def _pass(criterion: int, name: str) -> None:
    print(f"ACCEPTANCE {criterion:2d} [{name}]: PASS")


# -- criterion 4/8 shared fixture: 200-connection mixed scenario --------------------

def _mixed_scenario(n=200) -> synth.ScenarioSpec:
    rng = random.Random(20240)
    groups = ("x25519", "x25519_mlkem512", "x25519_mlkem768", "mlkem512", "mlkem1024")
    suites = ("AES_128_GCM_SHA256", "AES_256_GCM_SHA384", "CHACHA20_POLY1305_SHA256")
    conns = []
    for i in range(n):
        base = i * 50_000_000
        t = [base, base + rng.randint(50_000, 900_000)]
        for step_hi in (2_000_000, 9_000_000, 2_500_000, 14_000_000):
            t.append(t[-1] + rng.randint(10_000, step_hi))
        conns.append(
            synth.ConnectionSpec(
                boundary_times=tuple(t),
                group=groups[i % len(groups)],
                cipher_suite=suites[i % len(suites)],
                response_body_bytes=4096 if i % 3 else 40960,
                segmentation_seed=rng.randrange(2**30),
            )
        )
    return synth.ScenarioSpec(connections=tuple(conns))


@pytest.fixture(scope="module")
def mixed_run():
    spec = _mixed_scenario()
    started = time.perf_counter()
    frames, keylog_text, truth = synth.generate(spec)
    result = analyze_frames(frames, keylog_text, "mixed")
    elapsed = time.perf_counter() - started
    return spec, frames, keylog_text, truth, result, elapsed


# -- criterion 1 ---------------------------------------------------------------------

def test_criterion_1_overhead_table_reproduction(tmp_path):
    doc_paths = {}
    for config in ("x25519",) + ref.PQC_CONFIGS:
        path = tmp_path / f"{config}.json"
        path.write_text(documents.render_json(ref.analysis_document_for(config)))
        doc_paths[config] = path

    started = time.perf_counter()
    baseline_doc = ref.analysis_document_for("x25519")
    for config in ref.PQC_CONFIGS:
        out = tmp_path / f"cmp-{config}.json"
        code = main([
            "compare",
            "--baseline", str(doc_paths["x25519"]),
            "--candidate", str(doc_paths[config]),
            "--percentiles", "p50,p95",
            "--cos-denominator", "layersum",
            "--out", str(out),
            "--format", "json",
        ])
        assert code == 0
        comp = json.loads(out.read_text())
        candidate_doc = ref.analysis_document_for(config)
        for p, (of_t2t, of_tls, of_comb, cos) in ref.OVERHEAD_TABLE[config].items():
            rep = comp["reports"][p]
            assert rep["overhead_factor"]["tcp_to_tls"] == pytest.approx(of_t2t, abs=0.005), (config, p)
            assert rep["overhead_factor"]["tls_handshake"] == pytest.approx(of_tls, abs=0.005), (config, p)
            assert rep["of_combined"] == pytest.approx(of_comb, abs=0.005), (config, p)
            assert rep["cos_percent"] == pytest.approx(cos, abs=0.05), (config, p)
            # the unquantized metrics meet the same tolerances
            cand = {layer: candidate_doc["layers"][layer][p] for layer in LAYERS}
            base = {layer: baseline_doc["layers"][layer][p] for layer in LAYERS}
            crypto = (cand["tcp_to_tls"], cand["tls_handshake"], base["tcp_to_tls"], base["tls_handshake"])
            assert overhead_factor(cand["tcp_to_tls"], base["tcp_to_tls"]) == pytest.approx(of_t2t, abs=0.005)
            assert overhead_factor(cand["tls_handshake"], base["tls_handshake"]) == pytest.approx(of_tls, abs=0.005)
            assert combined_overhead_factor(*crypto) == pytest.approx(of_comb, abs=0.005)
            assert cryptographic_overhead_share(*crypto, sum(cand.values())) == pytest.approx(cos, abs=0.05)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"comparison took {elapsed:.2f}s"
    _pass(1, "overhead table reproduction, 8 rows x 4 columns")


# -- criterion 2 ---------------------------------------------------------------------

def test_criterion_2_effect_size_reproduction():
    p50 = lambda cfg, layer: ref.percentile_value(cfg, layer, "p50")
    sd = lambda layer: ref.layer_sd("x25519", layer)

    # TCP handshake: widest median difference is 0.042 ms -> delta 0.17
    tcp = glass_delta(p50("x25519_mlkem768", "tcp_handshake"), p50("x25519", "tcp_handshake"), sd("tcp_handshake"))
    assert tcp.delta == pytest.approx(0.17, abs=0.01)
    assert tcp.classification == "negligible"

    # TLS handshake: hybrids 0.11..0.33 with hybrid-768 at the top; pure at |0.10| or less
    tls = {
        cfg: glass_delta(p50(cfg, "tls_handshake"), p50("x25519", "tls_handshake"), sd("tls_handshake")).delta
        for cfg in ref.PQC_CONFIGS
    }
    assert tls["x25519_mlkem512"] == pytest.approx(0.11, abs=0.01)
    assert tls["x25519_mlkem768"] == pytest.approx(0.33, abs=0.01)
    assert abs(tls["mlkem512"]) == pytest.approx(0.10, abs=0.01)
    assert all(0.11 - 0.01 <= d <= 0.33 + 0.01 for d in (tls["x25519_mlkem512"], tls["x25519_mlkem768"]))

    # TLS-to-App: large effects spanning [0.95, 1.23] with endpoints per variant
    t2a = {
        cfg: glass_delta(p50(cfg, "tls_to_app"), p50("x25519", "tls_to_app"), sd("tls_to_app")).delta
        for cfg in ref.PQC_CONFIGS
    }
    assert min(t2a.values()) == pytest.approx(0.95, abs=0.01)
    assert max(t2a.values()) == pytest.approx(1.23, abs=0.01)
    assert min(t2a, key=t2a.get) == "mlkem512"
    assert max(t2a, key=t2a.get) == "x25519_mlkem768"
    assert all(0.95 - 0.01 <= d <= 1.23 + 0.01 for d in t2a.values())

    # application response: widest deviation (hybrid-768) is |0.21|
    app = glass_delta(p50("x25519_mlkem768", "app_response"), p50("x25519", "app_response"), sd("app_response"))
    assert abs(app.delta) == pytest.approx(0.21, abs=0.01)

    # TCP-to-TLS: the cross-variant effect (mean median difference over the
    # baseline SD) sits in [7.3, 8.2]; per-variant values span ~7.4-8.3
    diffs = [p50(cfg, "tcp_to_tls") - p50("x25519", "tcp_to_tls") for cfg in ref.PQC_CONFIGS]
    cross = (sum(diffs) / len(diffs)) / sd("tcp_to_tls")
    assert 7.3 <= cross <= 8.2
    per_variant = [d / sd("tcp_to_tls") for d in diffs]
    assert all(7.3 <= d <= 8.3 for d in per_variant)
    _pass(2, "Glass delta reproduction at p50 basis")


# -- criterion 3 ---------------------------------------------------------------------

def test_criterion_3_relative_e2e_overheads():
    base = ref.E2E_TABLE["x25519"][0]
    for config, expected in ref.RELATIVE_E2E_TABLE.items():
        e2e = ref.E2E_TABLE[config][0]
        rel = 100.0 * (e2e - base) / base
        assert rel == pytest.approx(expected, abs=0.1), config
        comp = documents.build_comparison_document(
            ref.analysis_document_for("x25519"),
            ref.analysis_document_for(config),
            percentiles=("p50",),
        )
        assert comp["reports"]["p50"]["relative_e2e_overhead_percent"] == pytest.approx(expected, abs=0.1)
    _pass(3, "relative end-to-end overheads")


# -- criterion 4 ---------------------------------------------------------------------

def test_criterion_4_synthetic_round_trip(mixed_run):
    spec, _frames, _keylog, truth, result, elapsed = mixed_run
    assert elapsed < 30.0, f"generation+analysis took {elapsed:.1f}s"
    assert result.counts["total_streams"] == 200
    assert result.counts["valid"] == 200

    by_random = {ct.client_random: ct for ct in truth.connections}
    matched = 0
    for tl in result.timelines:
        ct = None
        for candidate in truth.connections:
            if candidate.boundaries["t_syn"] == tl.t_syn:
                ct = candidate
                break
        assert ct is not None
        for name in BOUNDARIES:
            assert getattr(tl, name) == ct.boundaries[name], (ct.index, name)
        matched += 1
    assert matched == 200

    for layer in LAYERS:
        planned = truth.layer_samples_ms(layer)
        got = result.layer_stats[layer]
        assert got.count == len(planned) == 200
        arr = np.array(sorted(planned))
        assert got.mean == pytest.approx(float(np.mean(arr)), abs=1e-9)
        assert got.sd == pytest.approx(float(np.std(arr, ddof=1)), abs=1e-9)
        assert got.min == pytest.approx(float(arr[0]), abs=1e-9)
        assert got.max == pytest.approx(float(arr[-1]), abs=1e-9)
        for field, q in (("p50", 50), ("p90", 90), ("p95", 95), ("p99", 99)):
            assert getattr(got, field) == pytest.approx(float(np.percentile(arr, q)), abs=1e-9)
    planned_e2e = truth.e2e_samples_ms()
    assert result.e2e_stats.count == 200
    assert result.e2e_stats.mean == pytest.approx(float(np.mean(planned_e2e)), abs=1e-9)
    assert by_random  # all client_randoms unique
    assert len(by_random) == 200
    _pass(4, "200-connection synthetic round trip at ns resolution")


# -- criterion 5 ---------------------------------------------------------------------

def test_criterion_5_decryption_correctness(mixed_run):
    # (a) published TLS 1.3 handshake-trace vectors for the SHA-256 suite
    secret = bytes.fromhex("b3eddb126e067f35a780b3abf45e2d8f3b1a950738f52e9600746a0e27a55a21")
    keys = derive_traffic_keys(secret, "AES_128_GCM_SHA256")
    assert keys.key == bytes.fromhex("dbfaa693d1762c5b666af5d950258d01")
    assert keys.iv == bytes.fromhex("5bd3c71b836e0b76bb73265f")
    secret = bytes.fromhex("b67b7d690cc16c4e75e54213cb2d37b4e9c912bcded9105d42befd59d391ad38")
    keys = derive_traffic_keys(secret, "AES_128_GCM_SHA256")
    assert keys.key == bytes.fromhex("3fce516009c21727d0f2e4e86ee403bc")
    assert keys.iv == bytes.fromhex("5d313eb2671276ee13000b30")

    # (b) every synth-encrypted record decrypts; nonce-counter misuse fails
    spec, frames, keylog_text, truth, result, _ = mixed_run
    assert result.counts["valid"] == 200  # implies every needed record decrypted

    from tlslayers.tlswire import CT_APPLICATION_DATA, parse_records

    conns = assemble_frames(frames)
    store = parse_keylog(keylog_text)
    checked = 0
    for conn in conns[:10]:
        records, _ = parse_records(conn.server_to_client)
        protected = [r for r in records if r.content_type == CT_APPLICATION_DATA]
        ch_records, _ = parse_records(conn.client_to_server)
        info = parse_client_hello(ch_records[0].body[4:])
        suite_name = next(
            ct.cipher_suite for ct in truth.connections if ct.client_random == info.client_random
        )
        secret = store.get(info.client_random, "SERVER_HANDSHAKE_TRAFFIC_SECRET")
        keys = derive_traffic_keys(secret, suite_name)
        decrypt_record(protected[0], keys)  # counter 0: opens
        keys_bad = derive_traffic_keys(secret, suite_name)
        keys_bad.sequence_counter = 1
        with pytest.raises(AuthFailure):
            decrypt_record(protected[0], keys_bad)
        checked += 1
    assert checked == 10
    _pass(5, "key-schedule vectors and AEAD round trip")


# -- criterion 6 ---------------------------------------------------------------------

def test_criterion_6_key_share_sizes():
    for name, expected in ref.KEY_SHARE_SIZES.items():
        group = group_by_name(name)
        msg = render_client_hello(bytes(32), [(group.group_id, bytes(group.client_share_len))])
        info = parse_client_hello(msg[4:])
        assert info.key_shares == ((group.group_id, expected),), name
    for hybrid in ("x25519_mlkem512", "x25519_mlkem768"):
        g = group_by_name(hybrid)
        assert g.client_share_len == sum(group_by_name(c).client_share_len for c in g.components)
    _pass(6, "key_share sizes 32/832/1216/800/1568 and hybrid additivity")


# -- criterion 7 ---------------------------------------------------------------------

def test_criterion_7_statistics_oracle_equivalence():
    rng = random.Random(777)
    for trial in range(5):
        samples = [rng.lognormvariate(1.5, 0.8) for _ in range(1000)]
        arr = np.array(samples)
        for p in (0.5, 0.9, 0.95, 0.99):
            ours = percentile(samples, p)
            oracle = float(np.percentile(arr, p * 100))
            assert ours == pytest.approx(oracle, rel=1e-12)
        assert mean(samples) == pytest.approx(float(np.mean(arr)), rel=1e-12)
        assert sample_sd(samples) == pytest.approx(float(np.std(arr, ddof=1)), rel=1e-12)
    _pass(7, "percentile/mean/SD match brute-force oracle to 1e-12")


# -- criterion 8 ---------------------------------------------------------------------

def test_criterion_8_worker_determinism(mixed_run, tmp_path):
    spec, frames, keylog_text, _, _, _ = mixed_run
    pcap = tmp_path / "mixed.pcap"
    keylog = tmp_path / "mixed.keys"
    synth.emit_capture(frames, pcap, "pcap-ns")
    keylog.write_text(keylog_text)

    outputs = []
    for workers in (1, 2, 8):
        out = tmp_path / f"out-{workers}.json"
        code = main([
            "analyze", "--pcap", str(pcap), "--keylog", str(keylog),
            "--label", "mixed", "--workers", str(workers), "--out", str(out),
        ])
        assert code == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]
    _pass(8, "byte-identical output for workers 1/2/8")


# -- criterion 9 ---------------------------------------------------------------------

def test_criterion_9_additivity_and_translation_invariance():
    rng = random.Random(909)
    for _ in range(10_000):
        times = sorted(rng.randrange(0, 10**11) for _ in range(6))
        kw = dict(zip(
            ("t_syn", "t_synack", "t_clienthello", "t_client_finished", "t_http_get", "t_http_200"),
            times,
        ))
        d = layer_deltas_ns(classify(ConnectionTimeline(**kw, http_status=200)))
        assert len(d) == len(LAYERS)
        assert sum(d) == kw["t_http_200"] - kw["t_syn"]
        shift = rng.randrange(0, 10**9)
        d2 = layer_deltas_ns(
            classify(ConnectionTimeline(**{k: v + shift for k, v in kw.items()}, http_status=200))
        )
        assert d2 == d
    _pass(9, "exact additivity over 10000 random timelines")


# -- criterion 10 --------------------------------------------------------------------

def test_criterion_10_degraded_mode_contract():
    rng = random.Random(55)
    plans = ["drop_keylog"] * 5 + ["truncate"] * 4 + ["non200"] * 3 + [None] * 8
    rng.shuffle(plans)
    conns = []
    for i, plan in enumerate(plans):
        base = i * 10**9
        t = [base, base + 300_000]
        for _ in range(4):
            t.append(t[-1] + rng.randint(100_000, 5_000_000))
        conns.append(synth.ConnectionSpec(
            boundary_times=tuple(t),
            segmentation_seed=i,
            response_body_bytes=8192,
            anomalies=frozenset({plan}) if plan else frozenset(),
        ))
    result, truth = run_scenario(synth.ScenarioSpec(connections=tuple(conns)))

    assert result.counts == truth.tallies
    assert result.counts["valid"] == 8
    assert result.counts["partial"] == {"no_keys": 5, "truncated": 4}
    assert result.counts["excluded"] == {"non200": 3}

    expected_counts = {
        "tcp_handshake": 8 + 5 + 4,
        "tcp_to_tls": 8 + 5 + 4,
        "tls_handshake": 8 + 4,
        "tls_to_app": 8 + 4,
        "app_response": 8,
    }
    for layer, expected in expected_counts.items():
        assert result.layer_stats[layer].count == expected, layer
        planned = truth.layer_samples_ms(layer)
        assert len(planned) == expected
        assert result.layer_stats[layer].mean == pytest.approx(float(np.mean(planned)), abs=1e-9)
    assert result.e2e_stats.count == 8
    _pass(10, "planned partial/excluded tallies and layer-prefix samples")
