"""Document building, canonical serialization, rendering, comparison."""

import csv
import hashlib
import io
import itertools
import json

import pytest

from tlslayers import documents
from tlslayers.documents import IncompatibleDocuments
from tlslayers.pipeline import analyze_capture
from tlslayers.stats import PERCENTILE_FIELDS
from tlslayers.tlswire import GROUPS_BY_ID, SUITES_BY_NAME

from conftest import run_scenario
from reference_runs import analysis_document_for
from tlslayers import synth


@pytest.fixture(scope="module")
def sample_doc():
    conns = []
    for i in range(4):
        base = i * 10**9
        jitter = i * 37_000  # distinct deltas so baseline SDs are nonzero
        conns.append(synth.ConnectionSpec(
            boundary_times=(
                base, base + 360_000 + jitter, base + 654_000 + 2 * jitter,
                base + 6_201_000 + 3 * jitter, base + 6_727_000 + 4 * jitter,
                base + 15_798_000 + 5 * jitter,
            ),
            segmentation_seed=i,
        ))
    result, _ = run_scenario(synth.ScenarioSpec(connections=tuple(conns)))
    return documents.build_analysis_document(result)


def test_json_round_trip(sample_doc):
    text = documents.render_json(sample_doc)
    assert documents.parse_document(text) == sample_doc


def test_json_is_canonical(sample_doc):
    text = documents.render_json(sample_doc)
    assert text == documents.render_json(json.loads(text))
    keys = list(json.loads(text))
    assert keys == sorted(keys)


def test_render_json_rejects_a_non_finite_value():
    with pytest.raises(ValueError):
        documents.render_json({"x": float("inf")})


def test_comparison_round_trip(sample_doc):
    comp = documents.build_comparison_document(sample_doc, sample_doc)
    text = documents.render_json(comp)
    assert documents.parse_document(text) == comp


def test_self_comparison_identities(sample_doc):
    comp = documents.build_comparison_document(sample_doc, sample_doc, percentiles=("p50", "p95"))
    for p in ("p50", "p95"):
        rep = comp["reports"][p]
        assert all(v == 1.0 for v in rep["overhead_factor"].values())
        assert rep["of_combined"] == 1.0
        assert rep["cos_percent"] == 0.0
        assert rep["relative_e2e_overhead_percent"] == 0.0
    for es in comp["effect_size"].values():
        assert es["delta"] == 0.0
        assert es["classification"] == "negligible"


def test_zero_baseline_sd_gives_null_effect_size(sample_doc):
    # equal baseline samples give an sd of exactly 0.0, and Glass's delta is undefined
    baseline = json.loads(json.dumps(sample_doc))
    baseline["layers"]["tcp_handshake"]["sd"] = 0.0
    comp = documents.build_comparison_document(baseline, sample_doc)
    assert comp["effect_size"]["tcp_handshake"] == {"delta": None, "classification": None}
    assert comp["effect_size"]["tls_handshake"]["delta"] == 0.0


def test_csv_row_count_is_layers_plus_e2e_times_stats(sample_doc):
    text = documents.render_csv(sample_doc)
    rows = list(csv.reader(io.StringIO(text)))
    header, data = rows[0], rows[1:]
    assert header == ["layer", "statistic", "value"]
    n_layers = len(sample_doc["layers"])
    n_stats = len(documents.STAT_FIELDS)
    assert len(data) == n_layers * n_stats + n_stats  # layers + e2e


def test_table_rendering_matches_published_precision():
    baseline = analysis_document_for("x25519")
    candidate = analysis_document_for("x25519_mlkem768")
    comp = documents.build_comparison_document(baseline, candidate, percentiles=("p50",))
    table = documents.render_table(comp)
    assert "6.47" in table  # OF TCP-to-TLS, two decimals
    assert "1.17" in table  # OF TLS handshake
    assert "1.44" in table  # OF combined
    assert "14.1" in table  # COS, one decimal


def test_incompatible_documents_rejected(sample_doc):
    undecrypted = json.loads(documents.render_json(sample_doc))
    del undecrypted["layers"]["tls_handshake"]
    with pytest.raises(IncompatibleDocuments):
        documents.build_comparison_document(undecrypted, sample_doc)
    with pytest.raises(IncompatibleDocuments):
        documents.build_comparison_document(sample_doc, undecrypted)
    with pytest.raises(IncompatibleDocuments):
        documents.build_comparison_document({"schema": "bogus"}, sample_doc)


@pytest.mark.parametrize("percentiles", [("p42",), (), ("p50", "p50")], ids=["unknown", "empty", "repeated"])
def test_unknown_percentile_rejected(sample_doc, percentiles):
    with pytest.raises(ValueError):
        documents.build_comparison_document(sample_doc, sample_doc, percentiles=percentiles)


def test_documents_validate_against_published_schemas(sample_doc):
    import jsonschema
    from pathlib import Path

    schema_dir = Path(__file__).parent.parent / "docs" / "schema"
    analysis_schema = json.loads((schema_dir / "analysis.v1.schema.json").read_text())
    jsonschema.validate(sample_doc, analysis_schema)

    comp = documents.build_comparison_document(sample_doc, sample_doc)
    comparison_schema = json.loads((schema_dir / "comparison.v1.schema.json").read_text())
    jsonschema.validate(comp, comparison_schema)


def _pinned_connection(i: int, group: str, suite: str, anomalies=(), kex_ns: int = 0) -> synth.ConnectionSpec:
    # odd nanosecond steps that differ per connection, so every statistic has digits
    # past the document's rounding and every layer a nonzero sd; `kex_ns` slows the
    # two layers a larger key exchange costs
    steps = (350_000 + 13_001 * i, 290_000 + 7_919 * i + kex_ns, 5_500_000 + 104_729 * i + 3 * kex_ns,
             520_000 + 3_571 * i, 9_000_000 + 86_243 * i)
    times = list(itertools.accumulate(steps, initial=i * 40_000_000 + 123 * i))
    return synth.ConnectionSpec(
        boundary_times=tuple(times), group=group, cipher_suite=suite,
        response_body_bytes=(i * 977) % 6000, segmentation_seed=i, anomalies=frozenset(anomalies),
    )


def _pinned_runs():
    """(name, capture format, spec): every group, suite and anomaly, and all three capture formats."""
    groups = sorted(g.name for g in GROUPS_BY_ID.values())
    suites = sorted(SUITES_BY_NAME)
    classical = [_pinned_connection(i, "x25519", suites[i % 3]) for i in range(4)]
    post_quantum = [
        _pinned_connection(i, g, suites[i % 3], kex_ns=400_000 + 61_333 * i)
        for i, g in enumerate(g for g in groups if g != "x25519")
    ]
    anomalous = [
        _pinned_connection(i, groups[i % len(groups)], suites[i % 3], [a] if a else [])
        for i, a in enumerate([None, *sorted(synth.ANOMALIES)])
    ]
    return (
        ("classical", "pcap-us", classical),
        ("post-quantum", "pcapng", post_quantum),
        ("anomalies", "pcap-ns", anomalous),
    )


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_document_bytes_are_pinned(tmp_path):
    # a change that moves a byte of any rendering must update these hashes and say why
    docs = {}
    for name, fmt, conns in _pinned_runs():
        # written without write_outputs, which refuses pcap-us for sub-microsecond boundary times
        frames, keylog_text, _ = synth.generate(synth.ScenarioSpec(connections=tuple(conns)))
        capture, keylog = tmp_path / f"{name}.capture", tmp_path / f"{name}.keys"
        synth.emit_capture(frames, capture, fmt)
        keylog.write_text(keylog_text)
        docs[name] = documents.build_analysis_document(analyze_capture(capture, keylog, name))
    comparison = documents.build_comparison_document(
        docs["classical"], docs["post-quantum"], percentiles=PERCENTILE_FIELDS
    )
    got = {name: _sha256(documents.render_json(doc)) for name, doc in docs.items()}
    got["anomalies.csv"] = _sha256(documents.render_csv(docs["anomalies"]))
    got["anomalies.table"] = _sha256(documents.render_table(docs["anomalies"]))
    for fmt in ("json", "csv", "table"):
        got[f"comparison.{fmt}"] = _sha256(documents.render(comparison, fmt))
    assert got == {
        "classical": "ba9ba26a5ad6333cc8ef4f6e089f93cead1aa2dd28ac1b4ffea7e9bb0b55d020",
        "post-quantum": "18752025294a28b1eef75706f570938f6cffa083b441744cbd47272c3f7f961a",
        "anomalies": "7d52f3ba875618444d2a7682b692888f3c4d543f1aa3f98bea88b1dc5b959a5d",
        "anomalies.csv": "180b2a634243ef1143b531f0e9017a44a08d3c842ba7fd9c62efc502e47dc624",
        "anomalies.table": "88a1c3bcdd3f2493691e892a2895b23fd9bdef48577733a30ff3b1d55eca4ecf",
        "comparison.json": "c85688b3ad473d28d8e2f73932a55c18e1f5dc5cddfe9c0fb14e3528456d664e",
        "comparison.csv": "7253ace98132786dc8e1b6294cba41dd456ee31a231bd9938cabfc77c3b207b1",
        "comparison.table": "1c69f883091e5a039e4ace2d11fc4617cc8ba8251fbbe8098528fe75a50cceab",
    }
