"""Document building, canonical serialization, rendering, comparison."""

import csv
import io
import json

import pytest

from tlslayers import documents
from tlslayers.documents import IncompatibleDocuments

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


def test_unknown_percentile_rejected(sample_doc):
    with pytest.raises(ValueError):
        documents.build_comparison_document(sample_doc, sample_doc, percentiles=("p42",))


def test_documents_validate_against_published_schemas(sample_doc):
    import jsonschema
    from pathlib import Path

    schema_dir = Path(__file__).parent.parent / "docs" / "schema"
    analysis_schema = json.loads((schema_dir / "analysis.v1.schema.json").read_text())
    jsonschema.validate(sample_doc, analysis_schema)

    comp = documents.build_comparison_document(sample_doc, sample_doc)
    comparison_schema = json.loads((schema_dir / "comparison.v1.schema.json").read_text())
    jsonschema.validate(comp, comparison_schema)
