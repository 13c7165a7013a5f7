"""Analysis and comparison documents plus their JSON/CSV/table renderings.

Documents are plain dicts with a fixed schema (see docs/schema/).  Written
JSON is canonical: sorted keys, and all floats quantized at build time
(milliseconds to 3 decimals, overhead factors and effect sizes to 2,
percentages to 1) so that rendering is byte-deterministic and round-trips
losslessly.
"""

from __future__ import annotations

import json
from io import StringIO
from typing import TYPE_CHECKING

from tlslayers import __version__
from tlslayers.errors import TlsLayersError, ZeroBaselineSD
from tlslayers.metrics import (
    combined_overhead_factor,
    cryptographic_overhead_share,
    glass_delta,
    overhead_factor,
    relative_e2e_overhead,
)
from tlslayers.stats import PERCENTILE_FIELDS
from tlslayers.timeline import LAYERS

if TYPE_CHECKING:
    from tlslayers.pipeline import RunResult

ANALYSIS_SCHEMA = "tlslayers/analysis/v1"
COMPARISON_SCHEMA = "tlslayers/comparison/v1"

COS_MODE_LAYERSUM = "layersum"  # sum of the candidate's five same-percentile layer values
COS_MODE_E2E = "e2e"  # the candidate's measured per-connection e2e percentile
COS_MODES = (COS_MODE_LAYERSUM, COS_MODE_E2E)

DELTA_BASES = ("p50", "mean")

STAT_FIELDS = ("count", "mean", "p50", "p90", "p95", "p99", "min", "max", "sd")


class IncompatibleDocuments(TlsLayersError):
    """Baseline and candidate do not share the layers needed to compare."""


def _round_ms(value: float) -> float:
    return round(value, 3)


def _stats_block(stats) -> dict:
    block = stats.as_dict()
    return {k: (v if k == "count" else _round_ms(v)) for k, v in block.items()}


def build_analysis_document(result: RunResult, cos_denominator_mode: str = COS_MODE_LAYERSUM) -> dict:
    if cos_denominator_mode not in COS_MODES:
        raise ValueError(f"unknown COS denominator mode {cos_denominator_mode!r}")
    doc = {
        "schema": ANALYSIS_SCHEMA,
        "tool_version": __version__,
        "label": result.label,
        "decrypted": result.decrypted,
        "cos_denominator_mode": cos_denominator_mode,
        "inputs": {
            "pcap_sha256": result.inputs.get("pcap_sha256"),
            "keylog_sha256": result.inputs.get("keylog_sha256"),
        },
        "ingest": result.ingest,
        "counts": result.counts,
        "handshake": result.handshake,
        "layers": {layer: _stats_block(s) for layer, s in result.layer_stats.items()},
        "e2e": _stats_block(result.e2e_stats) if result.e2e_stats else None,
        "ttlb": _stats_block(result.ttlb_stats) if result.ttlb_stats else None,
    }
    _check_analysis(doc)
    return doc


def _check_analysis(doc: dict) -> None:
    counts = doc["counts"]
    total = counts["valid"] + sum(counts["partial"].values()) + sum(counts["excluded"].values())
    if total != counts["total_streams"]:
        raise AssertionError("analysis counts do not sum to total_streams")


def comparison_metrics(
    baseline: dict,
    candidate: dict,
    percentile: str,
    cos_denominator_mode: str = COS_MODE_LAYERSUM,
) -> dict:
    """Full-precision overhead metrics at one percentile."""
    of = {
        layer: overhead_factor(candidate["layers"][layer][percentile], baseline["layers"][layer][percentile])
        for layer in LAYERS
    }
    of_combined = combined_overhead_factor(
        candidate["layers"]["tcp_to_tls"][percentile],
        candidate["layers"]["tls_handshake"][percentile],
        baseline["layers"]["tcp_to_tls"][percentile],
        baseline["layers"]["tls_handshake"][percentile],
    )
    if cos_denominator_mode == COS_MODE_LAYERSUM:
        denom = sum(candidate["layers"][layer][percentile] for layer in LAYERS)
    else:
        denom = candidate["e2e"][percentile]
    cos = cryptographic_overhead_share(
        candidate["layers"]["tcp_to_tls"][percentile],
        candidate["layers"]["tls_handshake"][percentile],
        baseline["layers"]["tcp_to_tls"][percentile],
        baseline["layers"]["tls_handshake"][percentile],
        denom,
    )
    rel = relative_e2e_overhead(candidate["e2e"][percentile], baseline["e2e"][percentile])
    return {
        "overhead_factor": of,
        "of_combined": of_combined,
        "cos_percent": cos,
        "relative_e2e_overhead_percent": rel,
    }


def effect_sizes(baseline: dict, candidate: dict, basis: str) -> dict:
    out = {}
    for layer in LAYERS:
        sd = baseline["layers"][layer]["sd"]
        try:
            es = glass_delta(candidate["layers"][layer][basis], baseline["layers"][layer][basis], sd)
        except ZeroBaselineSD:
            out[layer] = {"delta": None, "classification": None}
            continue
        out[layer] = {"delta": es.delta, "classification": es.classification}
    return out


def _require_comparable(baseline: dict, candidate: dict, percentiles) -> None:
    for name, doc in (("baseline", baseline), ("candidate", candidate)):
        if doc.get("schema") != ANALYSIS_SCHEMA:
            raise IncompatibleDocuments(f"{name} is not an analysis document")
        missing = [layer for layer in LAYERS if layer not in doc.get("layers", {})]
        if missing:
            raise IncompatibleDocuments(f"{name} lacks decrypted layers: {', '.join(missing)}")
        if not doc.get("e2e"):
            raise IncompatibleDocuments(f"{name} lacks an e2e block")
    bad = [p for p in percentiles if p not in PERCENTILE_FIELDS]
    if bad:
        raise ValueError(f"unsupported percentiles: {bad}")


def build_comparison_document(
    baseline: dict,
    candidate: dict,
    percentiles=("p50", "p95"),
    cos_denominator_mode: str = COS_MODE_LAYERSUM,
    delta_basis: str = "p50",
) -> dict:
    if cos_denominator_mode not in COS_MODES:
        raise ValueError(f"unknown COS denominator mode {cos_denominator_mode!r}")
    if delta_basis not in DELTA_BASES:
        raise ValueError(f"unknown delta basis {delta_basis!r}")
    percentiles = tuple(percentiles)
    _require_comparable(baseline, candidate, percentiles)

    reports = {}
    for p in percentiles:
        m = comparison_metrics(baseline, candidate, p, cos_denominator_mode)
        reports[p] = {
            "overhead_factor": {layer: round(v, 2) for layer, v in m["overhead_factor"].items()},
            "of_combined": round(m["of_combined"], 2),
            "cos_percent": round(m["cos_percent"], 1),
            "relative_e2e_overhead_percent": round(m["relative_e2e_overhead_percent"], 1),
        }
    deltas = {
        layer: {
            "delta": None if es["delta"] is None else round(es["delta"], 2),
            "classification": es["classification"],
        }
        for layer, es in effect_sizes(baseline, candidate, delta_basis).items()
    }
    return {
        "schema": COMPARISON_SCHEMA,
        "tool_version": __version__,
        "baseline_label": baseline["label"],
        "candidate_label": candidate["label"],
        "percentiles": list(percentiles),
        "cos_denominator_mode": cos_denominator_mode,
        "delta_basis": delta_basis,
        "reports": reports,
        "effect_size": deltas,
    }


# -- serialization -------------------------------------------------------------

def render_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def parse_document(text: str) -> dict:
    """Parse a document; ValueError if it is not one `compare` can read.

    An analysis document needs a string label, and each of its layer blocks,
    and its `e2e` and `ttlb` blocks unless null, must map every one of
    `STAT_FIELDS` to a number.
    """
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError("document is not a JSON object")
    if doc.get("schema") not in (ANALYSIS_SCHEMA, COMPARISON_SCHEMA):
        raise ValueError(f"unknown document schema {doc.get('schema')!r}")
    if doc["schema"] == ANALYSIS_SCHEMA:
        layers = doc.get("layers", {})
        if not isinstance(doc.get("label"), str) or not isinstance(layers, dict):
            raise ValueError("analysis document lacks a string label or a layers object")
        blocks = {**layers, **{k: doc[k] for k in ("e2e", "ttlb") if doc.get(k) is not None}}
        for name, block in blocks.items():
            if not (isinstance(block, dict) and all(_is_number(block.get(k)) for k in STAT_FIELDS)):
                raise ValueError(f"{name} block does not map {', '.join(STAT_FIELDS)} to numbers")
    return doc


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def render_csv(doc: dict) -> str:
    import csv

    buf = StringIO()
    w = csv.writer(buf, lineterminator="\n")
    if doc["schema"] == ANALYSIS_SCHEMA:
        w.writerow(["layer", "statistic", "value"])
        blocks = [(layer, doc["layers"][layer]) for layer in LAYERS if layer in doc["layers"]]
        if doc.get("e2e"):
            blocks.append(("e2e", doc["e2e"]))
        for name, block in blocks:
            for stat in STAT_FIELDS:
                w.writerow([name, stat, block[stat]])
    else:
        w.writerow(["percentile", "metric", "layer", "value"])
        for p in doc["percentiles"]:
            rep = doc["reports"][p]
            for layer in LAYERS:
                w.writerow([p, "overhead_factor", layer, rep["overhead_factor"][layer]])
            w.writerow([p, "of_combined", "", rep["of_combined"]])
            w.writerow([p, "cos_percent", "", rep["cos_percent"]])
            w.writerow([p, "relative_e2e_overhead_percent", "", rep["relative_e2e_overhead_percent"]])
        for layer in LAYERS:
            es = doc["effect_size"][layer]
            w.writerow(["", "glass_delta", layer, es["delta"]])
    return buf.getvalue()


_LAYER_TITLES = {
    "tcp_handshake": "TCP handshake",
    "tcp_to_tls": "TCP-to-TLS delay",
    "tls_handshake": "TLS handshake",
    "tls_to_app": "TLS-to-App delay",
    "app_response": "App response",
    "e2e": "End-to-end",
}


def _format_table(rows: list[list[str]]) -> str:
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    lines = []
    for idx, row in enumerate(rows):
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
        if idx == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines) + "\n"


def render_table(doc: dict) -> str:
    if doc["schema"] == ANALYSIS_SCHEMA:
        return _render_analysis_table(doc)
    return _render_comparison_table(doc)


def _render_analysis_table(doc: dict) -> str:
    header = ["layer", "count", "mean", "p50", "p90", "p95", "p99", "min", "max", "sd"]
    rows = [header]
    blocks = [(layer, doc["layers"][layer]) for layer in LAYERS if layer in doc["layers"]]
    if doc.get("e2e"):
        blocks.append(("e2e", doc["e2e"]))
    for name, block in blocks:
        rows.append(
            [_LAYER_TITLES.get(name, name), str(block["count"])]
            + [f"{block[k]:.3f}" for k in ("mean", "p50", "p90", "p95", "p99", "min", "max", "sd")]
        )
    counts = doc["counts"]
    tail = (
        f"\nrun: {doc['label']}  streams: {counts['total_streams']}  valid: {counts['valid']}"
        f"  partial: {sum(counts['partial'].values())}  excluded: {sum(counts['excluded'].values())}\n"
    )
    hs = doc.get("handshake") or {}
    if hs.get("group"):
        tail += (
            f"group: {hs['group']}  key_share: {hs['key_share_len']} B"
            f"  client_hello: {hs['client_hello_len']} B  server_hello: {hs['server_hello_len']} B"
            f"  suite: {hs['cipher_suite']}\n"
        )
    return _format_table(rows) + tail


def _render_comparison_table(doc: dict) -> str:
    out = [f"baseline: {doc['baseline_label']}    candidate: {doc['candidate_label']}\n"]
    rows = [["percentile", "OF TCP-to-TLS", "OF TLS Handshake", "OF Combined", "COS (%)", "e2e overhead (%)"]]
    for p in doc["percentiles"]:
        rep = doc["reports"][p]
        rows.append(
            [
                p,
                f"{rep['overhead_factor']['tcp_to_tls']:.2f}",
                f"{rep['overhead_factor']['tls_handshake']:.2f}",
                f"{rep['of_combined']:.2f}",
                f"{rep['cos_percent']:.1f}",
                f"{rep['relative_e2e_overhead_percent']:.1f}",
            ]
        )
    out.append(_format_table(rows))
    rows = [["layer", "Glass's delta", "classification"]]
    for layer in LAYERS:
        es = doc["effect_size"][layer]
        delta = "n/a" if es["delta"] is None else f"{es['delta']:.2f}"
        rows.append([_LAYER_TITLES[layer], delta, es["classification"] or "n/a"])
    out.append("\n" + _format_table(rows))
    return "".join(out)


def render(doc: dict, fmt: str) -> str:
    if fmt == "json":
        return render_json(doc)
    if fmt == "csv":
        return render_csv(doc)
    if fmt == "table":
        return render_table(doc)
    raise ValueError(f"unknown format {fmt!r}")
