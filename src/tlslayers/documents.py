"""Analysis and comparison documents plus their JSON/CSV/table renderings.

Documents are plain dicts with a fixed schema (see docs/schema/).  Written
JSON is canonical: sorted keys, and all floats quantized at build time
(milliseconds to 3 decimals, overhead factors and effect sizes to 2,
percentages to 1) so that rendering is byte-deterministic and round-trips
losslessly.  Canonical JSON never holds `NaN` or `Infinity`: `parse_document`
rejects a non-finite statistic, and `render_json` raises ValueError on a
non-finite value.
"""

from __future__ import annotations

import json
import math
from io import StringIO
from typing import TYPE_CHECKING

from tlslayers import __version__
from tlslayers.errors import TlsLayersError, ZeroBaseline, ZeroBaselineSD, ZeroDenominator
from tlslayers.metrics import (
    combined_overhead_factor,
    cryptographic_overhead_share,
    glass_delta,
    overhead_factor,
    relative_e2e_overhead,
)
from tlslayers.stats import PERCENTILE_FIELDS, STAT_FIELDS
from tlslayers.timeline import LAYERS

if TYPE_CHECKING:
    from tlslayers.pipeline import RunResult

ANALYSIS_SCHEMA = "tlslayers/analysis/v1"
COMPARISON_SCHEMA = "tlslayers/comparison/v1"

COS_MODE_LAYERSUM = "layersum"  # sum of the candidate's five same-percentile layer values
COS_MODE_E2E = "e2e"  # the candidate's measured per-connection e2e percentile
COS_MODES = (COS_MODE_LAYERSUM, COS_MODE_E2E)

DELTA_BASES = ("p50", "mean")


class IncompatibleDocuments(TlsLayersError):
    """Baseline and candidate do not share the layers needed to compare."""


def _round_ms(value: float) -> float:
    return round(value, 3)


def _stats_block(stats) -> dict:
    block = stats.as_dict()
    return {k: (v if k == "count" else _round_ms(v)) for k, v in block.items()}


def build_analysis_document(result: RunResult) -> dict:
    return {
        "schema": ANALYSIS_SCHEMA,
        "tool_version": __version__,
        "label": result.label,
        "decrypted": result.decrypted,
        "cos_denominator_mode": COS_MODE_LAYERSUM,  # compare --cos-denominator picks the mode it uses
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


def _entry(name: str, digits: int, formula, *args) -> float:
    """`formula(*args)` rounded to `digits` places, as the comparison document holds entry `name`.

    A ZeroBaseline or ZeroDenominator from the formula is raised again naming `name`;
    a result that is not a finite number, which JSON cannot hold, raises ValueError naming it.
    """
    try:
        value = formula(*args)
    except (ZeroBaseline, ZeroDenominator) as exc:
        raise type(exc)(f"{name}: {exc}") from exc
    if not math.isfinite(value):
        raise ValueError(f"{name}: not a finite number, which JSON cannot hold: {value}")
    return round(value, digits)


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
    if not percentiles or len(set(percentiles)) != len(percentiles):
        raise ValueError(f"need one or more distinct percentiles, got {list(percentiles)}")


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
        at = f"reports.{p}."
        cand = {layer: candidate["layers"][layer][p] for layer in LAYERS}
        base = {layer: baseline["layers"][layer][p] for layer in LAYERS}
        crypto = (cand["tcp_to_tls"], cand["tls_handshake"], base["tcp_to_tls"], base["tls_handshake"])
        denom = sum(cand.values()) if cos_denominator_mode == COS_MODE_LAYERSUM else candidate["e2e"][p]
        reports[p] = {
            "overhead_factor": {
                layer: _entry(f"{at}overhead_factor.{layer}", 2, overhead_factor, cand[layer], base[layer])
                for layer in LAYERS
            },
            "of_combined": _entry(at + "of_combined", 2, combined_overhead_factor, *crypto),
            "cos_percent": _entry(at + "cos_percent", 1, cryptographic_overhead_share, *crypto, denom),
            "relative_e2e_overhead_percent": _entry(
                at + "relative_e2e_overhead_percent", 1, relative_e2e_overhead, candidate["e2e"][p], baseline["e2e"][p]
            ),
        }
    deltas = {}
    for layer in LAYERS:
        base = baseline["layers"][layer]
        try:
            es = glass_delta(candidate["layers"][layer][delta_basis], base[delta_basis], base["sd"])
        except ZeroBaselineSD:
            deltas[layer] = {"delta": None, "classification": None}
            continue
        delta = _entry(f"effect_size.{layer}.delta", 2, lambda: es.delta)
        deltas[layer] = {"delta": delta, "classification": es.classification}
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
    """Canonical JSON text; ValueError on a value that is not a finite number."""
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"


def parse_document(text: str) -> dict:
    """Parse a document; ValueError if it is not one `compare` can read.

    An analysis document needs a string label, and each of its layer blocks,
    and its `e2e` and `ttlb` blocks unless null, must map every one of
    `STAT_FIELDS` to a finite number.
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
                raise ValueError(f"{name} block does not map {', '.join(STAT_FIELDS)} to finite numbers")
    return doc


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def _stat_blocks(doc: dict) -> list[tuple[str, dict]]:
    """An analysis document's statistics blocks as CSV and table list them: layers in order, then e2e."""
    blocks = [(layer, doc["layers"][layer]) for layer in LAYERS if layer in doc["layers"]]
    if doc.get("e2e"):
        blocks.append(("e2e", doc["e2e"]))
    return blocks


def render_csv(doc: dict) -> str:
    import csv

    buf = StringIO()
    w = csv.writer(buf, lineterminator="\n")
    if doc["schema"] == ANALYSIS_SCHEMA:
        w.writerow(["layer", "statistic", "value"])
        for name, block in _stat_blocks(doc):
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
    rows = [["layer", *STAT_FIELDS]]
    for name, block in _stat_blocks(doc):
        cells = [str(block[k]) if k == "count" else f"{block[k]:.3f}" for k in STAT_FIELDS]
        rows.append([_LAYER_TITLES[name], *cells])
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
