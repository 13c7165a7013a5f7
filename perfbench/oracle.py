"""Checks of `analyze` outputs against the synth ground truth.

Connections are matched to the truth by their SYN time, which the
workloads make unique; a connection whose recovered SYN time is wrong
therefore counts as a mismatch too.
"""

from __future__ import annotations

BOUNDARIES = ("t_syn", "t_synack", "t_clienthello", "t_client_finished", "t_http_get", "t_http_200")
STAT_FIELDS = ("count", "mean", "p50", "p90", "p95", "p99", "min", "max", "sd")
# Documents quantize milliseconds to three decimals.
_MS_TOLERANCE = 0.0005 + 1e-9


def connection_view(tl) -> tuple:
    """(validity, reason, six boundaries) of one analysed connection."""
    return (tl.validity, tl.reason) + tuple(getattr(tl, b) for b in BOUNDARIES)


def truth_view(ct) -> tuple:
    return (ct.validity, ct.reason) + tuple(ct.boundaries[b] for b in BOUNDARIES)


def compare_connections(views: list[tuple], truth) -> list[dict]:
    """Every truth connection, and every analysed one, that does not agree.

    ``views`` are `connection_view` tuples.  Returns one entry per
    disagreement with what was analysed (``got``) and what the truth says
    (``want``); an empty list means every connection matched exactly.
    """
    by_syn = {v[2]: v for v in views}
    mismatches = []
    if len(by_syn) != len(views):
        mismatches.append({"index": None, "got": "duplicate SYN times", "want": None})
    matched = set()
    for ct in truth.connections:
        want = truth_view(ct)
        got = by_syn.get(want[2])
        if got is not None:
            matched.add(want[2])
        if got != want:
            mismatches.append({"index": ct.index, "got": got, "want": want})
    for syn, view in by_syn.items():
        if syn not in matched:
            mismatches.append({"index": None, "got": view, "want": None})
    return mismatches


def compare_statistics(doc: dict, truth, summarize) -> list[str]:
    """Layer and e2e statistics of a document that differ from the truth's."""
    problems = []
    layers = {layer for ct in truth.connections for layer in ct.layers_ns} | set(doc.get("layers", {}))
    expected = {layer: truth.layer_samples_ms(layer) for layer in sorted(layers)}
    expected["e2e"] = truth.e2e_samples_ms()
    for name, samples in expected.items():
        got = doc.get("e2e") if name == "e2e" else doc.get("layers", {}).get(name)
        if not samples:
            if got:
                problems.append(f"{name}: document has statistics, truth has no samples")
            continue
        if not got:
            problems.append(f"{name}: missing from document")
            continue
        want = summarize(samples).as_dict()
        for f in STAT_FIELDS:
            if f == "count":
                bad = got.get(f) != want[f]
            else:
                bad = not isinstance(got.get(f), (int, float)) or abs(got[f] - want[f]) > _MS_TOLERANCE
            if bad:
                problems.append(f"{name}.{f}: document {got.get(f)!r}, truth {want[f]!r}")
    return problems


def tally_disagreements(counts: dict | None, tallies: dict) -> int:
    """Fewest connections that must differ for two validity/reason tallies."""
    if not counts:
        return tallies["total_streams"]

    def flat(t):
        out = {("valid", None): t.get("valid", 0)}
        for bucket in ("partial", "excluded"):
            out.update({(bucket, reason): n for reason, n in t.get(bucket, {}).items()})
        return out

    a, b = flat(counts), flat(tallies)
    return (sum(abs(a.get(k, 0) - b.get(k, 0)) for k in a.keys() | b.keys()) + 1) // 2
