"""Outside-in per-layer trace of one in-process `analyze`.

The traced pass calls each module's public functions in pipeline order and
times them from outside.  To see inside the per-connection TLS walk it
wraps, for the walk only, the names `tlslayers.pipeline` imported from
`tlswire` and `keyschedule`; the wrappers are removed before anything else
runs.  Nothing in the program is edited.

Names are looked up at run time.  When a later version renames or reshapes
one, the layers that need it are reported as unmeasured and the rest of the
trace still runs.
"""

from __future__ import annotations

import gc
import statistics
import time
from pathlib import Path

import oracle

WALK_WRAPPED = {
    "parse_records": "parse_records",
    "parse_client_hello": "hello",
    "parse_server_hello": "hello",
    "derive_traffic_keys": "derive",
    "decrypt_record": "decrypt",
}


class Unmeasured(Exception):
    """A layer's entry point is missing or no longer fits the call."""


# What a renamed or reshaped entry point raises when called the old way.
_SHAPE_ERRORS = (Unmeasured, AttributeError, TypeError)


def _attr(module, name):
    fn = getattr(module, name, None)
    if fn is None:
        raise Unmeasured(f"{module.__name__}.{name} not found")
    return fn


def _maybe(fn):
    """fn() or None when the value's shape changed."""
    try:
        return fn()
    except (AttributeError, TypeError, KeyError, IndexError):
        return None


class _WalkProbe:
    """Timers and counters filled by the wrappers around the walk's callees."""

    def __init__(self, pipeline, errors):
        self.pipeline = pipeline
        self.auth_failure = getattr(errors, "AuthFailure", ())  # () catches nothing
        self.seconds = dict.fromkeys(WALK_WRAPPED.values(), 0.0)
        self.calls = dict.fromkeys(WALK_WRAPPED.values(), 0)
        self.records = 0
        self.auth_failures = 0
        self.saved: dict[str, object] = {}

    def _wrap(self, name, fn):
        bucket = WALK_WRAPPED[name]
        seconds, calls = self.seconds, self.calls
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            t = clock()
            try:
                out = fn(*args, **kwargs)
            except self.auth_failure:
                self.auth_failures += 1
                raise
            finally:
                seconds[bucket] += clock() - t
                calls[bucket] += 1
            if bucket == "parse_records":
                self.records += _maybe(lambda: len(out[0])) or 0
            return out

        return wrapper

    def __enter__(self):
        for name in WALK_WRAPPED:
            fn = getattr(self.pipeline, name, None)
            if fn is not None:
                self.saved[name] = fn
                setattr(self.pipeline, name, self._wrap(name, fn))
        return self

    def __exit__(self, *exc):
        for name, fn in self.saved.items():
            setattr(self.pipeline, name, fn)

    def seen(self, bucket):
        return any(WALK_WRAPPED[n] == bucket for n in self.saved)


def traced_pass(mods, inputs, workload) -> tuple[dict, list[str], list[tuple] | None]:
    """One traced analysis; returns (metrics, unmeasured notes, connection views)."""
    capture, decode, errors, keylog, reassembly, pipeline, documents = (
        mods[k] for k in ("capture", "decode", "errors", "keylog", "reassembly", "pipeline", "documents")
    )
    m: dict[str, float | int | None] = {}
    notes: list[str] = []
    clock = time.perf_counter
    frames = packets = store = conns = timelines = result = None
    t_start = clock()

    try:
        t = clock()
        frames = list(_attr(capture, "open_capture")(inputs.capture))
        m["capture.read_s"] = clock() - t
        m["capture.frames"] = len(frames)
        m["capture.bytes"] = _maybe(lambda: sum(len(f.data) for f in frames))
    except _SHAPE_ERRORS as exc:
        notes.append(f"capture: {exc}")

    try:
        if frames is None:
            raise Unmeasured("no frames")
        decode_frame = _attr(decode, "decode_frame")
        malformed_error = getattr(errors, "MalformedHeader", None) or _attr(errors, "TlsLayersError")
        t = clock()
        packets, non_tcp, malformed = [], 0, 0
        for frame in frames:
            try:
                pkt = decode_frame(frame)
            except malformed_error:
                malformed += 1
                continue
            if pkt is None:
                non_tcp += 1
                continue
            packets.append(pkt)
        m["decode.decode_s"] = clock() - t
        m["decode.packets"] = len(packets)
        m["decode.skipped"] = non_tcp + malformed
        m["decode.payload_bytes"] = _maybe(lambda: sum(len(p.payload) for p in packets))
    except _SHAPE_ERRORS as exc:
        notes.append(f"decode: {exc}")

    try:
        t = clock()
        store = _attr(keylog, "parse_keylog")(Path(inputs.keylog).read_text())
        m["keylog.parse_s"] = clock() - t
        m["keylog.entries"] = _maybe(lambda: len(store))
        m["keylog.rejected_lines"] = _maybe(lambda: store.malformed_lines + store.unknown_labels)
    except _SHAPE_ERRORS as exc:
        notes.append(f"keylog: {exc}")

    try:
        if packets is None:
            raise Unmeasured("no packets")
        assemble = _attr(reassembly, "assemble_connections")
        t = clock()
        conns = assemble(packets)
        conns.sort(key=lambda c: c.sort_key())
        m["reassembly.assemble_s"] = clock() - t
        m["reassembly.connections"] = len(conns)
        stream_bytes = _maybe(lambda: sum(len(c.client_to_server) + len(c.server_to_client) for c in conns))
        m["reassembly.stream_bytes"] = stream_bytes
        payload = m.get("decode.payload_bytes")
        m["reassembly.useful_ratio"] = stream_bytes / payload if stream_bytes is not None and payload else None
        m["reassembly.anomalies"] = _maybe(lambda: sum(len(c.anomalies) for c in conns))
    except _SHAPE_ERRORS as exc:
        conns = None
        notes.append(f"reassembly: {exc}")

    try:
        if conns is None or store is None:
            raise Unmeasured("no connections or key log")
        analyze_connection = _attr(pipeline, "analyze_connection")
        with _WalkProbe(pipeline, errors) as probe:
            t = clock()
            timelines = [analyze_connection(c, store) for c in conns]
            walk_s = clock() - t
        m["pipeline.walk_s"] = walk_s
        missing = [name for name in WALK_WRAPPED if name not in probe.saved]
        notes += [f"pipeline.{name} not found: its time counts as walk self time" for name in missing]
        child_s = 0.0
        for bucket, prefix in (("parse_records", "tlswire.parse_records"), ("hello", "tlswire.hello"),
                               ("derive", "keyschedule.derive"), ("decrypt", "keyschedule.decrypt")):
            if probe.seen(bucket):
                m[f"{prefix}_s"] = probe.seconds[bucket]
                child_s += probe.seconds[bucket]
        if probe.seen("parse_records"):
            m["tlswire.records"] = probe.records
        if probe.seen("derive"):
            m["keyschedule.derive_calls"] = probe.calls["derive"]
        if probe.seen("decrypt"):
            m["keyschedule.decrypt_calls"] = probe.calls["decrypt"]
            m["keyschedule.auth_failures"] = probe.auth_failures
            if probe.records:
                m["pipeline.decrypt_ratio"] = probe.calls["decrypt"] / probe.records
        if not missing:
            m["pipeline.walk_self_s"] = walk_s - child_s
    except _SHAPE_ERRORS as exc:
        timelines = None
        notes.append(f"walk: {exc}")

    try:
        if timelines is None:
            raise Unmeasured("no timelines")
        ingest = {"frames": len(frames), "non_tcp_frames": non_tcp, "malformed_frames": malformed}
        input_hashes = {
            "pcap_sha256": inputs.provenance["capture_sha256"],
            "keylog_sha256": inputs.provenance["keylog_sha256"],
        }
        t = clock()
        result = _attr(pipeline, "summarize_run")(
            timelines, workload.family.name, decrypted=True, ingest=ingest, inputs=input_hashes
        )
        m["pipeline.summarize_s"] = clock() - t
    except _SHAPE_ERRORS as exc:
        result = None
        notes.append(f"summarize: {exc}")
    traced_total = clock() - t_start

    stages = ("capture.read_s", "decode.decode_s", "keylog.parse_s", "reassembly.assemble_s",
              "pipeline.walk_s", "pipeline.summarize_s")
    if all(m.get(s) is not None for s in stages):
        m["trace.stage_sum_s"] = sum(m[s] for s in stages)
        m["trace.total_s"] = traced_total

    try:
        if result is None:
            raise Unmeasured("no run result")
        build, render = _attr(documents, "build_analysis_document"), _attr(documents, "render_json")
        t = clock()
        render(build(result))
        m["documents.render_s"] = clock() - t
    except _SHAPE_ERRORS as exc:
        notes.append(f"documents: {exc}")

    try:
        if conns is None or store is None:
            raise Unmeasured("no connections or key log")
        t = clock()
        _attr(pipeline, "analyze_connections")(conns, store, workload.family.name, workers=workload.workers)
        m["pipeline.pool_s"] = clock() - t
        if m.get("pipeline.walk_s"):
            m["pipeline.pool_speedup"] = m["pipeline.walk_s"] / m["pipeline.pool_s"]
    except _SHAPE_ERRORS as exc:
        notes.append(f"pool: {exc}")

    views = _maybe(lambda: [oracle.connection_view(tl) for tl in timelines]) if timelines else None
    return m, notes, views


def untraced_pass(mods, inputs, workload) -> tuple[float, list[tuple]]:
    """Wall time and connection views of one plain `pipeline.analyze_capture`."""
    analyze_capture = _attr(mods["pipeline"], "analyze_capture")
    t = time.perf_counter()
    result = analyze_capture(inputs.capture, inputs.keylog, workload.family.name, workers=1)
    elapsed = time.perf_counter() - t
    return elapsed, [oracle.connection_view(tl) for tl in result.timelines]


def run(mods, inputs, workload, seconds: float) -> dict:
    """Alternate untraced and traced passes for ``seconds``; medians per metric.

    ``mismatches`` is None when neither pass produced per-connection results.
    """
    passes: list[dict] = []
    notes: list[str] = []
    mismatches = None
    consistent = True
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        gc.collect()
        try:
            untraced_s, plain_views = untraced_pass(mods, inputs, workload)
        except _SHAPE_ERRORS as exc:
            untraced_s, plain_views, untraced_note = None, None, f"untraced: {exc}"
        gc.collect()
        metrics, notes, views = traced_pass(mods, inputs, workload)
        traced_total = metrics.pop("trace.total_s", None)
        if untraced_s is None:
            notes.append(untraced_note)
        else:
            metrics["trace.untraced_s"] = untraced_s
            if traced_total is not None:
                metrics["trace.overhead_s"] = traced_total - untraced_s
                metrics["trace.coverage"] = metrics["trace.stage_sum_s"] / untraced_s
        passes.append(metrics)
        if views is not None and plain_views is not None and views != plain_views:
            consistent = False
        checked = plain_views if plain_views is not None else views
        if checked is not None:
            mismatches = oracle.compare_connections(checked, inputs.truth)
    merged = {}
    for name in passes[0]:
        values = [p[name] for p in passes if p.get(name) is not None]
        if values:
            merged[name] = statistics.median(values)
    return {
        "metrics": merged,
        "passes": len(passes),
        "unmeasured": notes,
        "traced_matches_untraced": consistent,
        "mismatches": mismatches,
    }
