#!/usr/bin/env python3
"""Benchmark of `tlslayers analyze` on seeded synthetic captures.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a source tree; the program is imported from ``src/``.
Each run first writes the workload's capture and key log from ``--seed``
(see workloads.py) and records their provenance, then:

- ``--trace 0`` runs the real CLI (``analyze --pcap --keylog --out
  --format json``) as a subprocess, one at a time, for ``--seconds``.  Each
  iteration also times two ``--version`` runs (interpreter plus package
  import: ``setup_s``) and a fixed reference loop that scales the timings
  for host drift (see REF_S).  Wall time, CPU time and peak RSS of the
  process tree come from ``wait4``.
  Every document must hash the same, and the same as an in-process
  workers=1 analysis of the same files, whose per-connection results are
  then checked against the synth ground truth; the document's statistics
  are checked against ``summarize()`` of the truth samples.
- ``--trace 1`` alternates an untraced and a traced in-process analysis for
  ``--seconds`` and reports per-layer medians (see layertrace.py).
- ``all`` runs both modes for every workload and prints one table.

The last line of standard output is one JSON object with ``correct``,
``attempted`` and ``failed`` (the workload's connections, each counted once
however many timed runs fitted in the window: a connection whose validity,
reason or any of its six boundaries differs from the truth fails, and all
fail if any run exits non-zero or its document hash differs) and
``metrics``.  The full run report, with per-sample values and
input provenance, is written under ``perfbench/work/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"

import layertrace  # noqa: E402
import oracle  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402

# This host's speed drifts by tens of percent over minutes and moves every
# wall and CPU time alike.  Timings are therefore reported for a host on
# which reference_loop() takes REF_S: each sample is multiplied by REF_S
# over the mean of the reference times measured just before and after it,
# and the run reports the median of the scaled samples.
# The measured values are printed next to them and kept in the run report.
REF_S = 0.1
MODULES = ("capture", "decode", "errors", "keylog", "reassembly", "pipeline", "documents", "stats", "synth")


def _load_program() -> dict:
    """Import the package from this tree's src/ (never an installed copy)."""
    if not (SRC / "tlslayers" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source at {SRC}")
    sys.path.insert(0, str(SRC))
    mods = {name: importlib.import_module(f"tlslayers.{name}") for name in MODULES}
    if Path(mods["pipeline"].__file__).resolve().parent != SRC / "tlslayers":
        raise SystemExit(f"perfbench: tlslayers imported from {mods['pipeline'].__file__}, not {SRC}")
    return mods


def reference_loop() -> float:
    """Seconds for a fixed 1M-step pure-Python loop; tracks how fast the host is now.

    Timed as five 200k-step chunks whose median is scaled up, so that one
    preemption does not stand for the host's speed.
    """
    chunks = []
    for _ in range(5):
        t = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc = (acc + i * i) % 1_000_003
        chunks.append(time.perf_counter() - t)
    return 5 * statistics.median(chunks)


def spawn(cmd: list[str], env: dict, stderr_path: Path) -> dict:
    """Run one subprocess to exit; wall time and the process tree's rusage."""
    with stderr_path.open("wb") as err:
        t = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err)
        _, status, ru = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "cpu_s": ru.ru_utime + ru.ru_stime,
        "maxrss_mib": ru.ru_maxrss / 1024,  # KiB on Linux
        "exit": proc.returncode,
    }


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def inprocess_check(mods, workload, inputs) -> tuple[str | None, list | None, list[str]]:
    """Analyse the same files in this process with one worker.

    Returns the document hash every CLI run must reproduce and the
    per-connection disagreements with the truth.  The canonical document
    holds no per-connection results, so this is where they come from; the
    hash ties them to the CLI runs.  If the entry points have changed shape,
    both are None and a note says why.
    """
    try:
        result = mods["pipeline"].analyze_capture(inputs.capture, inputs.keylog, workload.family.name, workers=1)
        documents = mods["documents"]
        sha = _sha256(documents.render_json(documents.build_analysis_document(result)).encode())
        views = [oracle.connection_view(tl) for tl in result.timelines]
    except (AttributeError, TypeError) as exc:
        return None, None, [f"per-connection check: {exc!r}"]
    return sha, oracle.compare_connections(views, inputs.truth), []


def check_document(mods, doc: dict, inputs, notes: list[str]) -> list[str]:
    """Problems with a CLI document: statistics against the truth, input hashes."""
    problems = []
    summarize = getattr(mods["stats"], "summarize", None)
    if summarize is None:
        notes.append("statistics check: tlslayers.stats.summarize not found")
    else:
        problems += oracle.compare_statistics(doc, inputs.truth, summarize)
    got = doc.get("inputs", {})
    prov = inputs.provenance
    if (got.get("pcap_sha256"), got.get("keylog_sha256")) != (prov["capture_sha256"], prov["keylog_sha256"]):
        problems.append("document input hashes differ from the generated files")
    return problems


def measure_cli(mods, workload, inputs, seconds: float, run_dir: Path) -> dict:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    cli = [sys.executable, "-m", "tlslayers.cli"]
    out = run_dir / "analysis.json"
    analyze = cli + [
        "analyze", "--pcap", str(inputs.capture), "--keylog", str(inputs.keylog),
        "--label", workload.family.name, "--workers", str(workload.workers),
        "--out", str(out), "--format", "json",
    ]
    stderr = run_dir / "stderr.txt"
    spawn(cli + ["--version"], env, stderr)  # writes bytecode caches before any timing

    # setups holds (wall_s, index of the sample it was timed with).
    samples, setups, hashes = [], [], []
    refs = [reference_loop()]
    first_doc = None
    start = time.perf_counter()
    while not samples or time.perf_counter() - start < seconds:
        setups += [(spawn(cli + ["--version"], env, stderr)["wall_s"], len(samples)) for _ in range(2)]
        out.unlink(missing_ok=True)
        s = spawn(analyze, env, stderr)
        if s["exit"] == 0 and out.is_file():
            data = out.read_bytes()
            hashes.append(_sha256(data))
            first_doc = first_doc or data
        else:
            hashes.append(None)
            s["stderr"] = stderr.read_text()[-2000:]
        samples.append(s)
        refs.append(reference_loop())
    while len(setups) < 5:
        setups.append((spawn(cli + ["--version"], env, stderr)["wall_s"], len(samples) - 1))

    inprocess_sha, mismatches, notes = inprocess_check(mods, workload, inputs)
    expected_sha = inprocess_sha or next((h for h in hashes if h), None)
    problems = []
    n = len(inputs.truth.connections)
    bad_runs = sum(1 for h in hashes if h is None or h != expected_sha)
    if bad_runs:
        problems.append(f"{bad_runs} of {len(hashes)} runs failed or produced a document other than {expected_sha}")
    doc = json.loads(first_doc) if first_doc is not None else {}
    if first_doc is not None:
        problems += check_document(mods, doc, inputs, notes)
    if mismatches is None:
        # Without per-connection results, the tallies give a lower bound.
        per_run_failed = oracle.tally_disagreements(doc.get("counts"), inputs.truth.tallies)
    else:
        per_run_failed = len(mismatches)
    # Each connection counts once, however many timed runs fitted in the
    # window: a run that reproduces the checked document adds no new outcome,
    # and one that does not fails every connection.
    failed = n if bad_runs else min(n, per_run_failed)
    attempted = n
    measured = {
        "analyze_s": statistics.median(s["wall_s"] for s in samples),
        "cpu_s": statistics.median(s["cpu_s"] for s in samples),
        "setup_s": statistics.median(w for w, _ in setups),
    }
    capture_mb = inputs.provenance["capture_bytes"] / 1e6
    measured["capture_mb_per_s"] = capture_mb / measured["analyze_s"]
    # refs[i] and refs[i + 1] were taken just before and after sample i.
    scales = [REF_S / ((refs[i] + refs[i + 1]) / 2) for i in range(len(samples))]
    analyze_s = statistics.median(s["wall_s"] * k for s, k in zip(samples, scales))
    metrics = {
        "analyze_s": (analyze_s, "s"),
        "capture_mb_per_s": (capture_mb / analyze_s, "MB/s"),
        "cpu_s": (statistics.median(s["cpu_s"] * k for s, k in zip(samples, scales)), "s"),
        "peak_rss_mib": (statistics.median(s["maxrss_mib"] for s in samples), "MiB"),
        "setup_s": (statistics.median(w * scales[i] for w, i in setups), "s"),
    }
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "report": {
            "samples": samples,
            "setup_s": setups,
            "host_ref_s": refs,
            "host_scales": scales,
            "measured": measured,
            "document_sha256": expected_sha,
            "run_hashes": hashes,
            "mismatch_ratio": failed / attempted,
            "mismatches": (mismatches or [])[:20],
            "truth_tallies": inputs.truth.tallies,
            "document_tallies": doc.get("counts"),
            "unmeasured": notes,
            "problems": problems,
        },
    }


def trace_run(mods, workload, inputs, seconds: float) -> dict:
    out = layertrace.run(mods, inputs, workload, seconds)
    n = len(inputs.truth.connections)
    problems = []
    if not out["traced_matches_untraced"]:
        problems.append("traced and untraced passes disagree on some connection")
    if out["mismatches"] is None:
        problems.append("no pass produced per-connection results to check")
    units = {}
    for name in out["metrics"]:
        units[name] = "s" if name.endswith("_s") else (
            "B" if name.endswith("bytes") else "ratio" if name.endswith(("_ratio", "_speedup", "coverage")) else "count"
        )
    return {
        "correct": not problems,
        "attempted": n,
        "failed": min(n, len(out["mismatches"] or ())),
        "metrics": {k: (v, units[k]) for k, v in out["metrics"].items()},
        "report": {
            "passes": out["passes"],
            "unmeasured": out["unmeasured"],
            "mismatches": (out["mismatches"] or [])[:20],
            "problems": problems,
        },
    }


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    mods = _load_program()
    workload = WORKLOADS[name]
    run_dir = WORK / f"{name}-s{seed}-t{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        inputs = generate(mods["synth"], workload, seed, run_dir)
        if trace:
            result = trace_run(mods, workload, inputs, seconds)
        else:
            result = measure_cli(mods, workload, inputs, seconds, run_dir)
    finally:
        for leftover in ("capture.pcap", "keylog.txt", "analysis.json"):
            (run_dir / leftover).unlink(missing_ok=True)
    report = {"provenance": inputs.provenance, **result["report"]}
    (run_dir / "report.json").write_text(json.dumps(report, indent=2, default=str) + "\n")

    prov = inputs.provenance
    print(f"perfbench {name} seed={seed} workers={workload.workers} trace={int(trace)}: "
          f"{prov['connections']} connections, {prov['frames']} frames, {prov['capture_bytes'] / 1e6:.1f} MB")
    print(f"  capture sha256 {prov['capture_sha256']}  keylog sha256 {prov['keylog_sha256']}")
    measured = result["report"].get("measured", {})
    for metric, (value, unit) in result["metrics"].items():
        note = f"  (measured {measured[metric]:.6g})" if metric in measured else ""
        print(f"  {metric:28s} {value:14.6g} {unit}{note}")
    print(f"  {'mismatch_ratio':28s} {result['failed'] / result['attempted']:14.6g} fraction "
          f"({result['failed']}/{result['attempted']} connections)")
    if not trace:
        print(f"  document sha256 {result['report']['document_sha256']}")
        refs = result["report"]["host_ref_s"]
        print(f"  host reference loop {statistics.mean(refs) * 1e3:.1f} ms mean "
              f"({min(refs) * 1e3:.1f}-{max(refs) * 1e3:.1f}, n={len(refs)}); "
              f"timings scaled per sample by {statistics.mean(result['report']['host_scales']):.4f} "
              f"on average to a {REF_S * 1e3:.0f} ms host")
    for note in result["report"].get("unmeasured", []):
        print(f"  unmeasured: {note}")
    for problem in result["report"]["problems"]:
        print(f"  PROBLEM: {problem}")
    print(f"  report: {(run_dir / 'report.json').relative_to(ROOT)}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }))
    return 0


def run_all(seed: int, seconds: float) -> int:
    """Both modes for every workload, each in its own process; one table."""
    rows, overall = [], {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                stdout=subprocess.PIPE, text=True,
            )
            sys.stdout.write(proc.stdout)
            if proc.returncode != 0:
                return proc.returncode
            last = json.loads(proc.stdout.strip().splitlines()[-1])
            overall["correct"] &= last["correct"]
            overall["attempted"] += last["attempted"]
            overall["failed"] += last["failed"]
            for metric, v in last["metrics"].items():
                overall["metrics"][f"{name}.{metric}"] = v
                rows.append((name, metric, v["value"], v["unit"]))
            rows.append((name, "mismatch_ratio" if not trace else "trace.mismatch_ratio",
                         last["failed"] / last["attempted"], "fraction"))
    print()
    print(f"{'workload':14s} {'metric':30s} {'value':>14s} unit")
    for name, metric, value, unit in rows:
        print(f"{name:14s} {metric:30s} {value:14.6g} {unit}")
    print(json.dumps(overall))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
