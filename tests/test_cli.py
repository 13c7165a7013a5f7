"""CLI contract: subcommands, exit codes, degraded mode, worker determinism."""

import gc
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import pytest

import tlslayers
from tlslayers import synth
from tlslayers.cli import main
from tlslayers.documents import parse_document
from tlslayers.timeline import LAYERS

from reference_runs import analysis_document_for


SCENARIO_YAML = """\
defaults:
  group: x25519
  response_body_bytes: 4096
connections:
  - boundary_times_ns: [0, 360000, 654000, 6201000, 6727000, 15798000]
    segmentation_seed: 1
  - boundary_times_ns: [1000000000, 1000390000, 1002256000, 1008135000, 1009126000, 1018006000]
    segmentation_seed: 2
  - boundary_times_ns: [2000000000, 2000390000, 2002256000, 2008135000, 2009126000, 2018006000]
    segmentation_seed: 3
    anomalies: [drop_keylog]
"""


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("fixtures")
    scenario = out / "scenario.yaml"
    scenario.write_text(SCENARIO_YAML)
    code = main(["synth", "--spec", str(scenario), "--out", str(out)])
    assert code == 0
    return out


def test_synth_writes_expected_files(fixture_dir):
    assert (fixture_dir / "capture.pcap").exists()
    assert (fixture_dir / "keylog.txt").exists()
    truth = json.loads((fixture_dir / "ground_truth.json").read_text())
    assert truth["tallies"]["total_streams"] == 3


def test_analyze_writes_document_and_exits_zero(fixture_dir, tmp_path, capsys):
    out = tmp_path / "run.json"
    code = main([
        "analyze",
        "--pcap", str(fixture_dir / "capture.pcap"),
        "--keylog", str(fixture_dir / "keylog.txt"),
        "--label", "demo",
        "--out", str(out),
    ])
    assert code == 0
    doc = parse_document(out.read_text())
    assert doc["label"] == "demo"
    assert doc["counts"] == {
        "total_streams": 3, "valid": 2, "partial": {"no_keys": 1}, "excluded": {},
    }
    assert capsys.readouterr().out  # console summary printed


def test_analyze_worker_count_does_not_change_output(fixture_dir, tmp_path, capsys):
    outputs = []
    for workers in (None, 1, 2, 8):
        out = tmp_path / f"run-{workers}.json"
        argv = [
            "analyze",
            "--pcap", str(fixture_dir / "capture.pcap"),
            "--keylog", str(fixture_dir / "keylog.txt"),
            "--label", "demo",
            "--out", str(out),
        ]
        if workers is not None:
            argv += ["--workers", str(workers)]
        assert main(argv) == 0
        warned = "warning: --workers is deprecated and ignored\n" in capsys.readouterr().err
        assert warned == (workers not in (None, 1))
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2] == outputs[3]


# the environment of a fresh interpreter that imports the package under test
SUBPROCESS_ENV = {**os.environ, "PYTHONPATH": str(Path(tlslayers.__file__).resolve().parent.parent)}


def _loaded_after_import(modules: str, names: tuple[str, ...]) -> list[str]:
    """Which of `names` a fresh interpreter holds in sys.modules after `import <modules>`."""
    code = f"import sys, {modules}, json; print(json.dumps([m for m in {names!r} if m in sys.modules]))"
    proc = subprocess.run([sys.executable, "-c", code], env=SUBPROCESS_ENV, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def test_cli_import_loads_no_process_pool():
    """Nor the pipeline or synth, so `--version` and `compare` load neither cryptography nor yaml."""
    absent = (
        "multiprocessing", "concurrent.futures", "cryptography", "yaml", "tlslayers.synth",
        "tlslayers.pipeline", "tlslayers.reassembly", "tlslayers.tlswire", "tlslayers.keyschedule",
    )
    assert _loaded_after_import("tlslayers.cli", absent) == []


@pytest.mark.parametrize("modules", ["tlslayers.cli", "tlslayers.cli, tlslayers.pipeline"])
def test_start_up_loads_no_dataclasses_or_logging(modules):
    """Every command pays this import; `logging` loads only when a warning fires."""
    assert _loaded_after_import(modules, ("dataclasses", "logging")) == []


def test_warnings_reach_stderr(tmp_path):
    """The warnings of a run that skips input still print, worded as before, though `logging` loads late."""
    from conftest import clean_connection_spec

    frames, keylog_text, _ = synth.generate(synth.ScenarioSpec(connections=(clean_connection_spec(),)))
    bad_ihl = frames[0]._replace(data=frames[0].data[:14] + b"\x42" + frames[0].data[15:])
    capture, keylog = tmp_path / "capture.pcap", tmp_path / "keylog.txt"
    synth.emit_capture([*frames, bad_ihl], capture)
    with capture.open("ab") as fh:
        fh.write(struct.pack("<IIII", 9, 0, 100, 100) + b"cut")  # body shorter than caplen
    keylog.write_text(keylog_text)
    proc = subprocess.run(
        [sys.executable, "-m", "tlslayers.cli", "analyze", "--pcap", str(capture), "--keylog", str(keylog)],
        env=SUBPROCESS_ENV, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines() == [
        f"{capture}: truncated trailing record body, skipping",
        f"{capture}: 1 malformed frames skipped",
    ]


def test_non_utf8_keylog_line_is_rejected_alone(fixture_dir, tmp_path):
    clean, dirty = tmp_path / "clean.json", tmp_path / "dirty.json"
    keylog = tmp_path / "keylog.txt"
    keylog.write_bytes((fixture_dir / "keylog.txt").read_bytes() + b"CLIENT_RANDOM \xff\xfe junk\n")
    for out, log in ((clean, fixture_dir / "keylog.txt"), (dirty, keylog)):
        argv = ["analyze", "--pcap", str(fixture_dir / "capture.pcap"), "--keylog", str(log), "--out", str(out)]
        assert main(argv) == 0
    clean_doc, dirty_doc = parse_document(clean.read_text()), parse_document(dirty.read_text())
    assert dirty_doc["inputs"]["keylog_sha256"] != clean_doc["inputs"]["keylog_sha256"]
    del clean_doc["inputs"]["keylog_sha256"], dirty_doc["inputs"]["keylog_sha256"]
    assert dirty_doc == clean_doc


def test_bad_keylog_fails_before_the_capture_is_read(tmp_path, monkeypatch, capsys):
    def no_capture(*args, **kwargs):
        raise AssertionError("the capture was opened before the key log was read")

    monkeypatch.setattr("tlslayers.pipeline.map_capture", no_capture)
    keylog = tmp_path / "missing-keylog.txt"
    # the capture is missing too: hashing it first would name it instead
    code = main(["analyze", "--pcap", str(tmp_path / "missing.pcap"), "--keylog", str(keylog)])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: {keylog}: ")


def test_analyze_without_keylog_is_degraded_but_ok(fixture_dir, tmp_path, capsys):
    out = tmp_path / "nodecrypt.json"
    code = main([
        "analyze",
        "--pcap", str(fixture_dir / "capture.pcap"),
        "--label", "nodecrypt",
        "--out", str(out),
    ])
    assert code == 0
    doc = parse_document(out.read_text())
    assert doc["decrypted"] is False
    assert set(doc["layers"]) == {"tcp_handshake", "tcp_to_tls"}
    assert doc["e2e"] is None
    assert doc["counts"]["valid"] == 0


def test_analyze_unreadable_input_exits_2(tmp_path):
    assert main(["analyze", "--pcap", str(tmp_path / "missing.pcap")]) == 2
    bad = tmp_path / "bad.pcap"
    bad.write_bytes(b"\x00" * 64)
    assert main(["analyze", "--pcap", str(bad)]) == 2


def _non_tcp_capture(path: Path) -> Path:
    """A pcap whose one frame is ARP: no TCP connection to measure."""
    with path.open("wb") as fh:
        fh.write(struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 1))
        arp = b"\xff" * 6 + b"\x02" * 6 + b"\x08\x06" + bytes(28)
        fh.write(struct.pack("<IIII", 1, 0, len(arp), len(arp)))
        fh.write(arp)
    return path


def test_analyze_zero_usable_streams_exits_3(tmp_path):
    assert main(["analyze", "--pcap", str(_non_tcp_capture(tmp_path / "nontcp.pcap"))]) == 3


@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
@pytest.mark.parametrize("code", [0, 2, 3])
def test_analyze_pauses_the_collector_and_restores_it(fixture_dir, tmp_path, monkeypatch, code, enabled):
    """The run itself sees the cyclic collector off; the caller gets back the state it had, whatever the exit."""
    from tlslayers import pipeline

    unreadable = tmp_path / "bad.pcap"
    unreadable.write_bytes(bytes(64))
    argv = {
        0: ["--pcap", str(fixture_dir / "capture.pcap"), "--keylog", str(fixture_dir / "keylog.txt")],
        2: ["--pcap", str(unreadable)],
        3: ["--pcap", str(_non_tcp_capture(tmp_path / "nontcp.pcap"))],
    }[code]
    during = []
    analyze_capture = pipeline.analyze_capture

    def observed(*args):
        during.append(gc.isenabled())
        return analyze_capture(*args)

    monkeypatch.setattr(pipeline, "analyze_capture", observed)
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        assert main(["analyze", *argv]) == code
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert during == [False]


def test_the_cli_process_flushes_its_output_before_it_exits(fixture_dir, tmp_path):
    """`entrypoint` freezes the collector before `sys.exit`; stdout and stderr still reach the caller whole."""
    # block-buffered, as a pipe is by default: only the exit path flushes what the run wrote
    env = {k: v for k, v in SUBPROCESS_ENV.items() if k != "PYTHONUNBUFFERED"}
    out = tmp_path / "run.json"
    cli = [sys.executable, "-m", "tlslayers.cli", "analyze"]
    proc = subprocess.run(
        [*cli, "--pcap", str(fixture_dir / "capture.pcap"), "--keylog", str(fixture_dir / "keylog.txt"),
         "--format", "json", "--out", str(out)],
        env=env, capture_output=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == out.read_bytes()
    unreadable = tmp_path / "bad.pcap"
    unreadable.write_bytes(bytes(64))
    proc = subprocess.run([*cli, "--pcap", str(unreadable)], env=env, capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith(f"error: {unreadable}: ") and proc.stderr.endswith("\n"), proc.stderr


def test_malformed_hello_does_not_abort_the_run(tmp_path):
    from conftest import clean_connection_spec, decode_segment

    spec = synth.ScenarioSpec(connections=(
        clean_connection_spec(seed=1),
        clean_connection_spec(offset_ns=1_000_000_000, seed=2),
    ))
    frames, keylog_text, _ = synth.generate(spec)
    hello_frames = [
        i for i, f in enumerate(frames)
        if (pkt := decode_segment(f)) is not None and pkt.payload.startswith(b"\x16\x03\x01")
    ]
    assert len(hello_frames) == 2
    # shrink the second ClientHello's handshake length to 10 bytes: too short to parse
    i = max(hello_frames, key=lambda j: frames[j].timestamp_ns)
    data = bytearray(frames[i].data)
    at = len(data) - len(decode_segment(frames[i]).payload) + 6
    data[at : at + 3] = (10).to_bytes(3, "big")
    frames[i] = frames[i]._replace(data=bytes(data))
    synth.emit_capture(frames, tmp_path / "capture.pcap")
    (tmp_path / "keylog.txt").write_text(keylog_text)
    out = tmp_path / "run.json"
    code = main([
        "analyze",
        "--pcap", str(tmp_path / "capture.pcap"),
        "--keylog", str(tmp_path / "keylog.txt"),
        "--out", str(out),
    ])
    assert code == 0
    assert parse_document(out.read_text())["counts"] == {
        "total_streams": 2, "valid": 1, "partial": {"malformed_hello": 1}, "excluded": {},
    }


def test_compare_self_and_output(fixture_dir, tmp_path, capsys):
    run = tmp_path / "run.json"
    assert main([
        "analyze",
        "--pcap", str(fixture_dir / "capture.pcap"),
        "--keylog", str(fixture_dir / "keylog.txt"),
        "--label", "self",
        "--out", str(run),
    ]) == 0
    capsys.readouterr()
    comp_path = tmp_path / "comp.json"
    code = main([
        "compare",
        "--baseline", str(run),
        "--candidate", str(run),
        "--percentiles", "p50,p95,p99",
        "--out", str(comp_path),
        "--format", "json",
    ])
    assert code == 0
    doc = parse_document(comp_path.read_text())
    assert doc["percentiles"] == ["p50", "p95", "p99"]
    for rep in doc["reports"].values():
        assert rep["of_combined"] == 1.0
        assert rep["cos_percent"] == 0.0


# the same three connections with a slower key exchange: the TLS handshake and the
# delay before it grow by different amounts per connection
CANDIDATE_YAML = """\
defaults:
  group: x25519_mlkem768
  response_body_bytes: 4096
connections:
  - boundary_times_ns: [0, 360000, 854000, 7601000, 8127000, 17198000]
    segmentation_seed: 4
  - boundary_times_ns: [1000000000, 1000390000, 1002356000, 1010335000, 1011326000, 1020206000]
    segmentation_seed: 5
  - boundary_times_ns: [2000000000, 2000390000, 2002656000, 2009135000, 2010126000, 2019006000]
    segmentation_seed: 6
    anomalies: [drop_keylog]
"""


@pytest.fixture(scope="module")
def run_pair(fixture_dir, tmp_path_factory):
    """(baseline, candidate) analysis documents from two captures."""
    out = tmp_path_factory.mktemp("candidate")
    (out / "scenario.yaml").write_text(CANDIDATE_YAML)
    assert main(["synth", "--spec", str(out / "scenario.yaml"), "--out", str(out)]) == 0
    docs = []
    for name, src in (("baseline", fixture_dir), ("candidate", out)):
        doc = out / f"{name}.json"
        assert main(["analyze", "--pcap", str(src / "capture.pcap"), "--keylog", str(src / "keylog.txt"),
                     "--label", name, "--out", str(doc)]) == 0
        docs.append(doc)
    return tuple(docs)


def test_compare_csv_lists_every_percentile_and_effect_size(run_pair, capsys):
    baseline, candidate = run_pair
    capsys.readouterr()
    code = main(["compare", "--baseline", str(baseline), "--candidate", str(candidate),
                 "--percentiles", "p50,p95", "--format", "csv"])
    assert code == 0
    header, *rows = [line.split(",") for line in capsys.readouterr().out.splitlines()]
    assert header == ["percentile", "metric", "layer", "value"]
    per_percentile = {p: sum(row[0] == p for row in rows) for p in ("p50", "p95")}
    assert per_percentile == {"p50": 8, "p95": 8}  # five overhead factors, OF Combined, COS, e2e
    deltas = [row for row in rows if row[1] == "glass_delta"]
    assert [row[:3] for row in deltas] == [["", "glass_delta", layer] for layer in LAYERS]
    assert all(row[3] for row in deltas)  # a number, not the empty cell of a zero-SD baseline
    assert len(rows) == 16 + 5


def test_compare_cos_denominator_e2e_divides_by_the_candidate_e2e(run_pair, tmp_path, capsys):
    baseline, candidate = run_pair
    base, cand = (parse_document(path.read_text()) for path in run_pair)
    out = tmp_path / "comp.json"
    code = main(["compare", "--baseline", str(baseline), "--candidate", str(candidate),
                 "--percentiles", "p50", "--cos-denominator", "e2e", "--out", str(out), "--format", "json"])
    assert code == 0
    capsys.readouterr()
    doc = parse_document(out.read_text())
    assert doc["cos_denominator_mode"] == "e2e"

    def excess(layer):
        return cand["layers"][layer]["p50"] - base["layers"][layer]["p50"]

    by_hand = 100 * (excess("tcp_to_tls") + excess("tls_handshake")) / cand["e2e"]["p50"]
    layer_sum = 100 * (excess("tcp_to_tls") + excess("tls_handshake")) / sum(
        cand["layers"][layer]["p50"] for layer in LAYERS
    )
    assert doc["reports"]["p50"]["cos_percent"] == round(by_hand, 1)
    assert round(by_hand, 1) != round(layer_sum, 1)  # the two denominators differ on these runs


@pytest.mark.parametrize(
    "percentiles, named", [("p42", "p42"), ("", "[]"), ("p50,p50", "['p50', 'p50']")], ids=["unknown", "empty", "repeated"]
)
def test_compare_unknown_percentile_exits_2(run_pair, capsys, percentiles, named):
    baseline, candidate = run_pair
    capsys.readouterr()
    code = main(["compare", "--baseline", str(baseline), "--candidate", str(candidate), "--percentiles", percentiles])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: comparing {baseline} with {candidate}: ") and named in err


def _overflow_overhead_factor(baseline, candidate):
    candidate["layers"]["tcp_to_tls"]["p50"] = 1e308
    return "reports.p50.overhead_factor.tcp_to_tls"


def _overflow_effect_size(baseline, candidate):
    baseline["layers"]["tcp_to_tls"]["sd"] = 1e-308
    candidate["layers"]["tcp_to_tls"]["p50"] += 10
    return "effect_size.tcp_to_tls.delta"


@pytest.mark.parametrize(
    "fmt, overflow",
    [("json", _overflow_overhead_factor), ("csv", _overflow_overhead_factor), ("table", _overflow_overhead_factor),
     ("json", _overflow_effect_size)],
    ids=["json", "csv", "table", "effect-size"],
)
def test_compare_metric_overflow_exits_2_and_writes_nothing(tmp_path, capsys, fmt, overflow):
    # finite statistics whose metric overflows to infinity, which JSON cannot hold
    baseline, candidate, out = (tmp_path / f"{name}.json" for name in ("baseline", "candidate", "comparison"))
    base_doc, cand_doc = analysis_document_for("x25519"), analysis_document_for("x25519")
    named = overflow(base_doc, cand_doc)
    baseline.write_text(json.dumps(base_doc))
    candidate.write_text(json.dumps(cand_doc))
    code = main(["compare", "--baseline", str(baseline), "--candidate", str(candidate),
                 "--out", str(out), "--format", fmt])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: comparing {baseline} with {candidate}: ") and captured.out == ""
    assert named in captured.err
    assert not out.exists()


def test_compare_zero_baseline_exits_2_and_writes_nothing(tmp_path, capsys):
    # a layer whose baseline percentile is 0 (say, every request coalesced with Finished) has no overhead factor
    baseline, candidate, out = (tmp_path / f"{name}.json" for name in ("baseline", "candidate", "comparison"))
    doc = analysis_document_for("x25519")
    candidate.write_text(json.dumps(doc))
    doc["layers"]["tls_to_app"]["p50"] = 0.0
    baseline.write_text(json.dumps(doc))
    code = main(["compare", "--baseline", str(baseline), "--candidate", str(candidate), "--out", str(out)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: comparing {baseline} with {candidate}: ") and captured.out == ""
    assert "reports.p50.overhead_factor.tls_to_app: " in captured.err
    assert not out.exists()


def test_analyze_rejects_cos_denominator(fixture_dir, capsys):
    # only compare chooses the COS denominator; analysis documents always record layersum
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--pcap", str(fixture_dir / "capture.pcap"), "--cos-denominator", "e2e"])
    assert exc.value.code == 2
    assert "--cos-denominator" in capsys.readouterr().err


def test_compare_incompatible_exits_5(fixture_dir, tmp_path, capsys):
    full = tmp_path / "full.json"
    nodecrypt = tmp_path / "nodec.json"
    main(["analyze", "--pcap", str(fixture_dir / "capture.pcap"),
          "--keylog", str(fixture_dir / "keylog.txt"), "--out", str(full)])
    main(["analyze", "--pcap", str(fixture_dir / "capture.pcap"), "--out", str(nodecrypt)])
    capsys.readouterr()
    assert main(["compare", "--baseline", str(nodecrypt), "--candidate", str(full)]) == 5
    # every decrypted layer, but no connection reached an HTTP 200, so no e2e block
    without_e2e = tmp_path / "no-e2e.json"
    without_e2e.write_text(json.dumps({**json.loads(full.read_text()), "e2e": None}))
    assert main(["compare", "--baseline", str(full), "--candidate", str(without_e2e)]) == 5


def test_compare_unreadable_exits_2(tmp_path):
    assert main(["compare", "--baseline", "/no/a.json", "--candidate", "/no/b.json"]) == 2
    garbage = tmp_path / "garbage.json"
    garbage.write_text("{not json")
    assert main(["compare", "--baseline", str(garbage), "--candidate", str(garbage)]) == 2


def test_synth_bad_spec_exits_2(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("connections:\n  - boundary_times_ns: [5, 4, 3, 2, 1, 0]\n")
    assert main(["synth", "--spec", str(bad), "--out", str(tmp_path / "o")]) == 2


def test_synth_pcap_us_rejects_times_it_cannot_hold(tmp_path, capsys):
    # pcap-us would round these to whole microseconds, and analyze would report a valid
    # connection whose boundaries contradict the ground truth written beside it
    spec = tmp_path / "sub_us.yaml"
    spec.write_text(SCENARIO_YAML.replace("1008135000", "1008135789"))
    assert main(["synth", "--spec", str(spec), "--out", str(tmp_path / "us"), "--capture-format", "pcap-us"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {spec}: connection 1: ") and "boundary_times_ns" in err, err
    assert not (tmp_path / "us").exists()
    assert main(["synth", "--spec", str(spec), "--out", str(tmp_path / "ns"), "--capture-format", "pcap-ns"]) == 0


@pytest.mark.parametrize("name", ["capture.pcap", "keylog.txt", "ground_truth.json"])
def test_synth_unwritable_output_exits_2(tmp_path, capsys, name):
    # a directory stands where synth writes one of its three files: it writes none of them
    spec, out = tmp_path / "scenario.yaml", tmp_path / "out"
    spec.write_text(SCENARIO_YAML)
    (out / name).mkdir(parents=True)
    assert main(["synth", "--spec", str(spec), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {out / name}: ") and "Traceback" not in err, err
    assert [p.name for p in out.iterdir()] == [name]


def _without_p50(doc):
    del doc["layers"]["tls_handshake"]["p50"]
    return json.dumps(doc)


def _string_statistic(doc):
    doc["layers"]["tls_handshake"]["p50"] = "fast"
    return json.dumps(doc)


def _tcp_to_tls_p50(token):
    """A document whose tcp_to_tls p50 is the JSON token `token` (Python's json reads NaN and Infinity)."""
    def make(doc):
        doc["layers"]["tcp_to_tls"]["p50"] = "TOKEN"
        return json.dumps(doc).replace('"TOKEN"', token)
    return make


FIRST_BOUNDARIES = "[0, 360000, 654000, 6201000, 6727000, 15798000]"
MALFORMED_INPUTS = {
    "scenario-yaml-syntax": ("synth", lambda doc: "connections: [\n  - boundary_times_ns: [0, 1\n"),
    "scenario-field-type": ("synth", lambda doc: SCENARIO_YAML.replace("response_body_bytes: 4096", "response_body_bytes: lots")),
    "scenario-ip-not-an-address": ("synth", lambda doc: "client_ip: bogus\n" + SCENARIO_YAML),
    "scenario-ipv6-endpoints": ("synth", lambda doc: "client_ip: '::1'\nserver_ip: '::2'\n" + SCENARIO_YAML),
    "scenario-port-above-65535": ("synth", lambda doc: "server_port: 70000\n" + SCENARIO_YAML),
    "scenario-port-negative": ("synth", lambda doc: "server_port: -1\n" + SCENARIO_YAML),
    "scenario-time-past-pcap-seconds": ("synth", lambda doc: SCENARIO_YAML.replace("1018006000]", "5000000000000000000]")),
    "scenario-unknown-group": ("synth", lambda doc: SCENARIO_YAML.replace("group: x25519", "group: x448")),
    "scenario-anomalies-mapping": ("synth", lambda doc: SCENARIO_YAML.replace("[drop_keylog]", "{retransmit: false}")),
    "scenario-anomalies-string": ("synth", lambda doc: SCENARIO_YAML.replace("[drop_keylog]", "retransmit")),
    "scenario-boundaries-mapping": ("synth", lambda doc: SCENARIO_YAML.replace(FIRST_BOUNDARIES, "{0: a, 1: b, 2: c, 3: d, 4: e, 5: f}")),
    "scenario-boundaries-string": ("synth", lambda doc: SCENARIO_YAML.replace(FIRST_BOUNDARIES, '"012345"')),
    "scenario-boundary-time-float": ("synth", lambda doc: SCENARIO_YAML.replace(FIRST_BOUNDARIES, "[0, 1, 2, 3, 4, 5.5]"),
                                     "connection 0: boundary_times_ns"),
    "scenario-boundary-time-bool": ("synth", lambda doc: SCENARIO_YAML.replace(FIRST_BOUNDARIES, "[true, 1, 2, 3, 4, 5]"),
                                    "connection 0: boundary_times_ns"),
    "scenario-boundary-time-quoted": ("synth", lambda doc: SCENARIO_YAML.replace("15798000]", "'15798000']"),
                                      "connection 0: boundary_times_ns"),
    "scenario-body-bytes-float": ("synth", lambda doc: SCENARIO_YAML.replace("response_body_bytes: 4096", "response_body_bytes: 4096.9"),
                                  "response_body_bytes"),
    "scenario-body-bytes-above-2^24": ("synth", lambda doc: SCENARIO_YAML.replace("response_body_bytes: 4096", "response_body_bytes: 1000000000000"),
                                       "connection 0", "response_body_bytes"),
    "scenario-port-float": ("synth", lambda doc: "server_port: 443.5\n" + SCENARIO_YAML, "server_port"),
    "scenario-five-boundary-times": ("synth", lambda doc: SCENARIO_YAML.replace(FIRST_BOUNDARIES, "[0, 1, 2, 3, 4]"),
                                     "connection 0"),
    "scenario-negative-boundary-time": ("synth", lambda doc: SCENARIO_YAML.replace(FIRST_BOUNDARIES, "[-1, 1, 2, 3, 4, 5]"),
                                        "connection 0"),
    "scenario-unknown-suite": ("synth", lambda doc: SCENARIO_YAML.replace("segmentation_seed: 2", "segmentation_seed: 2\n    cipher_suite: RC4_128_SHA"),
                               "connection 1", "RC4_128_SHA"),
    "scenario-top-level-list": ("synth", lambda doc: "- " + FIRST_BOUNDARIES + "\n"),
    "scenario-connection-not-a-mapping": ("synth", lambda doc: "connections:\n  - " + FIRST_BOUNDARIES + "\n", "connection 0"),
    "scenario-connection-without-boundaries": ("synth", lambda doc: "connections:\n  - segmentation_seed: 1\n",
                                               "connection 0", "boundary_times_ns"),
    "document-array": ("compare", lambda doc: "[]"),
    "document-unknown-schema": ("compare", lambda doc: json.dumps({**doc, "schema": "tlslayers.unknown/v0"}), "schema"),
    "document-layer-without-p50": ("compare", _without_p50),
    "document-string-statistic": ("compare", _string_statistic),
    "document-without-label": ("compare", lambda doc: json.dumps({k: v for k, v in doc.items() if k != "label"})),
    "document-nan-statistic": ("compare", _tcp_to_tls_p50("NaN")),
    "document-infinite-statistic": ("compare", _tcp_to_tls_p50("Infinity")),
    "document-statistic-overflows-to-infinity": ("compare", _tcp_to_tls_p50("1e999")),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
def test_malformed_scenario_or_document_exits_2(fixture_dir, tmp_path, capsys, case):
    command, make, *named = MALFORMED_INPUTS[case]
    run = tmp_path / "run.json"
    assert main(["analyze", "--pcap", str(fixture_dir / "capture.pcap"),
                 "--keylog", str(fixture_dir / "keylog.txt"), "--out", str(run)]) == 0
    bad = tmp_path / "bad.input"
    bad.write_text(make(json.loads(run.read_text())))
    capsys.readouterr()
    if command == "synth":
        code = main(["synth", "--spec", str(bad), "--out", str(tmp_path / "o")])
    else:
        code = main(["compare", "--baseline", str(bad), "--candidate", str(run)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: ")
    assert all(name in err for name in named), err


def test_internal_invariant_violation_exits_4(fixture_dir, monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise AssertionError("stream tallies do not sum to total")

    monkeypatch.setattr("tlslayers.pipeline.analyze_capture", boom)
    code = main(["analyze", "--pcap", str(fixture_dir / "capture.pcap")])
    assert code == 4
    assert "internal error" in capsys.readouterr().err


def test_csv_and_table_formats(fixture_dir, tmp_path, capsys):
    run = tmp_path / "run.json"
    main(["analyze", "--pcap", str(fixture_dir / "capture.pcap"),
          "--keylog", str(fixture_dir / "keylog.txt"), "--out", str(run), "--format", "csv"])
    out = capsys.readouterr().out
    assert out.startswith("layer,statistic,value")
    main(["analyze", "--pcap", str(fixture_dir / "capture.pcap"),
          "--keylog", str(fixture_dir / "keylog.txt"), "--format", "table"])
    out = capsys.readouterr().out
    assert "TCP handshake" in out
