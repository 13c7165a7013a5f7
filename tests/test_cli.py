"""CLI contract: subcommands, exit codes, degraded mode, worker determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tlslayers
from tlslayers import synth
from tlslayers.cli import main
from tlslayers.decode import decode_frame
from tlslayers.documents import parse_document


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


def test_cli_import_loads_no_process_pool():
    """Nor the pipeline: only `analyze` imports it, so `--version` and `compare` skip cryptography."""
    src = str(Path(tlslayers.__file__).resolve().parent.parent)
    absent = (
        "multiprocessing", "concurrent.futures", "cryptography",
        "tlslayers.pipeline", "tlslayers.reassembly", "tlslayers.tlswire", "tlslayers.keyschedule",
    )
    code = f"import sys, tlslayers.cli; print([m for m in {absent!r} if m in sys.modules])"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True,
    )
    assert proc.stdout.strip() == "[]"


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


def test_analyze_zero_usable_streams_exits_3(tmp_path):
    import struct

    path = tmp_path / "nontcp.pcap"
    with path.open("wb") as fh:
        fh.write(struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 1))
        arp = b"\xff" * 6 + b"\x02" * 6 + b"\x08\x06" + bytes(28)
        fh.write(struct.pack("<IIII", 1, 0, len(arp), len(arp)))
        fh.write(arp)
    assert main(["analyze", "--pcap", str(path)]) == 3


def test_malformed_hello_does_not_abort_the_run(tmp_path):
    from conftest import clean_connection_spec

    spec = synth.ScenarioSpec(connections=(
        clean_connection_spec(seed=1),
        clean_connection_spec(offset_ns=1_000_000_000, seed=2),
    ))
    frames, keylog_text, _ = synth.generate(spec)
    hello_frames = [
        i for i, f in enumerate(frames)
        if (pkt := decode_frame(f)) is not None and pkt.payload.startswith(b"\x16\x03\x01")
    ]
    assert len(hello_frames) == 2
    # shrink the second ClientHello's handshake length to 10 bytes: too short to parse
    i = max(hello_frames, key=lambda j: frames[j].timestamp_ns)
    data = bytearray(frames[i].data)
    at = len(data) - len(decode_frame(frames[i]).payload) + 6
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


def test_compare_incompatible_exits_5(fixture_dir, tmp_path, capsys):
    full = tmp_path / "full.json"
    nodecrypt = tmp_path / "nodec.json"
    main(["analyze", "--pcap", str(fixture_dir / "capture.pcap"),
          "--keylog", str(fixture_dir / "keylog.txt"), "--out", str(full)])
    main(["analyze", "--pcap", str(fixture_dir / "capture.pcap"), "--out", str(nodecrypt)])
    capsys.readouterr()
    assert main(["compare", "--baseline", str(nodecrypt), "--candidate", str(full)]) == 5


def test_compare_unreadable_exits_2(tmp_path):
    assert main(["compare", "--baseline", "/no/a.json", "--candidate", "/no/b.json"]) == 2
    garbage = tmp_path / "garbage.json"
    garbage.write_text("{not json")
    assert main(["compare", "--baseline", str(garbage), "--candidate", str(garbage)]) == 2


def test_synth_bad_spec_exits_2(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("connections:\n  - boundary_times_ns: [5, 4, 3, 2, 1, 0]\n")
    assert main(["synth", "--spec", str(bad), "--out", str(tmp_path / "o")]) == 2


def _without_p50(doc):
    del doc["layers"]["tls_handshake"]["p50"]
    return json.dumps(doc)


def _string_statistic(doc):
    doc["layers"]["tls_handshake"]["p50"] = "fast"
    return json.dumps(doc)


MALFORMED_INPUTS = {
    "scenario-yaml-syntax": ("synth", lambda doc: "connections: [\n  - boundary_times_ns: [0, 1\n"),
    "scenario-field-type": ("synth", lambda doc: SCENARIO_YAML.replace("response_body_bytes: 4096", "response_body_bytes: lots")),
    "scenario-ip-not-an-address": ("synth", lambda doc: "client_ip: bogus\n" + SCENARIO_YAML),
    "scenario-ipv6-endpoints": ("synth", lambda doc: "client_ip: '::1'\nserver_ip: '::2'\n" + SCENARIO_YAML),
    "scenario-port-above-65535": ("synth", lambda doc: "server_port: 70000\n" + SCENARIO_YAML),
    "scenario-port-negative": ("synth", lambda doc: "server_port: -1\n" + SCENARIO_YAML),
    "scenario-time-past-pcap-seconds": ("synth", lambda doc: SCENARIO_YAML.replace("1018006000]", "5000000000000000000]")),
    "document-array": ("compare", lambda doc: "[]"),
    "document-layer-without-p50": ("compare", _without_p50),
    "document-string-statistic": ("compare", _string_statistic),
    "document-without-label": ("compare", lambda doc: json.dumps({k: v for k, v in doc.items() if k != "label"})),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
def test_malformed_scenario_or_document_exits_2(fixture_dir, tmp_path, capsys, case):
    command, make = MALFORMED_INPUTS[case]
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
    assert capsys.readouterr().err.startswith(f"error: {bad}: ")


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
