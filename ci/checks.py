#!/usr/bin/env python3
"""CI's workload-scale checks, which run the same way locally: `python3 ci/checks.py [NAME ...]` runs the named
checks, or all of them (package only where tlslayers is installed). A check prints what it compares and fails
naming each pin or bound that does not hold. Its files go to a temporary directory removed when it ends;
perfbench/run.py keeps its reports in perfbench/work/.
"""

import gc
import json
import os
import shutil
import struct
import subprocess
import sys
import tempfile
from functools import partial
from multiprocessing import get_context
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
from workloads import FAMILIES, WORKLOADS, build_spec, sha256_file  # noqa: E402

SRC_ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
ANALYZE = [sys.executable, "-m", "tlslayers.cli", "analyze"]
SEED = 5
# Keyed by workload. `inputs`: the sha256 of the capture and key log synth generates at SEED, which a change to the
# generator or to the capture writer (capture.emit_capture) moves; handshake-w2 analyses handshake's. `counters`:
# the walk's work on a traced run, which a fast path that skips or repeats records, derivations or decryptions
# moves. `document`: the analysis document's sha256. A change that moves a pin on purpose updates it and says why.
PINS = {
    "lossy": {"inputs": ("bac889f49a7bb36fbdc0d7fa0fd891fae4fc73573d28cf13412f2d0bbc714a7b",
                         "38acb6470e70aefd75b808d19ab8bcf671d964a88a31b4dc7eb0756961ff534f"),
              "counters": {"tlswire.records": 14551, "keyschedule.derive_calls": 4560, "keyschedule.decrypt_calls": 5630},
              "document": "51d1f35b2f89ffd179c975aa8e088c21cca7a72ce62a93ed8e233d1f638b5b31"},  # the pcap-ns encoding's
    "handshake": {"inputs": ("21d3ace5567d03b20a9efdb93f789c02e1ba7640584a773d09093b3e44c1c90f",
                             "77b04ea8d9860df740fac114cd109474d9c3c53df9ec649df7a8c7b97c9d66ee"),
                  "counters": {"tlswire.records": 27003, "keyschedule.derive_calls": 12000,
                               "keyschedule.decrypt_calls": 14999}},
    "handshake-w2": {"document": "243c91c6b5a7748e1ef9a11665acfea1e064e14c3408a3982c6d3f7dadd08d8f"},
    "bulk": {"inputs": ("8b63111fdce2d1ca9b4d098e768e6ddc8b5746256d9952e5ca33253531a15a0f",
                        "1f36f971a6a9457fd66a5921b02d3709c207d69ce380cde3505d439286110a2e"),
             "counters": {"tlswire.records": 8894, "keyschedule.derive_calls": 960, "keyschedule.decrypt_calls": 1178},
             "document": "90e361398e80a03995f4d78f9c587a854b050a4d7642daf80104586acd3e9c8d"},
}
RUNS = {"lossy": (1,), "handshake": (1,), "handshake-w2": (0,), "bulk": (0, 1)}  # the --trace of each run.py run
RSS_BOUND_MIB = 24  # how much more the CLI's peak RSS may be on bulk than on bulk's first connection alone
REVERSED_BODY = 196_000  # the response body of the reversed check's connection: about 200k server bytes
REVERSED_BOUND = 2  # how many times the in-order capture's CLI CPU time the reversed one's may take
SCENARIO = {"connections": [  # the package check's: two valid connections, one excluded(non200), one partial(truncated)
    {"boundary_times_ns": [0, 360000, 654000, 6201000, 6727000, 15798000], "segmentation_seed": 1},
    {"boundary_times_ns": [1000000000, 1000390000, 1002256000, 1008135000, 1009126000, 1018006000],
     "segmentation_seed": 2},
    {"boundary_times_ns": [2000000000, 2000360000, 2000654000, 2006201000, 2006727000, 2015798000],
     "segmentation_seed": 3, "anomalies": ["non200"]},
    {"boundary_times_ns": [3000000000, 3000360000, 3000654000, 3006201000, 3006727000, 3015798000],
     "segmentation_seed": 4, "anomalies": ["truncate"]},
]}
PACKAGE_COUNTS = {"total_streams": 4, "valid": 2, "partial": {"truncated": 1}, "excluded": {"non200": 1}}
# git grep -E alternatives, one letter of each in brackets so that this file does not match itself
ADAPTERS = "open_captur[e]|decode_fram[e]|DecodedPacke[t]|assemble_connection[s]|analyze_connection[s]"


class Failed(Exception):
    """A pin or bound does not hold; the message names it."""


def expect(*pins: tuple[str, object, object]) -> None:
    """Print each (pin, got, want); fail naming every pin whose value is not the one wanted."""
    for pin, got, want in pins:
        print(f"  {pin}: {got!r}" + ("" if got == want else f"  FAIL, want {want!r}"))
    if any(got != want for _, got, want in pins):
        raise Failed("; ".join(f"{pin}: got {got!r}, want {want!r}" for pin, got, want in pins if got != want))


def check_run(workload: str, trace: int, last: dict, report: dict) -> None:
    """Check a perfbench/run.py run's last output line and report.json against PINS: every connection matches the
    synth truth, nothing goes unmeasured (a traced run reaches every TLS-layer callee it wraps by name), the inputs
    are the pinned ones, and a traced run does the pinned walk work, an untraced one writes the pinned document.
    """
    want = {"correct": True, "failed": 0, "unmeasured": []}
    want["capture_sha256"], want["keylog_sha256"] = PINS[WORKLOADS[workload].family.name]["inputs"]
    if trace:
        want.update(PINS[workload].get("counters", {}))
    elif "document" in PINS[workload]:
        want["document_sha256"] = PINS[workload]["document"]
    got = {**report.get("provenance", {}), **report, **last}
    got.update((name, metric.get("value")) for name, metric in last.get("metrics", {}).items())
    expect(*((pin, got.get(pin, "<missing>"), value) for pin, value in want.items()))


def bench(workload: str) -> None:
    """Run perfbench/run.py on a workload at SEED with each --trace in RUNS, and check each run with check_run.

    lossy is the benchmark oracle check: every connection's validity, reason and boundaries match the synth truth.
    handshake's 3000 connections each derive four traffic keys and open about five records, so it pins the
    key-material path on the inputs it is tuned for; its trace must reach derive_traffic_keys and decrypt_record.
    handshake-w2: the deprecated --workers reproduces the in-process document. bulk has the largest streams, which
    analyze assembles and walks one flow at a time, and there the walk opens the fewest of the records it counts
    (those up to the GET and the status line), so its traced run pins the walk counters too: a record splitter that
    stopped counting the headers of unopened records would move tlswire.records.
    """
    for trace in RUNS[workload]:
        cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED), "--seconds", "0"]
        out = subprocess.run(cmd + ["--trace", str(trace)], cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
        print(out.stdout, end="")
        report = json.loads((ROOT / f"perfbench/work/{workload}-s{SEED}-t{trace}/report.json").read_text())
        check_run(workload, trace, json.loads(out.stdout.splitlines()[-1]), report)


def generate(family: str, connections: int | None = None) -> tuple[list, str]:
    """The frames and key log synth generates for a family at SEED, or for its first `connections` alone."""
    from tlslayers import synth
    spec = build_spec(synth, FAMILIES[family], SEED)
    return synth.generate(synth.ScenarioSpec(connections=spec.connections[:connections]))[:2]


def adapters() -> None:
    """The tests and these checks call what analyze runs (tests/conftest.py lays frames out in one buffer), not the
    adapters in ADAPTERS, which only the benchmark's layer trace (perfbench/layertrace.py) calls. git grep exits 1
    when it finds nothing, 0 on a match and 128 on an error, and only 1 passes.
    """
    status = subprocess.run(["git", "grep", "-nwE", ADAPTERS, "--", "tests/", "ci/"], cwd=ROOT).returncode
    expect(("git grep exit status (1: no adapter under tests/ or ci/)", status, 1))


def encodings() -> None:
    """Six encodings of the lossy frames give the CLI documents that differ only in `inputs`, whose pcap_sha256 is
    each file's sha256; the pcap-ns document is pinned. The ingest loop's IP header reader decodes the SLL, IPv4
    options and IPv6 encodings; the mixed pcapng alternates each flow's frames between an Ethernet and a Linux SLL
    interface, so a flow's frames take both the one-unpack branch and the header reader and must share one bucket.
    analyze pauses the cyclic collector (cli._cmd_analyze), which holds only while a run builds no reference cycles:
    with the collector off, a collection after analyze_capture on the pcap-ns file must find nothing.
    """
    from tlslayers import synth
    from tlslayers.capture import _block as block
    from tlslayers.pipeline import analyze_capture
    frames, keylog = generate("lossy")
    # SLL: packet type, ARPHRD_ETHER, address length 6, the source MAC padded to 8, then the ethertype
    sll = [f._replace(link_type=113, data=struct.pack(">HHH8s", 0, 1, 6, f.data[6:12] + bytes(2)) + f.data[12:],
                      orig_len=f.orig_len + 2) for f in frames]

    def options(d, cut):  # 4 bytes of NOP options (IHL 6, total length 4 longer), then a trailer a snap cut lost
        total_len = struct.pack(">H", struct.unpack_from(">H", d, 16)[0] + 4)
        return d[:14] + b"\x46" + d[15:16] + total_len + d[18:34] + b"\x01" * 4 + d[34:] + bytes(0 if cut else 6)

    def ipv6(d):  # next header TCP, the addresses repeated to 16 bytes, no Ethernet; a snap-cut frame stays cut
        ihl, total_len = (d[14] & 0x0F) * 4, struct.unpack_from(">H", d, 16)[0]
        return struct.pack(">IHBB", 6 << 28, total_len - ihl, 6, 64) + d[26:30] * 4 + d[30:34] * 4 + d[14 + ihl:]

    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        (out / "lossy-keylog.txt").write_text(keylog)
        for fmt in ("pcap-ns", "pcapng"):
            synth.emit_capture(frames, out / f"lossy.{fmt}", fmt)
        for name, link_type, relinked in (
            ("sll", 113, sll),
            ("opts", 1, [f._replace(data=options(f.data, f.orig_len > len(f.data)), orig_len=f.orig_len + 10)
                         for f in frames]),
            ("ipv6", 101, [f._replace(link_type=101, data=ipv6(f.data), orig_len=f.orig_len + 6) for f in frames]),
        ):
            synth.emit_capture(relinked, out / f"lossy.{name}", "pcap-ns")
            raw = bytearray((out / f"lossy.{name}").read_bytes())
            struct.pack_into("<I", raw, 20, link_type)  # the pcap header's link type
            (out / f"lossy.{name}").write_bytes(raw)
        # a section, then an Ethernet and a Linux SLL interface (if_tsresol 9, nanoseconds)
        tsresol = struct.pack("<HH", 9, 1) + bytes([9, 0, 0, 0]) + struct.pack("<HH", 0, 0)
        blocks = [block(0x0A0D0D0A, struct.pack("<IHHq", 0x1A2B3C4D, 1, 0, -1))]
        blocks += [block(1, struct.pack("<HHI", link_type, 0, 262144) + tsresol) for link_type in (1, 113)]
        last, on_sll = {}, 0  # each flow's interface for its last frame; the frames on the SLL one
        for f, s in zip(frames, sll):
            flow = frozenset((f.data[26:30] + f.data[34:36], f.data[30:34] + f.data[36:38]))
            iface = last[flow] = 1 - last.get(flow, 1)
            on_sll += iface
            g = s if iface else f
            epb = struct.pack("<IIIII", iface, g.timestamp_ns >> 32, g.timestamp_ns & 0xFFFFFFFF, len(g.data), g.orig_len)
            blocks.append(block(6, epb + g.data))
        print("  mixed pcapng:", len(last), "flows,", len(frames) - on_sll, "frames on Ethernet and", on_sll, "on SLL")
        (out / "lossy.mixed").write_bytes(b"".join(blocks))
        del frames, sll, blocks
        gc.collect()
        gc.disable()
        try:
            analyze_capture(out / "lossy.pcap-ns", out / "lossy-keylog.txt", "lossy")
            found = gc.collect()
        finally:
            gc.enable()
        docs, wrong_hash = {}, []
        for fmt in ("pcap-ns", "pcapng", "sll", "opts", "ipv6", "mixed"):
            pcap, doc = out / f"lossy.{fmt}", out / f"lossy-{fmt}.json"
            subprocess.run(ANALYZE + ["--pcap", pcap, "--keylog", out / "lossy-keylog.txt", "--out", doc, "--format",
                                      "json"], env=SRC_ENV, stdout=subprocess.DEVNULL, check=True)
            docs[fmt] = json.loads(doc.read_bytes())
            wrong_hash += [fmt] if docs[fmt]["inputs"]["pcap_sha256"] != sha256_file(pcap) else []
        document = sha256_file(out / "lossy-pcap-ns.json")
    first = {**docs["pcap-ns"], "inputs": None}
    expect(("unreachable objects after analyze_capture with the collector off", found, 0),
           ("valid connections in the pcap-ns document > 0", docs["pcap-ns"]["counts"]["valid"] > 0, True),
           ("encodings whose document differs apart from inputs",
            [fmt for fmt, doc in docs.items() if {**doc, "inputs": None} != first], []),
           ("encodings whose inputs.pcap_sha256 is not their file's sha256", wrong_hash, []),
           ("pcap-ns document_sha256", document, PINS["lossy"]["document"]))


def cli_usage(path: str, *args: str):
    """The CLI's resource usage analysing {path}.pcap with {path}-keylog.txt and `args`, read with wait4."""
    cli = ANALYZE + ["--pcap", f"{path}.pcap", "--keylog", f"{path}-keylog.txt", *args]
    _, status, usage = os.wait4(subprocess.Popen(cli, env=SRC_ENV, stdout=subprocess.DEVNULL).pid, 0)
    if status:
        raise Failed(f"analyze {path} exited with status {status}")
    return usage


def cli_peak_rss_mib(path: str) -> float:
    """The CLI's peak RSS analysing {path}.pcap with {path}-keylog.txt."""
    return cli_usage(path).ru_maxrss / 1024  # KiB on Linux


def rss() -> None:
    """The CLI's own peak RSS stays bounded on a large capture. The benchmark's peak_rss_mib cannot show it: a child
    inherits its parent's RSS high-water mark, and the harness generates the workload before it spawns the CLI. So
    this process generates the inputs, and a freshly started worker that imports none of the program runs the CLI
    on bulk and on bulk's first connection alone. Flow buckets hold spans of the capture's map, not payload copies,
    and the capture hash and the walk release the map's pages behind them, so bulk may cost at most RSS_BOUND_MIB
    more.
    """
    from tlslayers import synth
    with tempfile.TemporaryDirectory() as tmp:
        for name, connections in (("one", 1), ("bulk", None)):
            frames, keylog = generate("bulk", connections)
            synth.emit_capture(frames, f"{tmp}/{name}.pcap")
            Path(f"{tmp}/{name}-keylog.txt").write_text(keylog)
            del frames
        with get_context("spawn").Pool(1) as worker:
            one, whole = worker.map(cli_peak_rss_mib, (f"{tmp}/one", f"{tmp}/bulk"))
    print(f"  CLI peak RSS (MiB): bulk {whole:.1f}, its first connection {one:.1f}")
    print(f"  CLI peak RSS of bulk above one connection: {whole - one:.1f} MiB, want < {RSS_BOUND_MIB}")
    if not whole - one < RSS_BOUND_MIB:
        raise Failed(f"CLI peak RSS of bulk above one connection: {whole - one:.1f} MiB, want < {RSS_BOUND_MIB}")


def reversed_segments() -> None:
    """Reassembly costs time in proportion to a capture's size whatever order its segments arrive in. One
    connection with a REVERSED_BODY-byte response has its server's bytes resent as 1-byte segments after the
    client's last frame, at rising times: in one capture in stream order, in the other from the last byte back to
    the first, so that each segment lands before every byte placed so far. The CLI's CPU time on the reversed
    capture (min of 2) may be at most REVERSED_BOUND times its time on the in-order one.
    """
    from tlslayers import synth
    from tlslayers.capture import LINKTYPE_ETHERNET, CapturedFrame
    frames, keylog = synth.generate(synth.ScenarioSpec(connections=(synth.ConnectionSpec(
        boundary_times=tuple(SCENARIO["connections"][0]["boundary_times_ns"]), response_body_bytes=REVERSED_BODY),)))[:2]
    kept, ones = [], []  # every other frame; the server's stream as 1-byte frames, in stream order
    for f in frames:
        # synth's frames are Ethernet, IPv4 and TCP with no options: ports at 34 and 36, seq at 38, payload from 54
        d = f.data
        if d[34:36] != (443).to_bytes(2, "big") or len(d) == 54:
            kept.append(f)
            continue
        src, dst = (d[6:12], d[26:30], 443), (d[0:6], d[30:34], int.from_bytes(d[36:38], "big"))
        seq, ack = int.from_bytes(d[38:42], "big"), int.from_bytes(d[42:46], "big")
        ones += [synth._tcp_frame(src, dst, 0, seq + i, ack, d[47], bytes([b])) for i, b in enumerate(d[54:])]
    after = max(f.timestamp_ns for f in frames)
    cpu, valid = {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, order in (("in-order", ones), ("reversed", ones[::-1])):
            synth.emit_capture(kept + [CapturedFrame(after + 1 + i, LINKTYPE_ETHERNET, d, len(d))
                                       for i, d in enumerate(order)], f"{tmp}/{name}.pcap")
            Path(f"{tmp}/{name}-keylog.txt").write_text(keylog)
        for name in ("in-order", "reversed") * 2:
            usage = cli_usage(f"{tmp}/{name}", "--out", f"{tmp}/{name}.json")
            cpu[name] = min(cpu.get(name, float("inf")), usage.ru_utime + usage.ru_stime)
            valid[name] = json.loads(Path(f"{tmp}/{name}.json").read_text())["counts"]["valid"]
    ratio = cpu["reversed"] / cpu["in-order"]
    print(f"  {len(ones)} 1-byte segments; CLI CPU time (s): in order {cpu['in-order']:.2f}, "
          f"reversed {cpu['reversed']:.2f}")
    expect(("valid connections", valid, {"in-order": 1, "reversed": 1}),
           (f"reversed CPU time {ratio:.1f}x in order's, at most {REVERSED_BOUND}x", ratio <= REVERSED_BOUND, True))


def package() -> None:
    """The package built from pyproject.toml alone works; run after `pip install .`, on the installed tlslayers.
    Every command pays its start-up: print what importing tlslayers.cli and tlslayers.pipeline costs, and fail if
    they load dataclasses or logging (logging loads only when a warning fires). --version imports neither the
    pipeline nor synth, so the package also writes SCENARIO in every capture format and analyzes each. Its times are
    microsecond-aligned, so the documents must agree; the installed compare of two must be the identity, its effect
    sizes included, and every document must validate against the published schemas.
    """
    import jsonschema
    exe = shutil.which("tlslayers")
    if exe is None:
        raise Failed("no installed tlslayers on PATH: run `pip install .` first")
    run = partial(subprocess.run, env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"}, check=True)
    run([exe, "--version"])
    imports = run([sys.executable, "-X", "importtime", "-c", "import sys, tlslayers.cli, tlslayers.pipeline; "
                   "print(tlslayers.cli.__file__, *sys.modules)"], capture_output=True, text=True)
    print(*(line for line in imports.stderr.splitlines()
            if line.endswith((" tlslayers.cli", " tlslayers.pipeline", " dataclasses", " logging"))), sep="\n")
    cli_file, *modules = imports.stdout.split()
    print("  imported", cli_file)
    with tempfile.TemporaryDirectory() as tmp:
        Path(f"{tmp}/scenario.yaml").write_text(json.dumps(SCENARIO))  # JSON is YAML
        for fmt in ("pcap-us", "pcap-ns", "pcapng"):
            run([exe, "synth", "--spec", f"{tmp}/scenario.yaml", "--out", f"{tmp}/{fmt}", "--capture-format", fmt])
            run([exe, "analyze", "--pcap", f"{tmp}/{fmt}/capture.{'pcapng' if fmt == 'pcapng' else 'pcap'}",
                 "--keylog", f"{tmp}/{fmt}/keylog.txt", "--out", f"{tmp}/{fmt}.json", "--format", "json"])
        run([exe, "compare", "--baseline", f"{tmp}/pcap-us.json", "--candidate", f"{tmp}/pcapng.json",
             "--out", f"{tmp}/cmp.json", "--format", "json"])
        docs = [json.loads(Path(f"{tmp}/{fmt}.json").read_text()) for fmt in ("pcap-us", "pcap-ns", "pcapng")]
        cmp = json.loads(Path(f"{tmp}/cmp.json").read_text())
    for doc, kind in [(doc, "analysis") for doc in docs] + [(cmp, "comparison")]:
        jsonschema.validate(doc, json.loads((ROOT / f"docs/schema/{kind}.v1.schema.json").read_text()))
    blocks = ("layers", "e2e", "ingest", "counts")
    # both runs hold the same connections: every Glass's delta 0.0, or null where the baseline SD is 0
    identity = bool(cmp["reports"]) and all(
        set(r["overhead_factor"].values()) == {1.0} and r["of_combined"] == 1.0 and r["cos_percent"] == 0.0
        for r in cmp["reports"].values()
    ) and all(es["delta"] in (0.0, None) for es in cmp["effect_size"].values())
    expect(("dataclasses, logging loaded", [m for m in ("dataclasses", "logging") if m in modules], []),
           ("counts", [doc["counts"] for doc in docs], [PACKAGE_COUNTS] * 3),
           ("same layers, e2e, ingest and counts", all([d[b] for b in blocks] == [docs[0][b] for b in blocks]
                                                       for d in docs), True),
           ("compare is the identity", identity, True))


CHECKS = {"adapters": adapters, **{name: partial(bench, name) for name in RUNS}, "encodings": encodings, "rss": rss,
          "reversed": reversed_segments, "package": package}


def main(names: list[str]) -> int:
    if set(names) - set(CHECKS):
        sys.exit(f"no check named {', '.join(set(names) - set(CHECKS))}; the checks are {', '.join(CHECKS)}")
    sys.stdout.reconfigure(line_buffering=True)  # in order with the output of the checks' subprocesses
    installed = shutil.which("tlslayers") is not None
    if not names and not installed:
        print("== package: skipped, no installed tlslayers on PATH (`pip install .` first)")
    failed = []
    for name in names or [name for name in CHECKS if installed or name != "package"]:
        print(f"== {name}")
        try:
            CHECKS[name]()
        except (Failed, subprocess.CalledProcessError) as exc:
            failed.append(name)
            print(f"FAIL {name}: {exc}")
    print("failed:" if failed else "passed", *failed)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
