"""Command-line front end: analyze, compare, synth.

Exit codes:
  0  success
  2  unreadable or malformed input
  3  zero usable connections in the capture
  4  internal invariant violation
  5  incompatible documents passed to compare

`analyze` runs with the cyclic garbage collector paused: a run builds no
reference cycles, so a collection would search its many short-lived
objects and find nothing.  The caller's collector state is restored when
the command returns or raises.  `entrypoint` freezes the collector once
`main` returns, so interpreter shutdown leaves the long-lived module
objects out of its search for cycles.
"""

from __future__ import annotations

import argparse
import gc
import sys
from pathlib import Path

from tlslayers import __version__, documents
from tlslayers.capture import CAPTURE_FORMATS
from tlslayers.documents import IncompatibleDocuments
from tlslayers.errors import InvalidSpec, NoUsableStreams, TlsLayersError, UnreadableFile, ZeroBaseline, ZeroDenominator

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NO_STREAMS = 3
EXIT_INTERNAL = 4
EXIT_INCOMPATIBLE = 5


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tlslayers",
        description="Per-layer latency decomposition and key-exchange overhead metrics "
        "for HTTPS/TLS 1.3 packet captures.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="analyze a capture into per-layer statistics")
    p.add_argument("--pcap", required=True, help="pcap or pcapng capture file")
    p.add_argument("--keylog", help="SSLKEYLOGFILE; omit for a no-decrypt run (TCP layers only)")
    p.add_argument("--label", help="run label (defaults to the capture file stem)")
    p.add_argument("--out", help="write the analysis document (canonical JSON) here")
    p.add_argument("--workers", type=int, default=1, help="deprecated; ignored (analysis runs in one process)")
    p.add_argument("--format", choices=("json", "csv", "table"), default="table", help="console output format")

    p = sub.add_parser("compare", help="compare two analysis documents")
    p.add_argument("--baseline", required=True, help="baseline analysis document (JSON)")
    p.add_argument("--candidate", required=True, help="candidate analysis document (JSON)")
    p.add_argument("--percentiles", default="p50,p95", help="comma list from p50,p90,p95,p99")
    p.add_argument("--cos-denominator", choices=documents.COS_MODES, default=documents.COS_MODE_LAYERSUM)
    p.add_argument("--delta-basis", choices=documents.DELTA_BASES, default="p50")
    p.add_argument("--out", help="write the comparison document here")
    p.add_argument("--format", choices=("json", "csv", "table"), default="table")

    p = sub.add_parser("synth", help="generate a synthetic capture from a scenario file")
    p.add_argument("--spec", required=True, help="scenario file (YAML; see docs/scenario_format.md)")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--capture-format", choices=CAPTURE_FORMATS, default="pcap-ns")
    return parser


def _cmd_analyze(args) -> int:
    enabled = gc.isenabled()  # the collector is paused for the command (see the module docstring)
    gc.disable()
    try:
        from tlslayers import pipeline  # loads cryptography; compare and --version do not need it

        if args.workers != 1:
            print("warning: --workers is deprecated and ignored", file=sys.stderr)
        label = args.label or Path(args.pcap).stem
        result = pipeline.analyze_capture(args.pcap, args.keylog, label)
        usable = sum(s.count for s in result.layer_stats.values())
        if usable == 0:
            raise NoUsableStreams(f"{args.pcap}: no connection produced a measurable layer")
        doc = documents.build_analysis_document(result)
        if args.out:
            Path(args.out).write_text(documents.render_json(doc))
        sys.stdout.write(documents.render(doc, args.format))
        return EXIT_OK
    finally:
        if enabled:
            gc.enable()


def _load_doc(path: str) -> dict:
    try:
        return documents.parse_document(Path(path).read_text())
    except (OSError, ValueError) as exc:  # a JSONDecodeError is a ValueError
        raise UnreadableFile(f"{path}: {exc}") from exc


def _cmd_compare(args) -> int:
    baseline = _load_doc(args.baseline)
    candidate = _load_doc(args.candidate)
    percentiles = tuple(p.strip() for p in args.percentiles.split(",") if p.strip())
    try:
        doc = documents.build_comparison_document(
            baseline,
            candidate,
            percentiles=percentiles,
            cos_denominator_mode=args.cos_denominator,
            delta_basis=args.delta_basis,
        )
    except (ValueError, ZeroBaseline, ZeroDenominator) as exc:  # names the report entry where there is one
        raise UnreadableFile(f"comparing {args.baseline} with {args.candidate}: {exc}") from exc
    if args.out:
        Path(args.out).write_text(documents.render_json(doc))
    sys.stdout.write(documents.render(doc, args.format))
    return EXIT_OK


def _cmd_synth(args) -> int:
    from tlslayers import synth  # imports PyYAML; analyze and compare do not need it

    spec = synth.load_scenario(args.spec)
    try:
        paths = synth.write_outputs(spec, args.out, capture_format=args.capture_format)
    except InvalidSpec as exc:
        raise InvalidSpec(f"{args.spec}: {exc}") from exc
    for kind, path in paths.items():
        print(f"{kind}: {path}")
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "analyze":
            return _cmd_analyze(args)
        if args.command == "compare":
            return _cmd_compare(args)
        return _cmd_synth(args)
    except IncompatibleDocuments as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INCOMPATIBLE
    except NoUsableStreams as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_STREAMS
    except AssertionError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (TlsLayersError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entrypoint() -> None:
    code = main()
    gc.freeze()  # shutdown's collections then skip every object alive now
    sys.exit(code)


if __name__ == "__main__":
    entrypoint()
