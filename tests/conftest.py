import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from tlslayers import synth
from tlslayers.capture import LINKTYPE_ETHERNET, CapturedFrame, map_capture, read_frames
from tlslayers.decode import ingest_frames
from tlslayers.pipeline import analyze_capture
from tlslayers.reassembly import assemble_flow


def analyze_frames(frames, keylog_text: str, label: str = "scenario"):
    """Write frames and a key log to a temporary directory and run `analyze_capture` on them."""
    with tempfile.TemporaryDirectory() as tmp:
        capture, keylog = Path(tmp) / "capture.pcap", Path(tmp) / "keylog.txt"
        synth.emit_capture(frames, capture)
        keylog.write_text(keylog_text)
        return analyze_capture(capture, keylog, label)


def run_scenario(spec):
    """Generate a scenario and analyze it from a capture, as `tlslayers analyze` does."""
    frames, keylog_text, truth = synth.generate(spec)
    return analyze_frames(frames, keylog_text), truth


def clean_connection_spec(offset_ns: int = 0, seed: int = 1, **kw) -> synth.ConnectionSpec:
    base = (0, 360_000, 654_000, 6_201_000, 6_727_000, 15_798_000)
    return synth.ConnectionSpec(
        boundary_times=tuple(offset_ns + t for t in base),
        segmentation_seed=seed,
        **kw,
    )


@pytest.fixture
def clean_scenario():
    return synth.ScenarioSpec(connections=(clean_connection_spec(),))


# -- the analyze path over frames laid out in one buffer ------------------------------


class Segment(NamedTuple):
    """One TCP segment as the tests write and read it: a bucket entry's fields, the payload sliced out."""

    timestamp_ns: int
    src_ip: bytes
    dst_ip: bytes
    src_port: int
    dst_port: int
    tcp_flags: int
    seq: int
    payload: bytes
    truncated: bool


def segment(src, dst, ts, flags=0, seq=0, payload=b"", truncated=False) -> Segment:
    """A `Segment` from `src` to `dst`, each an (ip, port)."""
    return Segment(ts, src[0], dst[0], src[1], dst[1], int(flags), seq, payload, truncated)


JUNK = b"\xa5" * 7  # lies before, between and after laid-out frames: a read past a frame's span picks it up


def lay_out(frames, prefix: bytes = JUNK, suffix: bytes = JUNK):
    """Frames laid end to end in one buffer, `prefix` before, `suffix` after and `JUNK` between them.

    Returns `(buf, spans)`, each span `(timestamp_ns, link_type, start, end, orig_len)` as
    `capture.read_frames` yields it for a capture's map.
    """
    parts, spans, at = [prefix], [], len(prefix)
    for i, f in enumerate(frames):
        if i:
            parts.append(JUNK)
            at += len(JUNK)
        spans.append((f.timestamp_ns, f.link_type, at, at + len(f.data), f.orig_len))
        parts.append(f.data)
        at += len(f.data)
    parts.append(suffix)
    return b"".join(parts), spans


def ingest_span(buf, span):
    """One span of `buf` through `ingest_frames`: its ingest counts, and its `Segment` (None unless TCP)."""
    groups, counts = ingest_frames(buf, [span])
    # the frame has exactly one outcome: malformed, non-TCP or one bucket entry
    assert counts["frames"] == counts["malformed_frames"] + counts["non_tcp_frames"] + len(groups) == 1, counts
    if not groups:
        return counts, None
    ((key, [entry]),) = groups.items()
    ts, from_lower, flags, seq, start, end, truncated = entry
    lower, higher = key[:2], key[2:]
    assert lower <= higher  # the canonical four-tuple names the lower (ip, port) first
    (src_ip, src_port), (dst_ip, dst_port) = (lower, higher) if from_lower else (higher, lower)
    return counts, Segment(ts, src_ip, dst_ip, src_port, dst_port, flags, seq, buf[start:end], truncated)


def decode_span(buf, span):
    """One span of `buf` through `ingest_frames`: a `Segment`, or None for non-TCP traffic; never malformed."""
    counts, seg = ingest_span(buf, span)
    assert counts["malformed_frames"] == 0, counts
    return seg


def decode_segment(frame, prefix: bytes = JUNK, suffix: bytes = JUNK):
    """One frame decoded where it lies between `prefix` and `suffix` in one buffer (see `decode_span`)."""
    buf, (span,) = lay_out([frame], prefix, suffix)
    return decode_span(buf, span)


def decode_frames(frames) -> list[Segment]:
    """The TCP segments of `frames`, decoded where they lie in one laid-out buffer; non-TCP frames are left out."""
    buf, spans = lay_out(frames)
    return [seg for span in spans if (seg := decode_span(buf, span)) is not None]


def segment_frames(segments) -> list[CapturedFrame]:
    """Segments as Ethernet/IPv4/TCP frames; a truncated segment's frame carries one byte less than the wire did."""
    frames = []
    for s in segments:
        src, dst = (bytes(6), s.src_ip, s.src_port), (bytes(6), s.dst_ip, s.dst_port)
        data = synth._tcp_frame(src, dst, 0, s.seq, 0, s.tcp_flags, s.payload)
        frames.append(CapturedFrame(s.timestamp_ns, LINKTYPE_ETHERNET, data, len(data) + s.truncated))
    return frames


def assemble_frames(frames) -> list:
    """The connections of `frames` as `analyze` assembles them, flows in canonical four-tuple order.

    The frames are laid out in one buffer, ingested by `ingest_frames` and assembled flow by
    flow by `assemble_flow`, the buffer passed to each once.  Every frame must be a TCP segment.
    """
    buf, spans = lay_out(frames)
    groups, counts = ingest_frames(buf, spans)
    assert counts == {"frames": len(spans), "non_tcp_frames": 0, "malformed_frames": 0}, counts
    return [conn for key in sorted(groups) for conn in assemble_flow(key, groups[key], buf)]


def assemble(segments) -> list:
    """The connections of `segments`, framed and assembled as `analyze` assembles them (`assemble_frames`)."""
    return assemble_frames(segment_frames(segments))


def read_capture(path) -> list[CapturedFrame]:
    """Every frame of the capture file at `path`, read as `analyze` reads it: one map, walked by `read_frames`."""
    with map_capture(path) as buf:
        return [CapturedFrame(ts, link, buf[start:end], orig) for ts, link, start, end, orig in read_frames(buf, path)]
