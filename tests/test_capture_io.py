"""Capture file reading: unit conversion exactness, formats, error handling."""

import logging
import random
import re
import struct
import sys
import tracemalloc

import pytest

from tlslayers import capture, pipeline, synth
from tlslayers.capture import CapturedFrame
from tlslayers.cli import main
from tlslayers.errors import MalformedHeader, UnknownLinkType, UnknownMagic, UnreadableFile

import reference
import wire
from conftest import read_capture


def test_empty_capture(tmp_path):
    path = tmp_path / "empty.pcap"
    path.write_bytes(wire.pcap_bytes("<", 0xA1B2C3D4, []))
    assert read_capture(path) == []


def test_microsecond_timestamp_conversion_is_exact(tmp_path):
    path = tmp_path / "us.pcap"
    path.write_bytes(wire.pcap_bytes("<", 0xA1B2C3D4, [(1, 500_000, b"\x01\x02\x03", 3)]))
    (frame,) = read_capture(path)
    assert frame.timestamp_ns == 1_500_000_000
    assert frame.data == b"\x01\x02\x03"


def test_synth_frames_round_trip_all_formats(tmp_path, clean_scenario):
    frames, _, _ = synth.generate(clean_scenario)
    # odd lengths, which pcapng pads to 4 bytes, and a frame cut to its snap length
    last = frames[-1].timestamp_ns
    frames += [CapturedFrame(last + 1_001 * i, 1, bytes(range(i)), i) for i in (1, 3, 61, 63)]
    frames.append(CapturedFrame(last + 9_999, 1, b"s" * 54, 1514))
    for fmt in ("pcap-us", "pcap-ns", "pcapng"):
        path = tmp_path / f"cap-{fmt}"
        synth.emit_capture(frames, path, fmt)
        back = read_capture(path)
        # the writer and the reader share their layouts, so check the file with this module's own readers
        raw = path.read_bytes()
        expected = reference.read_pcapng(raw) if fmt == "pcapng" else (*reference.read_pcap(raw), None)
        assert expected == (back, [], None), fmt
        assert len(back) == len(frames)
        if fmt == "pcap-us":
            # microsecond container: encoded value is the truncated timestamp
            expected = [f.timestamp_ns // 1000 * 1000 for f in frames]
        else:
            expected = [f.timestamp_ns for f in frames]
        assert [f.timestamp_ns for f in back] == expected
        assert [f.data for f in back] == [f.data for f in frames]
        assert [f.orig_len for f in back] == [f.orig_len for f in frames]


def test_pcap_ns_preserves_sub_microsecond(tmp_path):
    frames = [CapturedFrame(timestamp_ns=1_000_000_123, link_type=1, data=b"x" * 60, orig_len=60)]
    path = tmp_path / "ns.pcap"
    synth.emit_capture(frames, path, "pcap-ns")
    (back,) = read_capture(path)
    assert back.timestamp_ns == 1_000_000_123


def test_emit_capture_refuses_an_unknown_format(tmp_path):
    path = tmp_path / "capture.erf"
    with pytest.raises(ValueError, match="unknown capture format 'erf'"):
        capture.emit_capture([], path, "erf")
    assert not path.exists()


def test_big_endian_pcap(tmp_path):
    path = tmp_path / "be.pcap"
    path.write_bytes(wire.pcap_bytes(">", 0xA1B2C3D4, [(2, 7, b"abcd", 4)]))
    (frame,) = read_capture(path)
    assert frame.timestamp_ns == 2_000_007_000
    assert frame.data == b"abcd"


def test_unknown_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"\xde\xad\xbe\xef" + bytes(60))
    with pytest.raises(UnknownMagic):
        read_capture(path)


def test_missing_file():
    with pytest.raises(UnreadableFile):
        read_capture("/nonexistent/file.pcap")


def test_unsupported_link_type(tmp_path):
    path = tmp_path / "wifi.pcap"
    path.write_bytes(wire.pcap_bytes("<", 0xA1B2C3D4, [], link_type=105))
    with pytest.raises(UnknownLinkType):
        read_capture(path)


def test_truncated_trailing_record_skipped_with_warning(tmp_path, caplog):
    path = tmp_path / "trunc.pcap"
    cut = struct.pack("<IIII", 2, 0, 100, 100) + b"cut"  # body shorter than caplen
    path.write_bytes(wire.pcap_bytes("<", 0xA1B2C3D4, [(1, 0, b"good", 4)], tail=cut))
    with caplog.at_level(logging.WARNING):
        frames = read_capture(path)
    assert len(frames) == 1
    assert frames[0].data == b"good"
    assert any("truncated" in r.message for r in caplog.records)


def test_pcapng_skips_unknown_blocks(tmp_path, clean_scenario):
    frames, _, _ = synth.generate(clean_scenario)
    path = tmp_path / "blocks.pcapng"
    synth.emit_capture(frames, path, "pcapng")
    raw = path.read_bytes()
    # splice a custom block (type 0x0BAD) right after the SHB and IDB
    shb_len = struct.unpack_from("<I", raw, 4)[0]
    idb_len = struct.unpack_from("<I", raw, shb_len + 4)[0]
    cut = shb_len + idb_len
    path.write_bytes(raw[:cut] + wire.ng_block("<", 0x0BAD, bytes(8)) + raw[cut:])
    back = read_capture(path)
    assert len(back) == len(frames)


def test_pcapng_microsecond_default_resolution(tmp_path):
    path = tmp_path / "us.pcapng"
    # no if_tsresol option -> 10^-6: the ticks are microseconds
    path.write_bytes(wire.shb("<") + wire.idb("<", 1) + wire.epb("<", 0, 1_500_000, b"z" * 16))
    (frame,) = read_capture(path)
    assert frame.timestamp_ns == 1_500_000_000


def test_pcapng_option_value_past_its_block_exits_2(tmp_path, capsys):
    # IDB options end right after an if_tsresol header (code 9, length 1): no value byte
    path = tmp_path / "short-option.pcapng"
    path.write_bytes(wire.shb("<") + wire.idb("<", 1, bytes.fromhex("09000100")))
    with pytest.raises(MalformedHeader, match="short-option.pcapng"):
        read_capture(path)
    assert main(["analyze", "--pcap", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}: ")


# -- chunked pcap reading ------------------------------------------------------

def _frames_and_warnings(path, caplog):
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="tlslayers.capture"):
        frames = read_capture(path)
    return frames, [r.getMessage() for r in caplog.records]


def _warning_kinds(messages, kinds):
    """The kind each warning names, repeated as many times as the records it says were skipped."""
    found = []
    for m in messages:
        count = re.search(r": (\d+) ", m)
        found += [w for w in kinds if w in m] * (int(count[1]) if count else 1)
    return found


def _read_with_warnings(path, caplog):
    frames, messages = _frames_and_warnings(path, caplog)
    return frames, _warning_kinds(messages, reference.PCAP_WARNINGS)


def _random_records(rng, count, max_len):
    return [
        (rng.randrange(2**32), rng.randrange(1_000_000), rng.randbytes(size), size + rng.choice((0, 0, 7)))
        for size in (rng.randint(0, max_len) for _ in range(count))
    ]


@pytest.mark.parametrize("endian,magic", [("<", 0xA1B2C3D4), (">", 0xA1B2C3D4), ("<", 0xA1B23C4D), (">", 0xA1B23C4D)])
@pytest.mark.parametrize("chunk", [1, 5, 16, 17, 40, 97])
def test_records_straddling_chunk_edges_match_reference(tmp_path, caplog, monkeypatch, endian, magic, chunk):
    # With a small chunk every header and body offset relative to a chunk edge
    # occurs, including records several chunks long and zero-length records.
    monkeypatch.setattr(capture, "_CHUNK", chunk)
    rng = random.Random(chunk)
    records = _random_records(rng, 40, 3 * chunk + 20)
    endings = {
        "clean": b"",
        "cut header": struct.pack(endian + "III", 1, 2, 3),
        "cut body": struct.pack(endian + "IIII", 1, 2, 50, 50) + b"x" * 49,
    }
    for label, tail in endings.items():
        raw = wire.pcap_bytes(endian, magic, records, tail)
        path = tmp_path / "chunks.pcap"
        path.write_bytes(raw)
        expected = reference.read_pcap(raw)
        assert expected[0], label
        assert _read_with_warnings(path, caplog) == expected, label


@pytest.mark.parametrize("endian", ["<", ">"])
def test_real_chunk_edge_and_record_larger_than_chunk(tmp_path, caplog, endian):
    chunk = capture._CHUNK
    # the second record's header starts 7 bytes before the first chunk edge
    first = b"a" * (chunk - 24 - 16 - 7)
    big = bytes(range(256)) * ((chunk + 4096) // 256)  # longer than a whole chunk
    records = [(1, 10, first, len(first)), (2, 20, b"header straddles", 16), (3, 30, big, len(big)), (4, 40, b"end", 3)]
    raw = wire.pcap_bytes(endian, 0xA1B2C3D4, records)
    path = tmp_path / "edge.pcap"
    path.write_bytes(raw)
    frames, warnings = _read_with_warnings(path, caplog)
    assert (frames, warnings) == reference.read_pcap(raw)
    assert [f.data for f in frames] == [r[2] for r in records]
    assert [f.timestamp_ns for f in frames] == [1_000_010_000, 2_000_020_000, 3_000_030_000, 4_000_040_000]


def test_truncated_trailing_record_header_warns(tmp_path, caplog):
    path = tmp_path / "cut-header.pcap"
    path.write_bytes(wire.pcap_bytes("<", 0xA1B2C3D4, [(1, 0, b"good", 4)], tail=bytes(15)))
    frames, warnings = _read_with_warnings(path, caplog)
    assert [f.data for f in frames] == [b"good"]
    assert warnings == ["truncated trailing record header"]


def test_zero_length_record_skipped_with_warning(tmp_path, caplog):
    path = tmp_path / "zero.pcap"
    # the last record is a bare 16-byte header: zero-length, not a truncated header
    records = [(1, 5, b"one", 3), (2, 0, b"", 0), (3, 7, b"two", 3), (4, 0, b"", 0)]
    path.write_bytes(wire.pcap_bytes(">", 0xA1B23C4D, records))
    frames, warnings = _read_with_warnings(path, caplog)
    assert [(f.timestamp_ns, f.data) for f in frames] == [(1_000_000_005, b"one"), (3_000_000_007, b"two")]
    assert warnings == ["zero-length record", "zero-length record"]


@pytest.mark.parametrize("fmt", ["pcap", "pcapng"])
def test_zero_length_records_warn_once_with_their_count(tmp_path, caplog, fmt):
    # a hostile capture of zero-length records writes one line, not one per record
    if fmt == "pcap":
        raw = wire.pcap_bytes("<", 0xA1B2C3D4, [(i, 0, b"", 0) for i in range(10_000)])
    else:
        raw = _pcapng_section(">", [(i, b"") for i in range(10_000)])
    path = tmp_path / f"zeros.{fmt}"
    path.write_bytes(raw)
    assert _frames_and_warnings(path, caplog) == ([], [f"{path}: 10000 zero-length records skipped"])


# -- pcapng sections and length claims -----------------------------------------

def _pcapng_section(endian, packets):
    """One pcapng section in byte order `endian`: SHB, an Ethernet IDB with
    nanosecond resolution, and one EPB per (ticks, data)."""
    blocks = [wire.shb(endian), wire.idb(endian, 1, wire.tsresol(endian, 9))]
    return b"".join(blocks + [wire.epb(endian, 0, ticks, data) for ticks, data in packets])


@pytest.mark.parametrize("first,second", [("<", ">"), (">", "<")])
def test_pcapng_sections_may_differ_in_byte_order(tmp_path, caplog, first, second):
    path = tmp_path / "mixed.pcapng"
    path.write_bytes(
        _pcapng_section(first, [(1_000_000_123, b"first")])
        + _pcapng_section(second, [(2_000_000_456, b"second"), (5_000_000_789_000, b"third!!")])
    )
    frames, warnings = _frames_and_warnings(path, caplog)
    assert [(f.timestamp_ns, f.data) for f in frames] == [
        (1_000_000_123, b"first"), (2_000_000_456, b"second"), (5_000_000_789_000, b"third!!"),
    ]
    assert warnings == []


def test_pcapng_zero_length_record_warns_like_pcap(tmp_path, caplog):
    path = tmp_path / "zero.pcapng"
    path.write_bytes(_pcapng_section("<", [(1, b"one"), (2, b""), (3, b"two"), (4, b"")]))
    frames, warnings = _read_with_warnings(path, caplog)
    assert [(f.timestamp_ns, f.data) for f in frames] == [(1, b"one"), (3, b"two")]
    assert warnings == ["zero-length record", "zero-length record"]


def test_pcapng_bad_byte_order_magic_in_later_section(tmp_path):
    second = bytearray(_pcapng_section(">", [(2, b"second")]))
    second[8:12] = b"\xde\xad\xbe\xef"
    path = tmp_path / "bad-bom.pcapng"
    path.write_bytes(_pcapng_section("<", [(1, b"first")]) + second)
    with pytest.raises(UnknownMagic):
        read_capture(path)


@pytest.mark.parametrize("total_len", [8, 11])
def test_pcapng_implausible_shb_length_warns(tmp_path, caplog, total_len):
    raw = bytearray(_pcapng_section("<", [(1, b"frame")]))
    struct.pack_into("<I", raw, 4, total_len)
    path = tmp_path / "shb.pcapng"
    path.write_bytes(raw)
    frames, warnings = _frames_and_warnings(path, caplog)
    assert frames == []
    assert warnings == [f"{path}: implausible block length {total_len}, stopping"]


CLAIM = 64 << 20  # a length field's claim, with at most 40 bytes behind it


@pytest.mark.parametrize("fmt", ["pcap", "pcapng"])
def test_length_claim_beyond_end_of_file_allocates_nothing(tmp_path, caplog, fmt):
    if fmt == "pcap":
        raw = wire.pcap_bytes("<", 0xA1B2C3D4, [(1, 0, b"good", 4)], tail=struct.pack("<IIII", 2, 0, CLAIM, CLAIM) + bytes(40))
        warning = "truncated trailing record body"
    else:
        raw = _pcapng_section("<", [(1, b"good")]) + struct.pack("<II", 6, CLAIM) + bytes(32)
        warning = "truncated block body"
    path = tmp_path / f"claim.{fmt}"
    path.write_bytes(raw)
    tracemalloc.start()
    try:
        frames, warnings = _frames_and_warnings(path, caplog)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [f.data for f in frames] == [b"good"]
    assert len(warnings) == 1 and warning in warnings[0]
    assert peak < 1 << 20


# -- pcapng against a block-at-a-time reference ----------------------------------

def _random_idb_options(rng, endian):
    """IDB options: maybe an unrelated option, then an if_tsresol of each kind or none."""
    options = b""
    if rng.random() < 0.4:
        name = rng.randbytes(rng.randint(0, 9))
        options += struct.pack(endian + "HH", 2, len(name)) + name + bytes(-len(name) % 4)
    resolution = rng.choice(("default", "pow10", "pow2"))
    if resolution == "pow10":
        options += struct.pack(endian + "HH", 9, 1) + bytes([rng.choice((0, 3, 6, 9, 10, 12, 15))]) + bytes(3)
    elif resolution == "pow2":
        options += struct.pack(endian + "HH", 9, 1) + bytes([0x80 | rng.choice((0, 10, 20, 30, 32, 40))]) + bytes(3)
    if options and rng.random() < 0.5:
        options += struct.pack(endian + "HH", 0, 0)
    return options


def _random_pcapng(rng):
    out = []
    for _ in range(rng.randint(1, 3)):
        endian = rng.choice("<>")
        out.append(wire.shb(endian))
        interfaces = 0
        for _ in range(rng.randint(1, 14)):
            kind = rng.choices(
                ("idb", "epb", "unknown", "short idb", "short epb",
                 "undefined interface", "long caplen", "zero caplen"),
                weights=(3, 10, 1, 1, 1, 0.3, 1, 1),
            )[0]
            if kind == "idb" or (kind == "epb" and not interfaces):
                linktype = rng.choice((1, 1, 101, 113))
                out.append(wire.idb(endian, linktype, _random_idb_options(rng, endian)))
                interfaces += 1
                continue
            iface = interfaces + rng.randrange(3) if kind == "undefined interface" else rng.randrange(interfaces or 1)
            data = rng.randbytes(0 if kind == "zero caplen" else rng.randint(1, 3000))
            ticks = rng.randrange(2**64)
            caplen = len(data) + rng.randint(4, 40) if kind == "long caplen" else len(data)
            orig_len = len(data) + rng.choice((0, 9))
            body = struct.pack(endian + "IIIII", iface, ticks >> 32, ticks & 0xFFFFFFFF, caplen, orig_len) + data
            if kind == "unknown":
                out.append(wire.ng_block(endian, rng.choice((2, 3, 5, 0x0BAD)), rng.randbytes(rng.randint(0, 40))))
            elif kind == "short idb":
                out.append(wire.ng_block(endian, 1, rng.randbytes(4)))
            elif kind == "short epb":
                out.append(wire.ng_block(endian, 6, body[: rng.choice((0, 4, 16))]))
            else:
                out.append(wire.ng_block(endian, 6, body))
    ending = rng.choice(("clean", "cut header", "cut shb header", "cut body", "implausible length"))
    if ending == "cut header":
        out.append(wire.ng_block(endian, 6, bytes(24))[: rng.randint(1, 7)])
    elif ending == "cut shb header":
        out.append(wire.shb(endian)[: rng.randint(4, 11)])
    elif ending == "cut body":
        out.append(wire.ng_block(endian, 6, bytes(24))[: rng.randint(8, 39)])
    elif ending == "implausible length":
        out.append(wire.ng_block(endian, 6, bytes(24), total=rng.choice((0, 8, 11, 13, 42))))
    return b"".join(out)


def _read_spans_until_error(path):
    """Every span `read_frames` yields, copied out only after the walk ends, and the error class it raised."""
    spans, error = [], None
    with capture.map_capture(path) as buf:
        try:
            for span in capture.read_frames(buf, path):
                spans.append(span)
        except (UnknownMagic, UnknownLinkType, MalformedHeader) as exc:
            error = type(exc)
        return [CapturedFrame(ts, link, buf[start:end], orig) for ts, link, start, end, orig in spans], error


@pytest.mark.parametrize("seed", range(6))
def test_pcapng_matches_block_at_a_time_reference(tmp_path, caplog, monkeypatch, seed):
    # A tiny release stride drops pages behind every frame; the spans copied
    # out after the walk must still hold the frames' bytes.
    monkeypatch.setattr(capture, "_CHUNK", 1)
    rng = random.Random(seed)
    path = tmp_path / "random.pcapng"
    kinds = set()
    for _ in range(40):
        raw = _random_pcapng(rng)
        path.write_bytes(raw)
        expected = reference.read_pcapng(raw)
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="tlslayers.capture"):
            frames, error = _read_spans_until_error(path)
        warnings = _warning_kinds([r.getMessage() for r in caplog.records], reference.PCAPNG_WARNINGS)
        assert (frames, warnings, error) == expected
        kinds.update(expected[1])
        kinds.add(expected[2])
    assert {"truncated block header", "truncated block body", "short EPB", "EPBs shorter than caplen",
            "zero-length record", "simple/obsolete packet blocks skipped"} <= kinds


def test_pcapng_simple_and_obsolete_packet_blocks_are_counted_in_one_warning(tmp_path, caplog):
    # Simple Packet Blocks (type 3) and obsolete Packet Blocks (type 2) carry frames this reader does
    # not read; a capture made only of them must say so, not analyze silently to no frames
    frame = synth._tcp_frame((bytes(6), bytes([10, 0, 0, 1]), 40000), (bytes(6), bytes([10, 0, 0, 2]), 443), 0, 0, 0, 0x02, b"")
    spb = wire.ng_block("<", 3, struct.pack("<I", len(frame)) + frame)
    pb = wire.ng_block("<", 2, struct.pack("<HHIIII", 0, 0, 0, 1, len(frame), len(frame)) + frame)
    path = tmp_path / "spb.pcapng"
    path.write_bytes(_pcapng_idb(1) + spb + pb + spb)
    caplog.clear()
    with caplog.at_level(logging.WARNING):
        result = pipeline.analyze_capture(path, None, "spb")
    assert result.ingest == {"frames": 0, "non_tcp_frames": 0, "malformed_frames": 0}
    assert [r.getMessage() for r in caplog.records] == [f"{path}: 3 simple/obsolete packet blocks skipped"]


def _pcapng_idb(linktype, options=b""):
    return wire.shb("<") + wire.idb("<", linktype, options)


@pytest.mark.parametrize(
    "raw,error,message",
    [
        (b"", UnknownMagic, "shorter than any capture header"),
        (b"\xd4\xc3\xb2", UnknownMagic, "shorter than any capture header"),
        (b"\xde\xad\xbe\xef" + bytes(60), UnknownMagic, "neither pcap nor pcapng"),
        (wire.ng_block("<", 0x0A0D0D0A, b"\xde\xad\xbe\xef" + bytes(12)), UnknownMagic, "bad pcapng byte-order magic"),
        (wire.pcap_bytes("<", 0xA1B2C3D4, [], link_type=105), UnknownLinkType, "link type 105"),
        (_pcapng_idb(105), UnknownLinkType, "link type 105"),
        (struct.pack("<IHHi", 0xA1B2C3D4, 2, 4, 0), MalformedHeader, "pcap global header truncated"),
        (
            _pcapng_idb(1) + wire.ng_block("<", 6, struct.pack("<IIIII", 1, 0, 0, 4, 4) + b"data"),
            MalformedHeader,
            "undefined interface 1",
        ),
        (_pcapng_idb(1, struct.pack("<HH", 2, 9) + b"eth0"), MalformedHeader, "IDB option 2 runs past its block"),
    ],
    ids=[
        "empty", "three bytes", "bad magic", "bad byte-order magic", "pcap link type", "pcapng link type",
        "pcap header cut", "undefined interface", "option past block",
    ],
)
def test_reader_errors_name_the_file(tmp_path, raw, error, message):
    path = tmp_path / "bad.cap"
    path.write_bytes(raw)
    with pytest.raises(error, match=f"^{path}: .*{message}"):
        with capture.map_capture(path) as buf:
            list(capture.read_frames(buf, path))


# -- resident memory ---------------------------------------------------------------

def _rss_file_kib():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("RssFile:"))


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads RssFile from Linux /proc")
def test_reading_a_large_capture_keeps_resident_memory_flat(tmp_path):
    # 24 MiB of filler records: without the page release every mapped page
    # read stays resident and RssFile grows by the file size.
    filler = bytes(range(256)) * 6
    path = tmp_path / "large.pcap"
    records = [(i, 0, filler, len(filler)) for i in range(24 * 1024 * 1024 // len(filler))]
    path.write_bytes(wire.pcap_bytes("<", 0xA1B2C3D4, records))
    samples = []
    with capture.map_capture(path) as buf:
        for i, _span in enumerate(capture.read_frames(buf, path)):
            if i % 256 == 0:
                samples.append(_rss_file_kib())
    assert len(samples) > 60
    assert max(samples) - samples[0] < 8 * 1024


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads RssFile from Linux /proc")
def test_walking_a_large_capture_keeps_resident_memory_flat(tmp_path, monkeypatch):
    # 400 flows one after another, 60 KiB of server data each, 26 MiB in all.
    # The flow buckets hold spans of the capture's map, so assembling a flow
    # faults its pages back in; without the walk's page release RssFile grows
    # by the file size again after the reader has kept it flat.
    payload = bytes(1400)
    server = (bytes(6), bytes([10, 0, 0, 2]), 443)
    frames = []
    for flow in range(400):
        client = (bytes(6), bytes([10, 0, 0, 1]), 10000 + flow)
        frames += [synth._tcp_frame(client, server, 0, 0, 0, 0x02, b""), synth._tcp_frame(server, client, 0, 0, 0, 0x12, b"")]
        frames += [synth._tcp_frame(server, client, 0, 1 + i * len(payload), 0, 0x10, payload) for i in range(44)]
    path = tmp_path / "flows.pcap"
    path.write_bytes(wire.pcap_bytes("<", 0xA1B2C3D4, [(i, 0, data, len(data)) for i, data in enumerate(frames)]))
    assert path.stat().st_size >= 24 << 20
    samples = []
    walk_one = pipeline.analyze_connection

    def sampled(conn, keystore):
        samples.append(_rss_file_kib())
        return walk_one(conn, keystore)

    monkeypatch.setattr(pipeline, "analyze_connection", sampled)
    result = pipeline.analyze_capture(path, None, "flows")
    assert result.counts["total_streams"] == len(samples) == 400
    assert max(samples) - samples[0] < 8 * 1024, (samples[0], max(samples))
