"""NSS key log parsing."""

import codecs

from tlslayers import synth
from tlslayers.keylog import LABELS, parse_keylog
from tlslayers.pipeline import analyze_capture

from conftest import clean_connection_spec


def test_empty_input():
    store = parse_keylog("")
    assert len(store) == 0


def test_single_line_with_48_byte_secret():
    line = f"CLIENT_HANDSHAKE_TRAFFIC_SECRET {'a' * 64} {'b' * 96}\n"
    store = parse_keylog(line)
    assert len(store) == 1
    secret = store.get(bytes.fromhex("a" * 64), "CLIENT_HANDSHAKE_TRAFFIC_SECRET")
    assert secret == bytes.fromhex("b" * 96)
    assert len(secret) == 48


def test_comments_blanks_and_unknown_labels_ignored():
    text = (
        "# comment line\n"
        "\n"
        f"CLIENT_RANDOM {'c' * 64} {'d' * 96}\n"
        f"CLIENT_TRAFFIC_SECRET_0 {'0' * 64} {'1' * 64}\n"
    )
    store = parse_keylog(text)
    assert len(store) == 1
    assert store.unknown_labels == 1


def test_malformed_lines_counted_and_skipped():
    text = (
        f"CLIENT_TRAFFIC_SECRET_0 {'0' * 63} {'1' * 64}\n"  # odd-length hex
        f"CLIENT_TRAFFIC_SECRET_0 {'0' * 64}\n"  # wrong field count
        f"CLIENT_TRAFFIC_SECRET_0 {'zz' * 32} {'1' * 64}\n"  # non-hex
        f"CLIENT_TRAFFIC_SECRET_0 {'0' * 64} {'1' * 20}\n"  # bad secret length
        f"SERVER_TRAFFIC_SECRET_0 {'0' * 64} {'1' * 64}\n"
    )
    store = parse_keylog(text)
    assert len(store) == 1
    assert store.malformed_lines == 4


def test_hex_case_insensitive():
    store = parse_keylog(f"CLIENT_TRAFFIC_SECRET_0 {'AB' * 32} {'CD' * 32}\n")
    assert store.get(bytes.fromhex("ab" * 32), "CLIENT_TRAFFIC_SECRET_0") == bytes.fromhex("cd" * 32)


def test_duplicate_entries_last_wins():
    cr = "9" * 64
    text = (
        f"SERVER_TRAFFIC_SECRET_0 {cr} {'1' * 64}\n"
        f"SERVER_TRAFFIC_SECRET_0 {cr} {'2' * 64}\n"
    )
    store = parse_keylog(text)
    assert store.get(bytes.fromhex(cr), "SERVER_TRAFFIC_SECRET_0") == bytes.fromhex("2" * 64)
    assert store.duplicates == 1


def test_each_repeated_pair_is_one_duplicate_and_the_last_value_wins():
    a, b = "a" * 64, "b" * 64
    text = (
        f"CLIENT_TRAFFIC_SECRET_0 {a} {'1' * 64}\n"
        f"CLIENT_TRAFFIC_SECRET_0 {b} {'2' * 64}\n"  # same label, another connection: not a duplicate
        f"SERVER_TRAFFIC_SECRET_0 {a} {'3' * 64}\n"  # same connection, another label: not a duplicate
        f"CLIENT_TRAFFIC_SECRET_0 {a} {'4' * 64}\n"
        f"CLIENT_TRAFFIC_SECRET_0 {a} {'5' * 64}\n"
        f"SERVER_TRAFFIC_SECRET_0 {a} {'6' * 64}\n"
    )
    store = parse_keylog(text)
    assert store.duplicates == 3
    assert len(store) == 3  # a repeated pair still holds one secret
    assert store.get(bytes.fromhex(a), "CLIENT_TRAFFIC_SECRET_0") == bytes.fromhex("5" * 64)
    assert store.get(bytes.fromhex(a), "SERVER_TRAFFIC_SECRET_0") == bytes.fromhex("6" * 64)
    assert store.get(bytes.fromhex(b), "CLIENT_TRAFFIC_SECRET_0") == bytes.fromhex("2" * 64)


def test_secrets_are_listed_in_label_order_with_gaps():
    cr = bytes.fromhex("c" * 64)
    store = parse_keylog(
        f"SERVER_TRAFFIC_SECRET_0 {cr.hex()} {'1' * 96}\n"
        f"CLIENT_HANDSHAKE_TRAFFIC_SECRET {cr.hex()} {'2' * 64}\n"
    )
    assert LABELS == (
        "CLIENT_HANDSHAKE_TRAFFIC_SECRET",
        "SERVER_HANDSHAKE_TRAFFIC_SECRET",
        "CLIENT_TRAFFIC_SECRET_0",
        "SERVER_TRAFFIC_SECRET_0",
    )
    assert list(store.secrets(cr)) == [bytes.fromhex("2" * 64), None, None, bytes.fromhex("1" * 96)]
    assert list(store.secrets(bytes(32))) == [None] * 4
    assert store.get(bytes(32), "CLIENT_TRAFFIC_SECRET_0") is None


def test_len_counts_secrets_and_rejected_lines_are_malformed_plus_unknown():
    # what the benchmark reports as keylog.entries and keylog.rejected_lines
    a, b = "a" * 64, "b" * 64
    text = (
        "# comment\n"
        "   \n"
        f"  # indented comment with {a} {b}\n"
        f"CLIENT_HANDSHAKE_TRAFFIC_SECRET {a} {'1' * 64}\n"
        f"SERVER_HANDSHAKE_TRAFFIC_SECRET {a} {'2' * 64}\n"
        f"CLIENT_HANDSHAKE_TRAFFIC_SECRET {b} {'3' * 96}\n"
        f"CLIENT_HANDSHAKE_TRAFFIC_SECRET {b} {'4' * 96}\n"  # duplicate: neither an entry nor rejected
        f"CLIENT_RANDOM {a} {'5' * 96}\n"  # unknown
        f"EXPORTER_SECRET {b} {'6' * 64}\n"  # unknown
        f"CLIENT_TRAFFIC_SECRET_0 {a}\n"  # malformed: two fields
        f"CLIENT_TRAFFIC_SECRET_0 {a} {'7' * 64} extra\n"  # malformed: four fields
        f"CLIENT_TRAFFIC_SECRET_0 {a[:-2]} {'7' * 64}\n"  # malformed: 31-byte client_random
    )
    store = parse_keylog(text)
    assert len(store) == 3
    assert (store.malformed_lines, store.unknown_labels, store.duplicates) == (3, 2, 1)
    assert store.malformed_lines + store.unknown_labels == 5


def test_key_log_with_byte_order_mark_keeps_its_first_secret(tmp_path):
    spec = synth.ScenarioSpec(connections=(clean_connection_spec(),))
    frames, keylog_text, _ = synth.generate(spec)
    capture, keylog = tmp_path / "capture.pcap", tmp_path / "keylog.txt"
    synth.emit_capture(frames, capture)
    keylog.write_bytes(codecs.BOM_UTF8 + keylog_text.encode())
    assert keylog_text.startswith(LABELS[0])  # the mark sits before the connection's first secret
    result = analyze_capture(capture, keylog, "bom")
    assert result.counts["valid"] == 1
    assert result.counts["partial"] == {}


def test_synth_keylog_five_connections_twenty_entries():
    spec = synth.ScenarioSpec(
        connections=tuple(clean_connection_spec(offset_ns=i * 10**9, seed=i) for i in range(5))
    )
    _, keylog_text, truth = synth.generate(spec)
    store = parse_keylog(keylog_text)
    assert len(store) == 20
    for ct in truth.connections:
        for label in (
            "CLIENT_HANDSHAKE_TRAFFIC_SECRET",
            "SERVER_HANDSHAKE_TRAFFIC_SECRET",
            "CLIENT_TRAFFIC_SECRET_0",
            "SERVER_TRAFFIC_SECRET_0",
        ):
            assert store.get(ct.client_random, label) is not None
