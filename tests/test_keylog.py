"""NSS key log parsing."""

from tlslayers import synth
from tlslayers.keylog import parse_keylog

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
