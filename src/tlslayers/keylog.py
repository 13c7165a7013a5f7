"""NSS key log (SSLKEYLOGFILE) parsing.

Line format, bit-exact: ``<LABEL> <client_random hex> <secret hex>``.
Only the four TLS 1.3 traffic-secret labels are stored; anything else
(e.g. TLS 1.2 CLIENT_RANDOM lines) is counted and ignored.
"""

from __future__ import annotations

from tlslayers.errors import warn
from tlslayers.tlswire import SUITES_BY_ID

LABEL_CLIENT_HS = "CLIENT_HANDSHAKE_TRAFFIC_SECRET"
LABEL_SERVER_HS = "SERVER_HANDSHAKE_TRAFFIC_SECRET"
LABEL_CLIENT_AP = "CLIENT_TRAFFIC_SECRET_0"
LABEL_SERVER_AP = "SERVER_TRAFFIC_SECRET_0"

KNOWN_LABELS = frozenset({LABEL_CLIENT_HS, LABEL_SERVER_HS, LABEL_CLIENT_AP, LABEL_SERVER_AP})

_SECRET_LENGTHS = frozenset(s.secret_len for s in SUITES_BY_ID.values())


class KeyLogStore:
    """Traffic secrets keyed by (client_random, label)."""

    __slots__ = ("_entries", "malformed_lines", "unknown_labels", "duplicates")

    def __init__(self) -> None:
        self._entries: dict[tuple[bytes, str], bytes] = {}
        self.malformed_lines = 0
        self.unknown_labels = 0
        self.duplicates = 0

    def insert(self, client_random: bytes, label: str, secret: bytes) -> None:
        key = (client_random, label)
        if key in self._entries:
            # Re-keying exporters append; observed behavior is last-wins.
            self.duplicates += 1
            warn(__name__, "duplicate keylog entry for %s/%s, keeping last", client_random.hex(), label)
        self._entries[key] = secret

    def get(self, client_random: bytes, label: str) -> bytes | None:
        return self._entries.get((client_random, label))

    def __len__(self) -> int:
        return len(self._entries)


def parse_keylog(text: str) -> KeyLogStore:
    """Parse key-log text; malformed lines are recorded and skipped."""
    store = KeyLogStore()
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 3:
            store.malformed_lines += 1
            continue
        label, random_hex, secret_hex = fields
        if label not in KNOWN_LABELS:
            store.unknown_labels += 1
            continue
        try:
            client_random = bytes.fromhex(random_hex)
            secret = bytes.fromhex(secret_hex)
        except ValueError:
            store.malformed_lines += 1
            continue
        if len(client_random) != 32 or len(secret) not in _SECRET_LENGTHS:
            store.malformed_lines += 1
            continue
        store.insert(client_random, label, secret)
    return store

