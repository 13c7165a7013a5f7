"""NSS key log (SSLKEYLOGFILE) parsing.

Line format, bit-exact: ``<LABEL> <client_random hex> <secret hex>``.
Only the four TLS 1.3 traffic-secret labels are stored; anything else
(e.g. TLS 1.2 CLIENT_RANDOM lines) is counted and ignored.  The store holds
one list of four secrets per client_random, in `LABELS` order, so the walk
finds a connection's secrets with one lookup.
"""

from __future__ import annotations

from tlslayers.errors import warn
from tlslayers.tlswire import SUITES_BY_ID

LABEL_CLIENT_HS = "CLIENT_HANDSHAKE_TRAFFIC_SECRET"
LABEL_SERVER_HS = "SERVER_HANDSHAKE_TRAFFIC_SECRET"
LABEL_CLIENT_AP = "CLIENT_TRAFFIC_SECRET_0"
LABEL_SERVER_AP = "SERVER_TRAFFIC_SECRET_0"

# the order the walk derives in: a connection's handshake keys, then its application keys
LABELS = (LABEL_CLIENT_HS, LABEL_SERVER_HS, LABEL_CLIENT_AP, LABEL_SERVER_AP)
_SLOT = {label: i for i, label in enumerate(LABELS)}

_SECRET_LENGTHS = frozenset(s.secret_len for s in SUITES_BY_ID.values())

_NO_SECRETS = (None,) * len(LABELS)


class KeyLogStore:
    """Traffic secrets by client_random: one list of secrets (None where not logged) in `LABELS` order."""

    __slots__ = ("_secrets", "malformed_lines", "unknown_labels", "duplicates")

    def __init__(self) -> None:
        self._secrets: dict[bytes, list[bytes | None]] = {}
        self.malformed_lines = 0
        self.unknown_labels = 0
        self.duplicates = 0

    def insert(self, client_random: bytes, label: str, secret: bytes) -> None:
        slot = _SLOT[label]
        secrets = self._secrets.get(client_random)
        if secrets is None:
            secrets = self._secrets[client_random] = [None] * len(LABELS)
        if secrets[slot] is not None:
            # Re-keying exporters append; observed behavior is last-wins.
            self.duplicates += 1
            warn(__name__, "duplicate keylog entry for %s/%s, keeping last", client_random.hex(), label)
        secrets[slot] = secret

    def secrets(self, client_random: bytes) -> list[bytes | None] | tuple[None, ...]:
        """The connection's secrets in `LABELS` order, each None where not logged."""
        return self._secrets.get(client_random, _NO_SECRETS)

    def get(self, client_random: bytes, label: str) -> bytes | None:
        return self.secrets(client_random)[_SLOT[label]]

    def __len__(self) -> int:
        """The number of secrets held."""
        return sum(secret is not None for secrets in self._secrets.values() for secret in secrets)


def parse_keylog(text: str) -> KeyLogStore:
    """Parse key-log text; malformed lines are recorded and skipped."""
    store = KeyLogStore()
    malformed = unknown = 0
    for line in text.splitlines():
        fields = line.split()
        # a blank line has no fields, and a comment's first field starts with "#"
        if len(fields) != 3:
            if fields and not fields[0].startswith("#"):
                malformed += 1
            continue
        label, random_hex, secret_hex = fields
        if label not in _SLOT:
            if not label.startswith("#"):
                unknown += 1
            continue
        try:
            client_random = bytes.fromhex(random_hex)
            secret = bytes.fromhex(secret_hex)
        except ValueError:
            malformed += 1
            continue
        if len(client_random) != 32 or len(secret) not in _SECRET_LENGTHS:
            malformed += 1
            continue
        store.insert(client_random, label, secret)
    store.malformed_lines, store.unknown_labels = malformed, unknown
    return store

