"""Deterministic synthetic captures with known ground-truth timelines.

Scenarios prescribe the six boundary timestamps per connection; the
generator builds the frames of a fully decryptable wire-format session (real
record framing, real AEAD under generator-chosen traffic secrets written to
the key log) whose analysis must recover those boundaries exactly, and
`capture.emit_capture` writes them to a pcap or pcapng file.  Timestamps are
prescribed, not simulated: this module is an oracle, not a performance
model.

Encryption here is coded independently of the analyzer's decryption path
(same public AEAD/HKDF algorithms, separate seal/open code), so round-trip
success is evidence rather than tautology.
"""

from __future__ import annotations

import ipaddress
import json
import struct
from dataclasses import asdict, dataclass, field
from itertools import groupby
from operator import attrgetter
from pathlib import Path
from random import Random

import yaml
from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.ciphers.aead import AESGCM, ChaCha20Poly1305
from cryptography.hazmat.primitives.kdf.hkdf import HKDFExpand

from tlslayers.capture import LINKTYPE_ETHERNET, CapturedFrame, emit_capture
from tlslayers.decode import TcpFlags
from tlslayers.errors import InvalidSpec, UnknownGroup, WriteFailure
from tlslayers.keyschedule import NONCE_LEN, hkdf_label
from tlslayers.keylog import (
    LABEL_CLIENT_AP,
    LABEL_CLIENT_HS,
    LABEL_SERVER_AP,
    LABEL_SERVER_HS,
)
from tlslayers.timeline import BOUNDARIES, EXCLUDED, LAYERS, NS_PER_MS, PARTIAL, VALID
from tlslayers.tlswire import (
    CT_APPLICATION_DATA,
    CT_CHANGE_CIPHER_SPEC,
    CT_HANDSHAKE,
    HT_CERTIFICATE,
    HT_CERTIFICATE_VERIFY,
    HT_ENCRYPTED_EXTENSIONS,
    HT_FINISHED,
    SUITES_BY_ID,
    SUITES_BY_NAME,
    CipherSuite,
    build_handshake_message,
    build_record,
    group_by_name,
    render_client_hello,
    render_server_hello,
)

ANOMALIES = frozenset(
    {"retransmit", "reorder", "drop_keylog", "truncate", "non200", "coalesce_request"}
)

_CLIENT_MAC = bytes.fromhex("020000000001")
_SERVER_MAC = bytes.fromhex("020000000002")

_MIN_SEG = 240
_MAX_SEG = 1448

_SYN, _ACK, _PSH, _FIN = map(int, (TcpFlags.SYN, TcpFlags.ACK, TcpFlags.PSH, TcpFlags.FIN))

# Boundary times stay below 2^31 s, so the frames written after t5 still
# fit classic pcap's 32-bit seconds field.
_BOUNDARY_LIMIT_NS = (1 << 31) * 1_000_000_000
# A body is generated in memory at once; 16 MiB is 100 times the benchmark's largest.
_BODY_LIMIT = 1 << 24


@dataclass(frozen=True)
class ConnectionSpec:
    boundary_times: tuple[int, int, int, int, int, int]  # ns: SYN, SYN-ACK, CH, Fin, GET, 200
    group: str = "x25519"
    cipher_suite: str = "AES_128_GCM_SHA256"
    response_body_bytes: int = 4096
    segmentation_seed: int = 0
    anomalies: frozenset[str] = frozenset()


@dataclass(frozen=True)
class ScenarioSpec:
    connections: tuple[ConnectionSpec, ...]
    client_ip: str = "10.0.0.1"
    server_ip: str = "10.0.0.2"
    server_port: int = 443


def validate_spec(spec: ScenarioSpec) -> None:
    """Raise InvalidSpec, naming the connection where there is one, for a field of the wrong type or value."""
    if not spec.connections:
        raise InvalidSpec("scenario has no connections")
    for name in ("client_ip", "server_ip"):
        value = getattr(spec, name)
        _require(str, name, value)
        try:
            ipaddress.IPv4Address(value)
        except ValueError:
            raise InvalidSpec(f"{name} {value!r} is not an IPv4 address (synth writes IPv4 frames only)") from None
    _require(int, "server_port", spec.server_port)
    if not 1 <= spec.server_port <= 65535:
        raise InvalidSpec(f"server_port {spec.server_port} is outside 1-65535")
    for i, conn in enumerate(spec.connections):
        _require(tuple, f"connection {i}: boundary_times_ns", conn.boundary_times)
        if len(conn.boundary_times) != 6:
            raise InvalidSpec(f"connection {i}: need six boundary times")
        _require(int, f"connection {i}: boundary_times_ns", *conn.boundary_times)
        _require(int, f"connection {i}: response_body_bytes", conn.response_body_bytes)
        _require(int, f"connection {i}: segmentation_seed", conn.segmentation_seed)
        _require(str, f"connection {i}: group", conn.group)
        _require(str, f"connection {i}: cipher_suite", conn.cipher_suite)
        if any(t < 0 for t in conn.boundary_times):
            raise InvalidSpec(f"connection {i}: negative boundary time")
        if list(conn.boundary_times) != sorted(conn.boundary_times):
            raise InvalidSpec(f"connection {i}: boundary times not ordered")
        if conn.boundary_times[-1] >= _BOUNDARY_LIMIT_NS:
            raise InvalidSpec(f"connection {i}: boundary time at or past 2^31 s")
        if not 0 <= conn.response_body_bytes <= _BODY_LIMIT:
            raise InvalidSpec(f"connection {i}: response_body_bytes {conn.response_body_bytes} is outside 0-2^24")
        unknown = set(conn.anomalies) - ANOMALIES
        if unknown:
            raise InvalidSpec(f"connection {i}: unknown anomalies {sorted(unknown)}")
        if conn.cipher_suite not in SUITES_BY_NAME:
            raise InvalidSpec(f"connection {i}: unknown cipher suite {conn.cipher_suite!r}")
        try:
            group_by_name(conn.group)
        except UnknownGroup as exc:
            raise InvalidSpec(f"connection {i}: {exc}") from None


def _listed(name: str, value) -> list:
    """`value`, which must be a list: a string or mapping would be read as its characters or keys."""
    if not isinstance(value, list):
        raise TypeError(f"{name}: expected a list, not {type(value).__name__}")
    return value


def _require(kind: type, name: str, *values) -> None:
    """Raise InvalidSpec unless each value is exactly a `kind`: an int field takes no bool, float or string,
    which `int()` would read as another value, and a name or address field takes no number."""
    for value in values:
        if type(value) is not kind:
            raise InvalidSpec(f"{name}: expected {kind.__name__}, not {type(value).__name__} {value!r}")


def _anomaly_set(value) -> frozenset[str]:
    return frozenset() if value is None else frozenset(_listed("anomalies", value))


# A scenario file's optional fields; an absent one keeps the dataclass default, and validate_spec checks types.
_CONNECTION_FIELDS = ("group", "cipher_suite", "response_body_bytes", "segmentation_seed")
_SCENARIO_FIELDS = ("client_ip", "server_ip", "server_port")


def load_scenario(path: str | Path) -> ScenarioSpec:
    """Read a scenario file (YAML; see docs/scenario_format.md).

    Raises InvalidSpec, naming the connection where there is one, for a file
    that is not YAML or holds a field of the wrong type.
    """
    try:
        with Path(path).open() as fh:
            raw = yaml.safe_load(fh)
    except (yaml.YAMLError, ValueError) as exc:
        raise InvalidSpec(f"{path}: {exc}") from exc
    if not isinstance(raw, dict) or not isinstance(raw.get("connections"), list):
        raise InvalidSpec(f"{path}: expected a mapping with a 'connections' list")
    defaults = raw.get("defaults") or {}
    conns = []
    for i, entry in enumerate(raw["connections"]):
        if not isinstance(entry, dict):
            raise InvalidSpec(f"{path}: connection {i} is not a mapping")
        try:
            merged = {**defaults, **entry}
            if "boundary_times_ns" not in merged:
                raise InvalidSpec(f"{path}: connection {i} lacks boundary_times_ns")
            conns.append(
                ConnectionSpec(
                    boundary_times=tuple(_listed("boundary_times_ns", merged["boundary_times_ns"])),
                    anomalies=_anomaly_set(merged.get("anomalies")),
                    **{k: merged[k] for k in _CONNECTION_FIELDS if k in merged},
                )
            )
        except (ValueError, TypeError) as exc:
            raise InvalidSpec(f"{path}: connection {i}: {exc}") from exc
    try:
        spec = ScenarioSpec(connections=tuple(conns), **{k: raw[k] for k in _SCENARIO_FIELDS if k in raw})
        validate_spec(spec)
    except (ValueError, TypeError, InvalidSpec) as exc:
        raise InvalidSpec(f"{path}: {exc}") from exc
    return spec


# -- ground truth ---------------------------------------------------------------

@dataclass
class ConnectionTruth:
    index: int
    client_random: bytes
    validity: str
    reason: str | None
    boundaries: dict[str, int | None]
    layers_ns: dict[str, int]
    e2e_ns: int | None
    group: str
    key_share_len: int
    client_hello_len: int
    server_hello_len: int
    cipher_suite: str


@dataclass
class GroundTruth:
    connections: list[ConnectionTruth] = field(default_factory=list)

    @property
    def tallies(self) -> dict:
        valid = 0
        partial: dict[str, int] = {}
        excluded: dict[str, int] = {}
        for c in self.connections:
            if c.validity == VALID:
                valid += 1
            elif c.validity == PARTIAL:
                partial[c.reason] = partial.get(c.reason, 0) + 1
            else:
                excluded[c.reason] = excluded.get(c.reason, 0) + 1
        return {
            "total_streams": len(self.connections),
            "valid": valid,
            "partial": dict(sorted(partial.items())),
            "excluded": dict(sorted(excluded.items())),
        }

    def layer_samples_ms(self, layer: str) -> list[float]:
        return [c.layers_ns[layer] / NS_PER_MS for c in self.connections if layer in c.layers_ns]

    def e2e_samples_ms(self) -> list[float]:
        return [c.e2e_ns / NS_PER_MS for c in self.connections if c.e2e_ns is not None]

    def as_dict(self) -> dict:
        return {
            "tallies": self.tallies,
            "connections": [
                {**asdict(c), "client_random": c.client_random.hex()} for c in self.connections
            ],
        }


# -- sealing (encrypt side; the analyzer's open side lives in keyschedule) -------

class _Sealer:
    """Seals one direction's records in one epoch.

    The key and IV are HKDF-Expand-Label outputs (RFC 8446 §7.1) derived by
    `cryptography`'s HKDFExpand, independent of the analyzer's hand-built HMAC
    over precomputed pad states.
    """

    def __init__(self, secret: bytes, suite: CipherSuite):
        algorithm = getattr(hashes, suite.hash_name.upper())()  # hashes.SHA256 or hashes.SHA384
        key, iv = (
            HKDFExpand(algorithm, length, hkdf_label(label, b"", length)).derive(secret)
            for label, length in ((b"key", suite.key_len), (b"iv", NONCE_LEN))
        )
        self.aead = AESGCM(key) if suite.name.startswith("AES") else ChaCha20Poly1305(key)
        self.iv = int.from_bytes(iv, "big")
        self.counter = 0

    def seal(self, inner_type: int, content: bytes, pad: int = 0) -> bytes:
        inner = content + bytes([inner_type]) + b"\x00" * pad
        header = struct.pack(">BHH", CT_APPLICATION_DATA, 0x0303, len(inner) + 16)  # + AEAD tag
        nonce = (self.iv ^ self.counter).to_bytes(NONCE_LEN, "big")
        self.counter += 1
        return header + self.aead.encrypt(nonce, inner, header)


# -- frame construction -----------------------------------------------------------

def _inet_checksum(data: bytes) -> int:
    if len(data) % 2:
        data += b"\x00"
    total = sum(struct.unpack(f">{len(data) // 2}H", data))
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return (~total) & 0xFFFF


def _tcp_frame(
    src: tuple[bytes, bytes, int],
    dst: tuple[bytes, bytes, int],
    ip_id: int,
    seq: int,
    ack: int,
    flags: int,
    payload: bytes,
) -> bytes:
    """One Ethernet/IPv4/TCP frame; `src` and `dst` are (mac, ip, port)."""
    src_mac, src_ip, src_port = src
    dst_mac, dst_ip, dst_port = dst
    tcp_len = 20 + len(payload)
    tcp_hdr = struct.pack(
        ">HHIIBBHHH",
        src_port,
        dst_port,
        seq & 0xFFFFFFFF,
        ack & 0xFFFFFFFF,
        5 << 4,
        flags,
        65535,
        0,
        0,
    )
    pseudo = src_ip + dst_ip + struct.pack(">BBH", 0, 6, tcp_len)
    csum = _inet_checksum(pseudo + tcp_hdr + payload)
    tcp_hdr = tcp_hdr[:16] + struct.pack(">H", csum) + tcp_hdr[18:]

    total_len = 20 + tcp_len
    ip_hdr = struct.pack(
        ">BBHHHBBH4s4s",
        0x45,
        0,
        total_len,
        ip_id & 0xFFFF,
        0x4000,  # DF
        64,
        6,
        0,
        src_ip,
        dst_ip,
    )
    ip_hdr = ip_hdr[:10] + struct.pack(">H", _inet_checksum(ip_hdr)) + ip_hdr[12:]
    eth = dst_mac + src_mac + b"\x08\x00"
    return eth + ip_hdr + tcp_hdr + payload


# -- segmentation -----------------------------------------------------------------

def _segment_stream(
    records: list[tuple[bytes, int]],
    forced_cuts: set[int],
    rng: Random,
) -> list[tuple[int, bytes, int]]:
    """Cut a direction's record stream into (offset, payload, ts) segments.

    Each step draws a length; a forced cut at or before its end ends the segment instead.
    A segment's timestamp is the time of the record containing its first
    byte; extra segments inside one record get a capped 1 microsecond step so
    they never outrun the next record's time.
    """
    stream = b"".join(body for body, _ in records)
    total = len(stream)
    ends = sorted({c for c in forced_cuts if 0 < c < total} | {total})
    segments = []
    k = pos = 0
    r, record_end, j = 0, len(records[0][0]), 0  # the record holding `pos`, and its segments so far
    while pos < total:
        nxt = pos + rng.randint(_MIN_SEG, _MAX_SEG)
        if ends[k] <= nxt:
            nxt = ends[k]
            k += 1
        while record_end <= pos:
            r += 1
            record_end += len(records[r][0])
            j = 0
        base = records[r][1]
        after = records[r + 1][1] if r + 1 < len(records) else base + 10_000_000
        ts = min(base + j * 1000, after - 1) if after > base else base
        segments.append((pos, stream[pos:nxt], ts))
        j += 1
        pos = nxt
    return segments


# -- generation -------------------------------------------------------------------

_REASON_TEXT = {200: "OK", 503: "Service Unavailable"}


def generate(spec: ScenarioSpec) -> tuple[list[CapturedFrame], str, GroundTruth]:
    """Produce (frames, keylog text, ground truth), byte-deterministic per spec; `emit_capture` writes the frames.

    Frames are in time order; equal times keep connection order, then plan order.
    `reorder` on any connection then shuffles the whole capture within 1 ms
    buckets, seeded by the first such connection. Connection i's client port is
    10000 + i mod 50000, so connections 50000 apart share a four-tuple.
    """
    validate_spec(spec)
    client_ip = ipaddress.ip_address(spec.client_ip).packed
    server = (_SERVER_MAC, ipaddress.ip_address(spec.server_ip).packed, spec.server_port)

    frames: list[CapturedFrame] = []
    keylog_lines: list[str] = []
    truth = GroundTruth()

    for index, conn in enumerate(spec.connections):
        rng = Random(f"tlslayers-synth:{index}:{conn.segmentation_seed}")
        client = (_CLIENT_MAC, client_ip, 10000 + (index % 50000))
        conn_frames, lines, ct = _generate_connection(index, conn, rng, client, server)
        frames.extend(conn_frames)
        keylog_lines.extend(lines)
        truth.connections.append(ct)

    frames.sort(key=attrgetter("timestamp_ns"))
    for index, conn in enumerate(spec.connections):
        if "reorder" in conn.anomalies:
            rng = Random(f"tlslayers-reorder:{index}:{conn.segmentation_seed}")
            frames = _shuffle_within_ms(frames, rng)
            break
    return frames, "".join(keylog_lines), truth


def _shuffle_within_ms(frames: list[CapturedFrame], rng: Random) -> list[CapturedFrame]:
    """`frames`, sorted by time, with the frames of each millisecond shuffled among themselves."""
    out = []
    for _, group in groupby(frames, key=lambda f: f.timestamp_ns // NS_PER_MS):
        group = list(group)
        rng.shuffle(group)
        out.extend(group)
    return out


def _generate_connection(
    index: int,
    conn: ConnectionSpec,
    rng: Random,
    client: tuple[bytes, bytes, int],
    server: tuple[bytes, bytes, int],
):
    t0, t1, t2, t3, t4, t5 = conn.boundary_times
    suite = SUITES_BY_NAME[conn.cipher_suite]
    group = group_by_name(conn.group)
    anomalies = conn.anomalies

    client_random = index.to_bytes(4, "big") + rng.randbytes(28)
    server_random = rng.randbytes(32)
    session_id = rng.randbytes(32)
    secrets = {
        LABEL_CLIENT_HS: rng.randbytes(suite.secret_len),
        LABEL_SERVER_HS: rng.randbytes(suite.secret_len),
        LABEL_CLIENT_AP: rng.randbytes(suite.secret_len),
        LABEL_SERVER_AP: rng.randbytes(suite.secret_len),
    }
    keylog_lines = []
    if "drop_keylog" not in anomalies:
        keylog_lines = [
            f"{label} {client_random.hex()} {secret.hex()}\n"
            for label, secret in secrets.items()
        ]

    # handshake messages
    suite_ids = [suite.suite_id] + [s for s in SUITES_BY_ID if s != suite.suite_id]
    ch_msg = render_client_hello(
        client_random,
        [(group.group_id, rng.randbytes(group.client_share_len))],
        offered_groups=[group.group_id],
        session_id=session_id,
        cipher_suite_ids=suite_ids,
    )
    sh_msg = render_server_hello(
        server_random,
        suite.suite_id,
        (group.group_id, rng.randbytes(group.server_share_len)),
        session_id_echo=session_id,
    )

    ee_msg = build_handshake_message(HT_ENCRYPTED_EXTENSIONS, b"\x00\x00")
    cert = rng.randbytes(rng.randint(700, 900))
    cert_body = (
        b"\x00"
        + (len(cert) + 5).to_bytes(3, "big")
        + len(cert).to_bytes(3, "big")
        + cert
        + b"\x00\x00"
    )
    cert_msg = build_handshake_message(HT_CERTIFICATE, cert_body)
    sig = rng.randbytes(256)
    cv_msg = build_handshake_message(
        HT_CERTIFICATE_VERIFY, struct.pack(">HH", 0x0804, len(sig)) + sig
    )
    server_fin_msg = build_handshake_message(HT_FINISHED, rng.randbytes(suite.secret_len))
    client_fin_msg = build_handshake_message(HT_FINISHED, rng.randbytes(suite.secret_len))

    status = 503 if "non200" in anomalies else 200
    http_get = (
        b"GET /customers HTTP/1.1\r\n"
        b"Host: loadtest.internal\r\n"
        b"User-Agent: synth-client\r\n"
        b"Accept: */*\r\n\r\n"
    )
    body = rng.randbytes(conn.response_body_bytes)
    http_head = (
        f"HTTP/1.1 {status} {_REASON_TEXT[status]}\r\n"
        f"Server: synth-backend\r\n"
        f"Content-Type: application/octet-stream\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: close\r\n\r\n"
    ).encode()
    response = http_head + body

    # sealers: one per direction and epoch (independent encrypt path)
    seal_chs = _Sealer(secrets[LABEL_CLIENT_HS], suite)
    seal_shs = _Sealer(secrets[LABEL_SERVER_HS], suite)
    seal_cap = _Sealer(secrets[LABEL_CLIENT_AP], suite)
    seal_sap = _Sealer(secrets[LABEL_SERVER_AP], suite)

    coalesce = "coalesce_request" in anomalies
    t_get = t3 if coalesce else t4
    gap = max(1000, (t3 - t2) // 8) if t3 > t2 else 0

    # client direction records: CH, CCS, Finished, GET
    client_records: list[tuple[bytes, int]] = [
        (build_record(CT_HANDSHAKE, ch_msg, 0x0301), t2),
        (build_record(CT_CHANGE_CIPHER_SPEC, b"\x01"), max(t2, t3 - gap)),
        (seal_chs.seal(CT_HANDSHAKE, client_fin_msg, pad=rng.choice((0, 0, 0, 7))), t3),
        (seal_cap.seal(CT_APPLICATION_DATA, http_get), t_get),
    ]
    fin_rec_off = len(client_records[0][0]) + len(client_records[1][0])
    get_rec_off = fin_rec_off + len(client_records[2][0])
    client_forced = {fin_rec_off} if coalesce else {fin_rec_off, get_rec_off}

    # server direction records: SH, CCS, flight chunks, response
    t_sh = t2 + (t3 - t2) // 4
    flight = ee_msg + cert_msg + cv_msg + server_fin_msg
    n_chunks = rng.randint(1, 3)
    flight_cuts = [0, *sorted(rng.sample(range(1, len(flight)), n_chunks - 1)), len(flight)]
    flight_parts = [flight[a:b] for a, b in zip(flight_cuts, flight_cuts[1:])]
    flight_end = t2 + (t3 - t2) * 3 // 4
    server_records: list[tuple[bytes, int]] = [
        (build_record(CT_HANDSHAKE, sh_msg), t_sh),
        (build_record(CT_CHANGE_CIPHER_SPEC, b"\x01"), t_sh),
    ]
    for i, part in enumerate(flight_parts):
        ts = t_sh + (i + 1) * max(0, flight_end - t_sh) // (len(flight_parts) + 1)
        server_records.append((seal_shs.seal(CT_HANDSHAKE, part), ts))
    resp_off = sum(len(r) for r, _ in server_records)
    resp_chunks = _chunk(response, rng)
    for i, chunk in enumerate(resp_chunks):
        server_records.append((seal_sap.seal(CT_APPLICATION_DATA, chunk), t5 + i * 50_000))

    # segmentation: the forced cut at the Finished gives the client at least two segments
    client_segs = _segment_stream(client_records, client_forced, rng)
    server_segs = _segment_stream(server_records, {resp_off}, rng)

    # the packet plan, in IP-id order: (from_client, seq, ack, flags, payload, ts)
    isn_c = rng.getrandbits(32)
    isn_s = rng.getrandbits(32)
    ip_id = rng.getrandbits(16)
    c_len = sum(len(p) for _, p, _ in client_segs)
    s_len = sum(len(p) for _, p, _ in server_segs)
    t_end = max(ts for _, _, ts in server_segs) + 300_000
    plan = [
        (True, isn_c, 0, _SYN, b"", t0),
        (False, isn_s, isn_c + 1, _SYN | _ACK, b"", t1),
        (True, isn_c + 1, isn_s + 1, _ACK, b"", t1 + (t2 - t1) // 3),
    ]
    first_client_seg = len(plan)
    plan += [(True, isn_c + 1 + off, isn_s + 1, _PSH | _ACK, p, ts) for off, p, ts in client_segs]
    first_server_seg = len(plan)
    plan += [(False, isn_s + 1 + off, isn_c + 1, _PSH | _ACK, p, ts) for off, p, ts in server_segs]
    if t3 > t2:
        plan.append((True, isn_c + 1, isn_s + 1, _ACK, b"", max(t2, t3 - gap // 2)))
    plan += [
        (True, isn_c + 1 + c_len, isn_s + 1, _FIN | _ACK, b"", t_end),
        (False, isn_s + 1 + s_len, isn_c + 2 + c_len, _FIN | _ACK, b"", t_end + 100_000),
        (True, isn_c + 2 + c_len, isn_s + 2 + s_len, _ACK, b"", t_end + 200_000),
    ]

    frames = []
    for i, (from_client, seq, ack, flags, payload, ts) in enumerate(plan, start=1):
        src, dst = (client, server) if from_client else (server, client)
        data = _tcp_frame(src, dst, (ip_id + i) & 0xFFFF, seq, ack, flags, payload)
        frames.append(CapturedFrame(ts, LINKTYPE_ETHERNET, data, len(data)))

    # anomalies, by index into the frames
    if "truncate" in anomalies:
        # snap-cut the segment carrying the status line to 20 payload bytes (caplen < wirelen)
        k = first_server_seg + [off for off, _, _ in server_segs].index(resp_off)
        f = frames[k]
        frames[k] = f._replace(data=f.data[: f.orig_len - len(plan[k][4]) + 20])
    if "retransmit" in anomalies:
        # the second client segment's frame again, five milliseconds later
        f = frames[first_client_seg + 1]
        frames.append(f._replace(timestamp_ns=f.timestamp_ns + 5_000_000))

    bounds = (t0, t1, t2, t3, t_get, t5)
    truth = _connection_truth(index, conn, client_random, group, len(ch_msg), len(sh_msg), bounds)
    return frames, keylog_lines, truth


def _chunk(data: bytes, rng: Random) -> list[bytes]:
    chunks = []
    pos = 0
    while pos < len(data):
        size = rng.randint(1000, 8000)
        chunks.append(data[pos : pos + size])
        pos += size
    return chunks


def _connection_truth(index, conn, client_random, group, ch_len, sh_len, bounds) -> ConnectionTruth:
    """What the analysis must report for one connection; `bounds` are the six boundary times."""
    anomalies = conn.anomalies
    if "drop_keylog" in anomalies:
        validity, reason, n_layers = PARTIAL, "no_keys", 2
    elif "truncate" in anomalies:
        validity, reason, n_layers = PARTIAL, "truncated", 4
    elif "non200" in anomalies:
        validity, reason, n_layers = EXCLUDED, "non200", 0
    else:
        validity, reason, n_layers = VALID, None, 5

    boundaries = dict(zip(BOUNDARIES, bounds))
    if validity == PARTIAL:
        # the walk stops after the boundary that closes its last measurable layer
        boundaries.update(dict.fromkeys(BOUNDARIES[n_layers + 1 :]))
    layers_ns = {LAYERS[i]: bounds[i + 1] - bounds[i] for i in range(n_layers)}
    return ConnectionTruth(
        index=index,
        client_random=client_random,
        validity=validity,
        reason=reason,
        boundaries=boundaries,
        layers_ns=layers_ns,
        e2e_ns=(bounds[-1] - bounds[0]) if validity == VALID else None,
        group=group.name,
        key_share_len=group.client_share_len,
        client_hello_len=ch_len,
        server_hello_len=sh_len,
        cipher_suite=conn.cipher_suite,
    )


def write_outputs(
    spec: ScenarioSpec,
    out_dir: str | Path,
    capture_format: str = "pcap-ns",
) -> dict[str, Path]:
    """Generate a scenario and write capture, key log and ground truth files.

    All three are written or none: when one cannot be written, those written
    before it are removed and `WriteFailure` names the file that failed.
    """
    if capture_format == "pcap-us":  # a capture that rounds the truth's times would contradict it
        for i, conn in enumerate(spec.connections):
            if any(t % 1000 for t in conn.boundary_times):
                raise InvalidSpec(f"connection {i}: pcap-us holds whole microseconds only, and boundary_times_ns do not")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    frames, keylog_text, truth = generate(spec)
    suffix = "pcapng" if capture_format == "pcapng" else "pcap"
    paths = {
        "capture": out_dir / f"capture.{suffix}",
        "keylog": out_dir / "keylog.txt",
        "ground_truth": out_dir / "ground_truth.json",
    }
    truth_text = json.dumps(truth.as_dict(), indent=2, sort_keys=True) + "\n"
    emit_capture(frames, paths["capture"], capture_format)  # its WriteFailure names the path
    written = [paths["capture"]]
    for path, text in ((paths["keylog"], keylog_text), (paths["ground_truth"], truth_text)):
        try:
            path.write_text(text)
        except OSError as exc:
            for done in written:
                done.unlink()
            raise WriteFailure(f"{path}: {exc}") from exc
        written.append(path)
    return paths
