"""Deterministic synthetic captures with known ground-truth timelines.

Scenarios prescribe the six boundary timestamps per connection; the
generator emits a fully decryptable wire-format session (real record
framing, real AEAD under generator-chosen traffic secrets written to the
key log) whose analysis must recover those boundaries exactly.  Timestamps
are prescribed, not simulated: this module is an oracle, not a performance
model.

Encryption here is coded independently of the analyzer's decryption path
(same public AEAD/HKDF algorithms, separate seal/open code), so round-trip
success is evidence rather than tautology.
"""

from __future__ import annotations

import ipaddress
import json
import struct
from bisect import bisect_right
from dataclasses import dataclass, field
from pathlib import Path
from random import Random
from typing import Iterable

import yaml
from cryptography.hazmat.primitives.ciphers.aead import AESGCM, ChaCha20Poly1305

from tlslayers.capture import (
    CAPTURE_FORMATS,
    LINKTYPE_ETHERNET,
    PCAP_MAGIC_NS,
    PCAP_MAGIC_US,
    CapturedFrame,
)
from tlslayers.errors import InvalidSpec, WriteFailure
from tlslayers.keyschedule import NONCE_LEN, derive_traffic_keys
from tlslayers.keylog import (
    LABEL_CLIENT_AP,
    LABEL_CLIENT_HS,
    LABEL_SERVER_AP,
    LABEL_SERVER_HS,
)
from tlslayers.timeline import EXCLUDED, LAYERS, PARTIAL, VALID
from tlslayers.tlswire import (
    CT_APPLICATION_DATA,
    CT_CHANGE_CIPHER_SPEC,
    CT_HANDSHAKE,
    HT_CERTIFICATE,
    HT_CERTIFICATE_VERIFY,
    HT_ENCRYPTED_EXTENSIONS,
    HT_FINISHED,
    SUITES_BY_NAME,
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

# Boundary times stay below 2^31 s, so the frames written after t5 still
# fit classic pcap's 32-bit seconds field.
_BOUNDARY_LIMIT_NS = (1 << 31) * 1_000_000_000


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
    if not spec.connections:
        raise InvalidSpec("scenario has no connections")
    for name in ("client_ip", "server_ip"):
        value = getattr(spec, name)
        try:
            ipaddress.IPv4Address(value)
        except ValueError:
            raise InvalidSpec(f"{name} {value!r} is not an IPv4 address (synth writes IPv4 frames only)") from None
    if not 1 <= spec.server_port <= 65535:
        raise InvalidSpec(f"server_port {spec.server_port} is outside 1-65535")
    for i, conn in enumerate(spec.connections):
        if len(conn.boundary_times) != 6:
            raise InvalidSpec(f"connection {i}: need six boundary times")
        if any(t < 0 for t in conn.boundary_times):
            raise InvalidSpec(f"connection {i}: negative boundary time")
        if list(conn.boundary_times) != sorted(conn.boundary_times):
            raise InvalidSpec(f"connection {i}: boundary times not ordered")
        if conn.boundary_times[-1] >= _BOUNDARY_LIMIT_NS:
            raise InvalidSpec(f"connection {i}: boundary time at or past 2^31 s")
        if conn.response_body_bytes < 0:
            raise InvalidSpec(f"connection {i}: negative response body size")
        unknown = set(conn.anomalies) - ANOMALIES
        if unknown:
            raise InvalidSpec(f"connection {i}: unknown anomalies {sorted(unknown)}")
        if conn.cipher_suite not in SUITES_BY_NAME:
            raise InvalidSpec(f"connection {i}: unknown cipher suite {conn.cipher_suite!r}")
        group_by_name(conn.group)  # raises UnknownGroup


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
                    boundary_times=tuple(int(t) for t in merged["boundary_times_ns"]),
                    group=str(merged.get("group", "x25519")),
                    cipher_suite=str(merged.get("cipher_suite", "AES_128_GCM_SHA256")),
                    response_body_bytes=int(merged.get("response_body_bytes", 4096)),
                    segmentation_seed=int(merged.get("segmentation_seed", 0)),
                    anomalies=frozenset(merged.get("anomalies") or ()),
                )
            )
        except (ValueError, TypeError) as exc:
            raise InvalidSpec(f"{path}: connection {i}: {exc}") from exc
    try:
        spec = ScenarioSpec(
            connections=tuple(conns),
            client_ip=str(raw.get("client_ip", "10.0.0.1")),
            server_ip=str(raw.get("server_ip", "10.0.0.2")),
            server_port=int(raw.get("server_port", 443)),
        )
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
        return [c.layers_ns[layer] / 1_000_000 for c in self.connections if layer in c.layers_ns]

    def e2e_samples_ms(self) -> list[float]:
        return [c.e2e_ns / 1_000_000 for c in self.connections if c.e2e_ns is not None]

    def as_dict(self) -> dict:
        return {
            "tallies": self.tallies,
            "connections": [
                {
                    "index": c.index,
                    "client_random": c.client_random.hex(),
                    "validity": c.validity,
                    "reason": c.reason,
                    "boundaries": c.boundaries,
                    "layers_ns": c.layers_ns,
                    "e2e_ns": c.e2e_ns,
                    "group": c.group,
                    "key_share_len": c.key_share_len,
                    "client_hello_len": c.client_hello_len,
                    "server_hello_len": c.server_hello_len,
                    "cipher_suite": c.cipher_suite,
                }
                for c in self.connections
            ],
        }


# -- sealing (encrypt side; the analyzer's open side lives in keyschedule) -------

def _seal_record(key: bytes, iv: bytes, suite_name: str, counter: int, inner_type: int, content: bytes, pad: int = 0) -> bytes:
    inner = content + bytes([inner_type]) + b"\x00" * pad
    total = len(inner) + 16  # AEAD tag
    header = struct.pack(">BHH", CT_APPLICATION_DATA, 0x0303, total)
    nonce = (int.from_bytes(iv, "big") ^ counter).to_bytes(NONCE_LEN, "big")
    if suite_name.startswith("AES"):
        aead = AESGCM(key)
    else:
        aead = ChaCha20Poly1305(key)
    return header + aead.encrypt(nonce, inner, header)


class _Sealer:
    def __init__(self, secret: bytes, suite_name: str):
        keys = derive_traffic_keys(secret, suite_name)
        self.key, self.iv = keys.key, keys.iv
        self.suite_name = suite_name
        self.counter = 0

    def seal(self, inner_type: int, content: bytes, pad: int = 0) -> bytes:
        rec = _seal_record(self.key, self.iv, self.suite_name, self.counter, inner_type, content, pad)
        self.counter += 1
        return rec


# -- frame construction -----------------------------------------------------------

def _inet_checksum(data: bytes) -> int:
    if len(data) % 2:
        data += b"\x00"
    total = sum(struct.unpack(f">{len(data) // 2}H", data))
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return (~total) & 0xFFFF


def _tcp_frame(
    src_ip: bytes,
    dst_ip: bytes,
    src_port: int,
    dst_port: int,
    seq: int,
    ack: int,
    flags: int,
    payload: bytes,
    src_mac: bytes,
    dst_mac: bytes,
    ip_id: int,
) -> bytes:
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
    no_random_cuts_from: int | None = None,
) -> list[tuple[int, bytes, int]]:
    """Cut a direction's record stream into (offset, payload, ts) segments.

    A segment's timestamp is the time of the record containing its first
    byte; extra segments inside one record get a capped 1 microsecond step so
    they never outrun the next record's time.
    """
    stream = b"".join(body for body, _ in records)
    offsets = []
    times = []
    pos = 0
    for body, ts in records:
        offsets.append(pos)
        times.append(ts)
        pos += len(body)
    total = pos

    cuts = {0, total} | {c for c in forced_cuts if 0 < c < total}
    pos = 0
    while pos < total:
        nxt = pos + rng.randint(_MIN_SEG, _MAX_SEG)
        forced_ahead = [c for c in cuts if pos < c < nxt]
        if forced_ahead:
            pos = min(forced_ahead)
            continue
        if no_random_cuts_from is not None and nxt > no_random_cuts_from and pos >= no_random_cuts_from:
            break
        if nxt >= total:
            break
        cuts.add(nxt)
        pos = nxt
    cut_list = sorted(cuts)

    segments = []
    seg_index_in_record: dict[int, int] = {}
    for a, b in zip(cut_list, cut_list[1:]):
        r = bisect_right(offsets, a) - 1
        j = seg_index_in_record.get(r, 0)
        seg_index_in_record[r] = j + 1
        base = times[r]
        nxt_time = times[r + 1] if r + 1 < len(times) else base + 10_000_000
        if nxt_time > base:
            ts = min(base + j * 1000, nxt_time - 1)
        else:
            ts = base
        segments.append((a, stream[a:b], ts))
    return segments


# -- generation -------------------------------------------------------------------

_REASON_TEXT = {200: "OK", 503: "Service Unavailable"}


def generate(spec: ScenarioSpec) -> tuple[list[CapturedFrame], str, GroundTruth]:
    """Produce (frames, keylog text, ground truth); byte-deterministic per spec."""
    validate_spec(spec)
    client_ip = ipaddress.ip_address(spec.client_ip).packed
    server_ip = ipaddress.ip_address(spec.server_ip).packed

    all_frames: list[tuple[int, int, bytes, int]] = []  # (ts, order, frame bytes, orig_len)
    keylog_lines: list[str] = []
    truth = GroundTruth()
    order = 0

    for index, conn in enumerate(spec.connections):
        rng = Random(f"tlslayers-synth:{index}:{conn.segmentation_seed}")
        frames, lines, ct = _generate_connection(
            index, conn, rng, client_ip, server_ip, spec.server_port
        )
        for ts, data, orig_len in frames:
            all_frames.append((ts, order, data, orig_len))
            order += 1
        keylog_lines.extend(lines)
        truth.connections.append(ct)

    all_frames.sort(key=lambda f: (f[0], f[1]))

    reorder_rngs = [
        (i, Random(f"tlslayers-reorder:{i}:{c.segmentation_seed}"))
        for i, c in enumerate(spec.connections)
        if "reorder" in c.anomalies
    ]
    if reorder_rngs:
        all_frames = _shuffle_within_ms(all_frames, reorder_rngs[0][1])

    frames_out = [
        CapturedFrame(timestamp_ns=ts, link_type=LINKTYPE_ETHERNET, data=data, orig_len=orig_len)
        for ts, _, data, orig_len in all_frames
    ]
    return frames_out, "".join(keylog_lines), truth


def _shuffle_within_ms(frames: list[tuple[int, int, bytes, int]], rng: Random) -> list:
    buckets: dict[int, list] = {}
    for f in frames:
        buckets.setdefault(f[0] // 1_000_000, []).append(f)
    out = []
    for key in sorted(buckets):
        group = buckets[key]
        rng.shuffle(group)
        out.extend(group)
    return out


def _generate_connection(
    index: int,
    conn: ConnectionSpec,
    rng: Random,
    client_ip: bytes,
    server_ip: bytes,
    server_port: int,
):
    t0, t1, t2, t3, t4, t5 = conn.boundary_times
    suite = SUITES_BY_NAME[conn.cipher_suite]
    group = group_by_name(conn.group)
    anomalies = conn.anomalies
    client_port = 10000 + (index % 50000)

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
    suite_ids = [suite.suite_id] + [s for s in (0x1301, 0x1302, 0x1303) if s != suite.suite_id]
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
    hash_len = 32 if suite.hash_name == "sha256" else 48
    server_fin_msg = build_handshake_message(HT_FINISHED, rng.randbytes(hash_len))
    client_fin_msg = build_handshake_message(HT_FINISHED, rng.randbytes(hash_len))

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
    seal_chs = _Sealer(secrets[LABEL_CLIENT_HS], suite.name)
    seal_shs = _Sealer(secrets[LABEL_SERVER_HS], suite.name)
    seal_cap = _Sealer(secrets[LABEL_CLIENT_AP], suite.name)
    seal_sap = _Sealer(secrets[LABEL_SERVER_AP], suite.name)

    coalesce = "coalesce_request" in anomalies
    gap = max(1000, (t3 - t2) // 8) if t3 > t2 else 0

    # client direction records: CH, CCS, Finished, GET
    client_records: list[tuple[bytes, int]] = [
        (build_record(CT_HANDSHAKE, ch_msg, 0x0301), t2),
        (build_record(CT_CHANGE_CIPHER_SPEC, b"\x01"), max(t2, t3 - gap)),
        (seal_chs.seal(CT_HANDSHAKE, client_fin_msg, pad=rng.choice((0, 0, 0, 7))), t3),
        (seal_cap.seal(CT_APPLICATION_DATA, http_get), t3 if coalesce else t4),
    ]
    ch_rec_len = len(client_records[0][0])
    ccs_len = len(client_records[1][0])
    fin_rec_off = ch_rec_len + ccs_len
    get_rec_off = fin_rec_off + len(client_records[2][0])
    client_forced = {fin_rec_off} if coalesce else {fin_rec_off, get_rec_off}

    # server direction records: SH, CCS, flight chunks, response
    t_sh = t2 + (t3 - t2) // 4
    flight = ee_msg + cert_msg + cv_msg + server_fin_msg
    n_chunks = rng.randint(1, 3)
    cut_points = sorted(rng.sample(range(1, len(flight)), n_chunks - 1)) if n_chunks > 1 else []
    flight_parts = []
    prev = 0
    for cp in cut_points + [len(flight)]:
        flight_parts.append(flight[prev:cp])
        prev = cp
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
    server_forced = {resp_off}

    # segmentation
    client_segs = _segment_stream(
        client_records,
        client_forced,
        rng,
        no_random_cuts_from=fin_rec_off if coalesce else None,
    )
    server_segs = _segment_stream(server_records, server_forced, rng)

    # packets
    isn_c = rng.getrandbits(32)
    isn_s = rng.getrandbits(32)
    ip_id = rng.getrandbits(16)

    def frame(src_is_client, seq, ack, flags, payload, ts):
        nonlocal ip_id
        ip_id = (ip_id + 1) & 0xFFFF
        if src_is_client:
            data = _tcp_frame(
                client_ip, server_ip, client_port, server_port,
                seq, ack, flags, payload, _CLIENT_MAC, _SERVER_MAC, ip_id,
            )
        else:
            data = _tcp_frame(
                server_ip, client_ip, server_port, client_port,
                seq, ack, flags, payload, _SERVER_MAC, _CLIENT_MAC, ip_id,
            )
        return (ts, data, len(data))

    SYN, ACK, PSH, FIN = 0x02, 0x10, 0x08, 0x01
    frames = [
        frame(True, isn_c, 0, SYN, b"", t0),
        frame(False, isn_s, isn_c + 1, SYN | ACK, b"", t1),
        frame(True, isn_c + 1, isn_s + 1, ACK, b"", t1 + (t2 - t1) // 3),
    ]
    for off, payload, ts in client_segs:
        frames.append(frame(True, isn_c + 1 + off, isn_s + 1, PSH | ACK, payload, ts))
    for off, payload, ts in server_segs:
        frames.append(frame(False, isn_s + 1 + off, isn_c + 1, PSH | ACK, payload, ts))
    if t3 > t2:
        frames.append(frame(True, isn_c + 1, isn_s + 1, ACK, b"", max(t2, t3 - gap // 2)))

    c_len = sum(len(p) for _, p, _ in client_segs)
    s_len = sum(len(p) for _, p, _ in server_segs)
    t_end = max(ts for _, _, ts in server_segs) + 300_000
    frames.append(frame(True, isn_c + 1 + c_len, isn_s + 1, FIN | ACK, b"", t_end))
    frames.append(frame(False, isn_s + 1 + s_len, isn_c + 2 + c_len, FIN | ACK, b"", t_end + 100_000))
    frames.append(frame(True, isn_c + 2 + c_len, isn_s + 2 + s_len, ACK, b"", t_end + 200_000))

    # anomalies over the built packets
    if "truncate" in anomalies:
        frames = _truncate_status_segment(frames, server_segs, resp_off, isn_s)
    if "retransmit" in anomalies:
        frames.extend(_retransmissions(frames, client_segs, server_segs, isn_c, isn_s))

    truth = _connection_truth(
        index, conn, client_random, group, suite,
        len(ch_msg), len(sh_msg), t0, t1, t2, t3, t4, t5, coalesce,
    )
    return frames, keylog_lines, truth


def _chunk(data: bytes, rng: Random) -> list[bytes]:
    if not data:
        return [b""]
    chunks = []
    pos = 0
    while pos < len(data):
        size = rng.randint(1000, 8000)
        chunks.append(data[pos : pos + size])
        pos += size
    return chunks


def _truncate_status_segment(frames, server_segs, resp_off, isn_s):
    """Snap-cut the segment carrying the HTTP status line (caplen < wirelen)."""
    target_seq = (isn_s + 1 + resp_off) & 0xFFFFFFFF
    out = []
    for ts, data, orig_len in frames:
        seq = struct.unpack(">I", data[38:42])[0]
        src_port = struct.unpack(">H", data[34:36])[0]
        payload_len = len(data) - 54
        if payload_len > 40 and seq == target_seq and src_port != 0 and len(data) == orig_len:
            out.append((ts, data[: 54 + 20], orig_len))  # keep 20 payload bytes
        else:
            out.append((ts, data, orig_len))
    return out


def _retransmissions(frames, client_segs, server_segs, isn_c, isn_s):
    """Duplicate the second data segment five milliseconds later."""
    segs = client_segs if len(client_segs) > 1 else server_segs
    isn = isn_c if len(client_segs) > 1 else isn_s
    if len(segs) < 2:
        return []
    off, payload, _ = segs[1]
    target_seq = (isn + 1 + off) & 0xFFFFFFFF
    for ts, data, orig_len in frames:
        if len(data) - 54 == len(payload) and struct.unpack(">I", data[38:42])[0] == target_seq:
            return [(ts + 5_000_000, data, orig_len)]
    return []


def _connection_truth(
    index, conn, client_random, group, suite, ch_len, sh_len,
    t0, t1, t2, t3, t4, t5, coalesce,
) -> ConnectionTruth:
    anomalies = conn.anomalies
    t_get = t3 if coalesce else t4
    boundaries = {
        "t_syn": t0,
        "t_synack": t1,
        "t_clienthello": t2,
        "t_client_finished": t3,
        "t_http_get": t_get,
        "t_http_200": t5,
    }
    layer_bounds = [t0, t1, t2, t3, t_get, t5]

    if "drop_keylog" in anomalies:
        validity, reason, n_layers = PARTIAL, "no_keys", 2
        boundaries.update(t_client_finished=None, t_http_get=None, t_http_200=None)
    elif "truncate" in anomalies:
        validity, reason, n_layers = PARTIAL, "truncated", 4
        boundaries.update(t_http_200=None)
    elif "non200" in anomalies:
        validity, reason, n_layers = EXCLUDED, "non200", 0
    else:
        validity, reason, n_layers = VALID, None, 5

    layers_ns = {
        LAYERS[i]: layer_bounds[i + 1] - layer_bounds[i] for i in range(n_layers)
    }
    return ConnectionTruth(
        index=index,
        client_random=client_random,
        validity=validity,
        reason=reason,
        boundaries=boundaries,
        layers_ns=layers_ns,
        e2e_ns=(t5 - t0) if validity == VALID else None,
        group=group.name,
        key_share_len=group.client_share_len,
        client_hello_len=ch_len,
        server_hello_len=sh_len,
        cipher_suite=suite.name,
    )


# -- capture emission --------------------------------------------------------------

def emit_capture(frames: Iterable[CapturedFrame], path: str | Path, fmt: str = "pcap-ns") -> None:
    """Write frames to a bit-valid capture file in the requested format."""
    if fmt not in CAPTURE_FORMATS:
        raise ValueError(f"unknown capture format {fmt!r}")
    path = Path(path)
    try:
        with path.open("wb") as fh:
            if fmt == "pcapng":
                _write_pcapng(fh, frames)
            else:
                _write_pcap(fh, frames, ns=(fmt == "pcap-ns"))
    except OSError as exc:
        raise WriteFailure(f"{path}: {exc}") from exc


def _write_pcap(fh, frames, ns: bool) -> None:
    magic = PCAP_MAGIC_NS if ns else PCAP_MAGIC_US
    fh.write(struct.pack("<IHHiIII", magic, 2, 4, 0, 0, 262144, LINKTYPE_ETHERNET))
    for f in frames:
        sec, rem = divmod(f.timestamp_ns, 1_000_000_000)
        frac = rem if ns else rem // 1000
        fh.write(struct.pack("<IIII", sec, frac, len(f.data), f.orig_len))
        fh.write(f.data)


def _pad4(data: bytes) -> bytes:
    return data + b"\x00" * (-len(data) % 4)


def _block(block_type: int, body: bytes) -> bytes:
    body = _pad4(body)
    total = len(body) + 12
    return struct.pack("<II", block_type, total) + body + struct.pack("<I", total)


def _write_pcapng(fh, frames) -> None:
    fh.write(_block(0x0A0D0D0A, struct.pack("<IHHq", 0x1A2B3C4D, 1, 0, -1)))
    # IDB with if_tsresol = 9 (nanoseconds)
    opts = struct.pack("<HH", 9, 1) + b"\x09\x00\x00\x00" + struct.pack("<HH", 0, 0)
    fh.write(_block(0x00000001, struct.pack("<HHI", LINKTYPE_ETHERNET, 0, 262144) + opts))
    for f in frames:
        body = struct.pack(
            "<IIIII",
            0,
            (f.timestamp_ns >> 32) & 0xFFFFFFFF,
            f.timestamp_ns & 0xFFFFFFFF,
            len(f.data),
            f.orig_len,
        ) + _pad4(f.data)
        fh.write(_block(0x00000006, body))


def write_outputs(
    spec: ScenarioSpec,
    out_dir: str | Path,
    capture_format: str = "pcap-ns",
) -> dict[str, Path]:
    """Generate a scenario and write capture, key log and ground truth files."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    frames, keylog_text, truth = generate(spec)
    suffix = "pcapng" if capture_format == "pcapng" else "pcap"
    paths = {
        "capture": out_dir / f"capture.{suffix}",
        "keylog": out_dir / "keylog.txt",
        "ground_truth": out_dir / "ground_truth.json",
    }
    emit_capture(frames, paths["capture"], capture_format)
    try:
        paths["keylog"].write_text(keylog_text)
        paths["ground_truth"].write_text(json.dumps(truth.as_dict(), indent=2, sort_keys=True) + "\n")
    except OSError as exc:
        raise WriteFailure(str(exc)) from exc
    return paths
