"""Slow, obvious references for each stage of `analyze`, each defined once: the tests hold the program to them.

Each is written from the format or rule it models, a byte, record, block or message at a time, and none calls the
fast path it checks. `walk` shares the record parser, key derivation, record decryption and handshake accumulator
with `analyze`, but takes its hellos from `first_message`, `client_hello` and `server_hello`.
"""

import struct
from collections import Counter

from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.kdf.hkdf import HKDFExpand

from tlslayers.capture import CapturedFrame
from tlslayers.errors import MalformedHeader, MalformedHello, UnknownLinkType, UnknownMagic
from tlslayers.keyschedule import decrypt_record, derive_traffic_keys
from tlslayers.timeline import http_status, starts_http_request
from tlslayers.tlswire import (
    CT_APPLICATION_DATA,
    CT_CHANGE_CIPHER_SPEC,
    CT_HANDSHAKE,
    EXT_KEY_SHARE,
    HRR_RANDOM,
    HT_CLIENT_HELLO,
    HT_FINISHED,
    HT_KEY_UPDATE,
    HT_SERVER_HELLO,
    ClientHelloInfo,
    HandshakeAccumulator,
    ServerHelloInfo,
    group_name,
    parse_records,
    suite_by_id,
)

# -- capture ---------------------------------------------------------------------------

PCAP_WARNINGS = ("truncated trailing record header", "truncated trailing record body", "zero-length record")
PCAPNG_WARNINGS = (
    "truncated block header", "implausible block length", "truncated block body",
    "short IDB", "short EPB", "EPBs shorter than caplen", "zero-length record",
    "simple/obsolete packet blocks skipped",
)


def read_pcap(raw):
    """Record-at-a-time pcap reader over the whole file: (frames, warnings), zero-length records counted last."""
    endian = "<" if struct.unpack_from("<I", raw)[0] in (0xA1B2C3D4, 0xA1B23C4D) else ">"
    frac_to_ns = 1 if struct.unpack_from(endian + "I", raw)[0] == 0xA1B23C4D else 1000
    network = struct.unpack_from(endian + "I", raw, 20)[0]
    frames, warnings = [], []
    off, zero_length = 24, 0
    while off < len(raw):
        if len(raw) - off < 16:
            warnings.append(PCAP_WARNINGS[0])
            break
        ts_sec, ts_frac, caplen, orig_len = struct.unpack_from(endian + "IIII", raw, off)
        data = raw[off + 16 : off + 16 + caplen]
        off += 16 + caplen
        if len(data) < caplen:
            warnings.append(PCAP_WARNINGS[1])
            break
        if caplen == 0:
            zero_length += 1
            continue
        frames.append(CapturedFrame(ts_sec * 1_000_000_000 + ts_frac * frac_to_ns, network, data, orig_len))
    return frames, warnings + [PCAP_WARNINGS[2]] * zero_length


def read_pcapng(raw):
    """Block-at-a-time pcapng reader over the whole file: (frames, warnings, error class or None).

    A record skipped inside the file is counted, and each kind's count is warned after the walk.
    """
    frames, warnings = [], []
    endian, interfaces = "<", []  # (linktype, ticks per second)
    off = 0
    skipped = dict.fromkeys(PCAPNG_WARNINGS[3:], 0)
    while off < len(raw):
        head = raw[off : off + 12]
        is_shb = head[:4] == b"\x0a\x0d\x0d\x0a"
        if len(head) < (12 if is_shb else 8):
            warnings.append("truncated block header")
            break
        if is_shb:
            endian = {b"\x4d\x3c\x2b\x1a": "<", b"\x1a\x2b\x3c\x4d": ">"}.get(head[8:12])
            if endian is None:
                return frames, warnings, UnknownMagic
            interfaces = []
        block_type, total = struct.unpack(endian + "II", head[:8])
        if total < 12 or total % 4:
            warnings.append("implausible block length")
            break
        block = raw[off : off + total]
        if len(block) < total:
            warnings.append("truncated block body")
            break
        off += total
        body = block[8:-4]
        if block_type == 1:
            if len(body) < 8:
                skipped["short IDB"] += 1
                continue
            (linktype,) = struct.unpack(endian + "H", body[:2])
            if linktype not in (1, 101, 113):
                return frames, warnings, UnknownLinkType
            per_second = 10**6
            options = body[8:]
            while len(options) >= 4:
                code, length = struct.unpack(endian + "HH", options[:4])
                if code == 0:
                    break
                if 4 + length > len(options):
                    return frames, warnings, MalformedHeader
                if code == 9 and length == 1:
                    per_second = 2 ** (options[4] & 0x7F) if options[4] & 0x80 else 10 ** options[4]
                    break
                options = options[4 + (length + 3) // 4 * 4 :]
            interfaces.append((linktype, per_second))
        elif block_type == 6:
            if len(body) < 20:
                skipped["short EPB"] += 1
                continue
            iface, ts_high, ts_low, caplen, orig_len = struct.unpack(endian + "IIIII", body[:20])
            if iface >= len(interfaces):
                return frames, warnings, MalformedHeader
            if 20 + caplen > len(body):
                skipped["EPBs shorter than caplen"] += 1
                continue
            if not caplen:
                skipped["zero-length record"] += 1
                continue
            linktype, per_second = interfaces[iface]
            ts_ns = ((ts_high << 32) | ts_low) * 1_000_000_000 // per_second
            frames.append(CapturedFrame(ts_ns, linktype, body[20 : 20 + caplen], orig_len))
        elif block_type in (2, 3):
            skipped["simple/obsolete packet blocks skipped"] += 1
    # after the walk, however it stopped
    return frames, warnings + [kind for kind, count in skipped.items() for _ in range(count)], None


# -- decode ----------------------------------------------------------------------------


def decode(link_type, data):
    """Byte-indexing decoder kept as the oracle for the ingest loop.

    Returns None for non-TCP traffic, raises ValueError for inconsistent
    length fields, or returns (src_ip, dst_ip, src_port, dst_port, flags,
    seq, payload_start, payload_end, truncated).
    """
    n = len(data)
    if link_type == 1:
        if n < 14:
            raise ValueError("ethernet header truncated")
        ethertype = (data[12] << 8) | data[13]
        off = 14
    elif link_type == 113:
        if n < 16:
            raise ValueError("sll header truncated")
        ethertype = (data[14] << 8) | data[15]
        off = 16
    elif link_type == 101:
        if n < 1:
            raise ValueError("empty raw-ip frame")
        ethertype = 0x0800 if (data[0] >> 4) == 4 else 0x86DD
        off = 0
    else:
        raise ValueError(f"unsupported link type {link_type}")

    if ethertype == 0x0800:
        if n < off + 20:
            raise ValueError("ipv4 header truncated")
        b0 = data[off]
        if (b0 >> 4) != 4:
            raise ValueError("ipv4 version mismatch")
        ihl = (b0 & 0x0F) * 4
        if ihl < 20:
            raise ValueError("ipv4 header length below minimum")
        total_len = (data[off + 2] << 8) | data[off + 3]
        if total_len < ihl:
            raise ValueError("ipv4 total length below header length")
        flags_frag = (data[off + 6] << 8) | data[off + 7]
        if (flags_frag & 0x2000) or (flags_frag & 0x1FFF):
            return None
        proto = data[off + 9]
        if proto != 6:
            return None
        if n < off + ihl:
            raise ValueError("ipv4 options truncated")
        src_ip = data[off + 12 : off + 16]
        dst_ip = data[off + 16 : off + 20]
        tcp_start = off + ihl
        ip_end = off + total_len
    elif ethertype == 0x86DD:
        if n < off + 40:
            raise ValueError("ipv6 header truncated")
        if (data[off] >> 4) != 6:
            raise ValueError("ipv6 version mismatch")
        payload_len = (data[off + 4] << 8) | data[off + 5]
        next_header = data[off + 6]
        if next_header != 6:
            return None
        src_ip = data[off + 8 : off + 24]
        dst_ip = data[off + 24 : off + 40]
        tcp_start = off + 40
        ip_end = off + 40 + payload_len
    else:
        return None

    if n < tcp_start + 20:
        raise ValueError("tcp header truncated")
    src_port = (data[tcp_start] << 8) | data[tcp_start + 1]
    dst_port = (data[tcp_start + 2] << 8) | data[tcp_start + 3]
    seq = (
        (data[tcp_start + 4] << 24)
        | (data[tcp_start + 5] << 16)
        | (data[tcp_start + 6] << 8)
        | data[tcp_start + 7]
    )
    doff = (data[tcp_start + 12] >> 4) * 4
    if doff < 20:
        raise ValueError("tcp data offset below minimum")
    if tcp_start + doff > ip_end:
        raise ValueError("tcp header exceeds ip length")
    if n < tcp_start + doff:
        raise ValueError("tcp options truncated")
    flags = data[tcp_start + 13] & 0x1F

    payload_start = tcp_start + doff
    payload_end = ip_end
    truncated = False
    if payload_end > n:
        truncated = True
        payload_end = n
    return (src_ip, dst_ip, src_port, dst_port, flags, seq, payload_start, payload_end, truncated)


def outcome(frame):
    """The reference decoder's outcome for one frame, as the ingest loop counts it: ('malformed',),
    ('non-tcp',) or ('packet', fields)."""
    try:
        fields = decode(frame.link_type, frame.data)
    except ValueError:
        return ("malformed",)
    if fields is None:
        return ("non-tcp",)
    src_ip, dst_ip, src_port, dst_port, flags, seq, pstart, pend, truncated = fields
    return ("packet", (
        frame.timestamp_ns, src_ip, dst_ip, src_port, dst_port, flags, seq,
        frame.data[pstart:pend], truncated or frame.orig_len > len(frame.data),
    ))


def buckets(frames):
    """The frames grouped by the reference decoder: `{canonical four-tuple: entries}` in first-frame order,
    each entry `(ts, from_lower, flags, seq, payload, truncated)`, and the ingest counts."""
    groups, outcomes = {}, Counter()
    for frame in frames:
        result = outcome(frame)
        outcomes[result[0]] += 1
        if result[0] == "packet":
            ts, src_ip, dst_ip, src_port, dst_port, flags, seq, payload, truncated = result[1]
            src, dst = (src_ip, src_port), (dst_ip, dst_port)
            key = src + dst if src <= dst else dst + src
            groups.setdefault(key, []).append((ts, src <= dst, flags, seq, payload, truncated))
    counts = {"frames": len(frames), "non_tcp_frames": outcomes["non-tcp"], "malformed_frames": outcomes["malformed"]}
    return groups, counts


# -- reassembly ------------------------------------------------------------------------

_SEQ_MOD = 1 << 32


def stream(segs, isn):
    """Per-byte first-arrival placement: the model the interval builder must match.

    segs is [(seq, payload, ts)] in capture order.  Returns (data, offsets_ts,
    has_gap, anomalies), where offsets_ts holds one (offset, ts) per run of
    bytes a segment newly covered, inside the contiguous prefix.
    """
    base = (isn + 1) % _SEQ_MOD
    placed = [((seq - base) % _SEQ_MOD, payload, ts) for seq, payload, ts in segs]
    placed = [p for p in placed if p[0] < 1 << 30]  # drops pre-ISN and stale sequences
    placed.sort(key=lambda p: (p[2], p[0]))
    byte_at = {}  # offset -> (byte, first-arrival ts)
    run_starts = []
    anomalies = set()
    end_seen = 0
    for rel, payload, ts in placed:
        if len(payload) == 1 and rel == end_seen - 1 and rel in byte_at:
            continue  # keep-alive probe at the edge
        in_new_run = False
        for i, b in enumerate(payload):
            off = rel + i
            if off in byte_at:
                if byte_at[off][0] != b:
                    anomalies.add("overlap_mismatch")
                in_new_run = False
            else:
                byte_at[off] = (b, ts)
                if not in_new_run:
                    run_starts.append((off, ts))
                in_new_run = True
        end_seen = max(end_seen, rel + len(payload))
    prefix = 0
    while prefix in byte_at:
        prefix += 1
    data = bytes(byte_at[o][0] for o in range(prefix))
    offsets_ts = sorted((o, t) for o, t in run_starts if o < prefix)
    return data, offsets_ts, len(byte_at) > prefix, anomalies


# -- tlswire ---------------------------------------------------------------------------


def first_message(records):
    """(msg_type, body, first-byte ts) of a direction's first handshake message, or (None, b"", None).

    CCS records are skipped and the first other record that is not a
    handshake record ends the search.  The bodies of the handshake records
    before it are joined, the first 4-byte message header is read from the
    joined bytes, and the message takes the time of the first record with a
    non-empty body, which carried its first byte.
    """
    joined, ts = b"", None
    for rec in records:
        if rec.content_type == CT_CHANGE_CIPHER_SPEC:
            continue
        if rec.content_type != CT_HANDSHAKE:
            break
        if ts is None and rec.body:
            ts = rec.timestamp_ns
        joined += rec.body
    if len(joined) < 4:
        return None, b"", None
    end = 4 + int.from_bytes(joined[1:4], "big")
    if len(joined) < end:
        return None, b"", None
    return joined[0], joined[4:end], ts


class _Reader:
    """A cursor that checks every read against its slice."""

    __slots__ = ("data", "pos")

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise MalformedHello(f"needed {n} bytes at {self.pos}, have {len(self.data)}")
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def u8(self) -> int:
        return self.take(1)[0]

    def u16(self) -> int:
        b = self.take(2)
        return (b[0] << 8) | b[1]

    def done(self) -> bool:
        return self.pos == len(self.data)


def client_hello(msg: bytes) -> ClientHelloInfo:
    """Parse a ClientHello body: the handshake message after its 4-byte header."""
    r = _Reader(msg)
    r.take(2)  # legacy_version
    client_random = r.take(32)
    r.take(r.u8())  # legacy_session_id
    r.take(r.u16())  # cipher_suites
    r.take(r.u8())  # legacy_compression_methods

    key_shares: list[tuple[int, int]] = []
    if not r.done():
        ext_total = r.u16()
        ext = _Reader(r.take(ext_total))
        while not ext.done():
            ext_type = ext.u16()
            ext_data = _Reader(ext.take(ext.u16()))
            if ext_type == EXT_KEY_SHARE:
                shares_len = ext_data.u16()
                shares = _Reader(ext_data.take(shares_len))
                while not shares.done():
                    gid = shares.u16()
                    kex_len = shares.u16()
                    shares.take(kex_len)
                    key_shares.append((gid, kex_len))
    return ClientHelloInfo(
        client_random=client_random,
        total_length=4 + len(msg),
        key_shares=tuple(key_shares),
    )


def server_hello(msg: bytes) -> ServerHelloInfo:
    """Parse a ServerHello body: the handshake message after its 4-byte header."""
    r = _Reader(msg)
    r.take(2)  # legacy_version
    is_hrr = r.take(32) == HRR_RANDOM  # random
    r.take(r.u8())  # legacy_session_id_echo
    suite = suite_by_id(r.u16())
    r.u8()  # legacy_compression_method

    selected_group: int | None = None
    if not r.done():
        ext = _Reader(r.take(r.u16()))
        while not ext.done():
            ext_type = ext.u16()
            ext_data = _Reader(ext.take(ext.u16()))
            if ext_type == EXT_KEY_SHARE:
                selected_group = ext_data.u16()
                # HRR carries the bare group; ServerHello adds the share
                if not ext_data.done():
                    ext_data.take(ext_data.u16())
    return ServerHelloInfo(
        selected_group=selected_group,
        cipher_suite=suite.name,
        total_length=4 + len(msg),
        is_hrr=is_hrr,
    )


# -- keyschedule -----------------------------------------------------------------------


def expand_label(secret: bytes, label: bytes, length: int, algorithm=hashes.SHA256()) -> bytes:
    """HKDF-Expand-Label with an empty context: `cryptography`'s HKDFExpand over a hand-built HkdfLabel."""
    full = b"tls13 " + label
    info = struct.pack(">H", length) + bytes([len(full)]) + full + b"\x00"
    return HKDFExpand(algorithm=algorithm, length=length, info=info).derive(secret)


# -- the walk --------------------------------------------------------------------------


def walk(conn, keystore, found: dict) -> str | None:
    """`pipeline._walk` as it was when a generator opened each direction's records.

    Puts the boundaries and handshake metadata the walk finds in `found` and
    returns why it stopped early, or None.  Its hellos come from
    `first_message`, `client_hello` and `server_hello`, and `open_protected`
    decrypts each direction's records; it stops pulling once the
    direction's boundary is found.
    """
    if conn.t_syn is None:
        return "no_syn"
    if conn.t_synack is None:
        return "no_synack"

    client_records, _c_tail = parse_records(conn.client_to_server)
    server_records, _s_tail = parse_records(conn.server_to_client)

    msg_type, message, ts = first_message(client_records)
    if msg_type != HT_CLIENT_HELLO:
        return "no_clienthello"
    ch = client_hello(message)
    found["t_clienthello"], found["client_hello_len"] = ts, ch.total_length

    msg_type, message, _ts = first_message(server_records)
    if msg_type != HT_SERVER_HELLO:
        return "no_serverhello"
    sh = server_hello(message)
    if sh.is_hrr:
        return "hrr"
    found["cipher_suite"], found["server_hello_len"] = sh.cipher_suite, sh.total_length
    if sh.selected_group is not None:
        found["group"] = group_name(sh.selected_group)
        for gid, length in ch.key_shares:
            if gid == sh.selected_group:
                found["key_share_len"] = length
                break

    if keystore is None:
        return "no_keys"
    keys = []
    # in keylog.LABELS order: the first missing secret stops the walk before later ones are derived
    for secret in keystore.secrets(ch.client_random):
        if secret is None:
            return "no_keys"
        keys.append(derive_traffic_keys(secret, sh.cipher_suite))
    client_hs, server_hs, client_ap, server_ap = keys

    # decryption stops once each direction's boundary is found
    t_finished = None
    for msg_type, data, ts in open_protected(client_records, client_hs, client_ap):
        if msg_type == HT_FINISHED:
            if t_finished is None:
                t_finished = found["t_client_finished"] = ts
        elif msg_type == HT_KEY_UPDATE:
            return "undecryptable"
        elif msg_type is None and starts_http_request(data):
            if t_finished is None:
                return "no_finished"  # a request before the client Finished
            t_get = found["t_http_get"] = ts
            break
    else:
        return "no_finished" if t_finished is None else "no_request"

    # TTLB anchor from record metadata alone: the last server application-data byte
    for rec in reversed(server_records):
        if rec.content_type == CT_APPLICATION_DATA:
            found["t_response_last"] = conn.server_to_client.timestamp_at(rec.end - 1)
            break

    for msg_type, data, ts in open_protected(server_records, server_hs, server_ap):
        if msg_type is None:
            status = http_status(data, ts, t_get)
            if status is not None:
                found["http_status"], found["t_http_200"] = status, ts
                return None
    return "no_response"


def open_protected(records, hs_keys, ap_keys):
    """Decrypt a direction's protected records in order.

    Yields (msg_type, body, first-byte ts) for each complete handshake
    message, and (None, plaintext, ts) for each application-data record;
    other inner types are skipped.  After the record that completes a
    Finished message with no handshake bytes pending, the application
    traffic keys replace the handshake keys.  A record that does not open
    raises AuthFailure or EmptyInnerPlaintext.
    """
    keys = hs_keys
    acc = HandshakeAccumulator()
    for rec in records:
        if rec.content_type != CT_APPLICATION_DATA:
            continue
        inner_type, plaintext = decrypt_record(rec, keys)
        if inner_type == CT_HANDSHAKE:
            finished = False
            for msg_type, body, ts in acc.feed(plaintext, rec.timestamp_ns):
                finished = finished or msg_type == HT_FINISHED
                yield msg_type, body, ts
            if finished and acc.pending == 0:
                keys = ap_keys
        elif inner_type == CT_APPLICATION_DATA:
            yield None, plaintext, rec.timestamp_ns
