"""Seeded synthetic capture workloads for the `analyze` benchmark.

Every workload is a list of `synth.ConnectionSpec`s drawn from one
`random.Random` seeded by the workload's input family and the run seed, so
the same seed always yields byte-identical capture and key-log files.  The
program under test only ever sees the generated files.

Why these four (see BENCHMARK.json for the one-line versions):

- ``bulk``: few connections, large bodies.  Bytes per connection are high,
  so capture read, frame decode and reassembly do nearly all the work and
  the TLS walk stops decrypting at the status line.  It is the control on
  which a walk or key-schedule change must not move.
- ``handshake``: many connections, tiny bodies.  Per-connection work (four
  HKDF derivations, hello parsing, handshake-record AEAD) dominates, and
  post-quantum key shares make hellos span several segments.
- ``lossy``: mid-sized bodies with retransmissions, a reordered capture,
  dropped key-log entries, truncated status segments, non-200 responses and
  coalesced requests.  Reassembly runs its overlap and first-arrival paths
  and the walk its partial and excluded branches.
- ``handshake-w2``: the ``handshake`` inputs analysed with ``--workers 2``,
  the only workload that runs the process pool.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from pathlib import Path

GROUPS = ("x25519", "mlkem512", "x25519_mlkem768", "mlkem1024")
SUITES = ("AES_128_GCM_SHA256", "AES_256_GCM_SHA384", "CHACHA20_POLY1305_SHA256")

# Per-connection anomaly shares on ``lossy``; ``reorder`` goes on connection
# 0 only, because synth applies it to the whole capture.
LOSSY_ANOMALIES = (
    ("retransmit", 0.25),
    ("drop_keylog", 0.05),
    ("non200", 0.03),
    ("truncate", 0.02),
    ("coalesce_request", 0.05),
)


@dataclass(frozen=True)
class Family:
    """Input parameters shared by every workload built from one input set."""

    name: str
    connections: int
    body_min: int
    body_max: int
    lossy: bool = False


FAMILIES = {
    "bulk": Family("bulk", connections=240, body_min=96 << 10, body_max=160 << 10),
    "handshake": Family("handshake", connections=3000, body_min=0, body_max=1 << 10),
    "lossy": Family("lossy", connections=1200, body_min=8 << 10, body_max=24 << 10, lossy=True),
}


@dataclass(frozen=True)
class Workload:
    name: str
    family: Family
    workers: int


WORKLOADS = {
    "bulk": Workload("bulk", FAMILIES["bulk"], workers=1),
    "handshake": Workload("handshake", FAMILIES["handshake"], workers=1),
    "lossy": Workload("lossy", FAMILIES["lossy"], workers=1),
    "handshake-w2": Workload("handshake-w2", FAMILIES["handshake"], workers=2),
}


def build_spec(synth, family: Family, seed: int):
    """The scenario for one family and seed (``synth`` is the program's module)."""
    rng = random.Random(f"perfbench:{family.name}:{seed}")
    conns = []
    for i in range(family.connections):
        # Connections start 2-4 ms apart and last tens of milliseconds, so
        # about ten are open at once, as in a load test.
        t0 = i * 3_000_000 + rng.randint(0, 1_000_000)
        t1 = t0 + rng.randint(200_000, 2_000_000)
        t2 = t1 + rng.randint(50_000, 500_000)
        t3 = t2 + rng.randint(1_000_000, 6_000_000)
        t4 = t3 + rng.randint(50_000, 1_000_000)
        t5 = t4 + rng.randint(1_000_000, 20_000_000)
        anomalies = set()
        if family.lossy:
            anomalies = {name for name, share in LOSSY_ANOMALIES if rng.random() < share}
            if i == 0:
                anomalies.add("reorder")
        conns.append(
            synth.ConnectionSpec(
                boundary_times=(t0, t1, t2, t3, t4, t5),
                group=rng.choice(GROUPS),
                cipher_suite=rng.choice(SUITES),
                response_body_bytes=rng.randint(family.body_min, family.body_max),
                segmentation_seed=rng.getrandbits(32),
                anomalies=frozenset(anomalies),
            )
        )
    return synth.ScenarioSpec(connections=tuple(conns))


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


@dataclass
class Inputs:
    capture: Path
    keylog: Path
    truth: object  # synth.GroundTruth
    provenance: dict


def generate(synth, workload: Workload, seed: int, out_dir: Path) -> Inputs:
    """Write the workload's capture and key log; return them with the truth."""
    spec = build_spec(synth, workload.family, seed)
    frames, keylog_text, truth = synth.generate(spec)
    out_dir.mkdir(parents=True, exist_ok=True)
    capture = out_dir / "capture.pcap"
    keylog = out_dir / "keylog.txt"
    synth.emit_capture(frames, capture, "pcap-ns")
    keylog.write_text(keylog_text)
    anomaly_counts: dict[str, int] = {}
    for conn in spec.connections:
        for name in conn.anomalies:
            anomaly_counts[name] = anomaly_counts.get(name, 0) + 1
    provenance = {
        "workload": workload.name,
        "family": workload.family.name,
        "seed": seed,
        "workers": workload.workers,
        "connections": workload.family.connections,
        "body_bytes": [workload.family.body_min, workload.family.body_max],
        "groups": list(GROUPS),
        "cipher_suites": list(SUITES),
        "anomalies": dict(sorted(anomaly_counts.items())),
        "frames": len(frames),
        "capture_bytes": capture.stat().st_size,
        "capture_sha256": sha256_file(capture),
        "keylog_sha256": sha256_file(keylog),
    }
    return Inputs(capture, keylog, truth, provenance)
