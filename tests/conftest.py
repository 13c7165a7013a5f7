import sys
import tempfile
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from tlslayers import synth
from tlslayers.pipeline import analyze_capture


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
