import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from tlslayers import synth
from tlslayers.decode import decode_frame
from tlslayers.keylog import parse_keylog


def run_scenario(spec):
    """Generate a scenario and analyze the frames in-memory."""
    from tlslayers import pipeline

    frames, keylog_text, truth = synth.generate(spec)
    packets = [p for f in frames if (p := decode_frame(f)) is not None]
    result = pipeline.analyze_packets(packets, parse_keylog(keylog_text), "scenario")
    return result, truth


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
