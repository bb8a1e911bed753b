"""The benchmark's traced run patches vudlmp names; they must all exist."""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
from tracer import Tracer  # noqa: E402


def test_every_traced_name_exists():
    tracer = Tracer()
    try:
        layers.install(tracer)
    finally:
        tracer.restore()
