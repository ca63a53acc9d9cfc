import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))


@pytest.fixture
def threads_on_small_tiles(monkeypatch):
    """Start tile threads at any tile size, so a test that asks for several
    threads on small tiles runs on them rather than on the caller alone."""
    from slidecodec import pipeline

    monkeypatch.setattr(pipeline, "ENCODE_THREADS_MIN_TILE", 0)
    monkeypatch.setattr(pipeline, "DECODE_THREADS_MIN_TILE", 0)
