"""Shared fixtures: expensive exact series are computed once per session.

pytest puts src/ on sys.path (pyproject.toml); the interpreters that some
tests start find the package there too, through PYTHONPATH.
"""
import os
from pathlib import Path

import pytest

from phi4trunc import TruncationSpec, weak_series

os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(Path(__file__).resolve().parent.parent / "src"), os.environ.get("PYTHONPATH")]))


@pytest.fixture(scope="session")
def n4_e0_series_200():
    return weak_series(TruncationSpec(4), 0, max_order=200)


@pytest.fixture(scope="session")
def n8_even_series_200():
    trunc = TruncationSpec(8)
    return {level: weak_series(trunc, level, max_order=200) for level in (0, 2, 4)}


@pytest.fixture(scope="session")
def n16_even_series_100():
    trunc = TruncationSpec(16)
    return {level: weak_series(trunc, level, max_order=100) for level in range(0, 16, 2)}


@pytest.fixture(scope="session")
def n32_e0_series_100():
    return weak_series(TruncationSpec(32), 0, max_order=100)
