import os

import numpy as np
import pytest

from combgen import attack, presets


def pytest_collection_modifyitems(config, items):
    if os.environ.get("COMBGEN_LARGE_SCALE") == "1":
        return
    skip = pytest.mark.skip(
        reason="full-size run; set COMBGEN_LARGE_SCALE=1 to include")
    for item in items:
        if "large_scale" in item.keywords:
            item.add_marker(skip)


@pytest.fixture
def toy():
    return presets.toy_generator()


@pytest.fixture
def rng():
    return np.random.default_rng(0xC0FFEE)


@pytest.fixture
def scored_stage_2(monkeypatch):
    """Plans with a second scored stage: a cap of 100 monomials leaves
    out the toy's 211 of registers 1 and 2 together, so register 1 is
    scored and register 2, 10 monomials at degree 1, collapses alone."""
    monkeypatch.setattr(attack, "COLLAPSE_MAX_MONOMIALS", 100)
