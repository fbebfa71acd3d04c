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
def no_collapse(monkeypatch):
    """Plans without the collapse, as before it: a scored stage for every
    register but the last, and the direct search for the last."""
    monkeypatch.setattr(attack, "COLLAPSE_MAX_MONOMIALS", 0)
