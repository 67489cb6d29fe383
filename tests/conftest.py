"""Fixtures shared by the test modules."""

import numpy as np
import pytest


@pytest.fixture
def scanned_sizes(monkeypatch):
    """Spy on np.isfinite: the list of element counts it is handed, which is
    what the finiteness checks scan."""
    sizes = []
    isfinite = np.isfinite

    def spy(x, *args, **kwargs):
        sizes.append(np.asarray(x).size)
        return isfinite(x, *args, **kwargs)

    monkeypatch.setattr(np, "isfinite", spy)
    return sizes
