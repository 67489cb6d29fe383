"""Fixtures shared by the test modules."""

import os

# One BLAS thread, as perfbench runs, set before numpy loads.  On a host that
# another process shares, a second BLAS thread waits for a core at every
# matmul: short LM forwards ran ~5x slower and the timing test's fitted slope
# fell to ~0.7 under any clock.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402
import pytest  # noqa: E402


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
