"""Fixtures shared by the test modules."""

import numpy as np
import pytest
from hypothesis import settings

# no per-example deadline: examples time the numerics, whose cost varies
# with the drawn sizes and with a shared host's load
settings.register_profile("fddrecon", deadline=None)
settings.load_profile("fddrecon")


@pytest.fixture
def counted_lstsq(monkeypatch):
    """np.linalg.lstsq replaced, for the test, by a wrapper that counts its
    calls in ``.calls``; the wrapper is returned."""
    lstsq = np.linalg.lstsq

    def counted(*args, **kwargs):
        counted.calls += 1
        return lstsq(*args, **kwargs)

    counted.calls = 0
    monkeypatch.setattr(np.linalg, "lstsq", counted)
    return counted
