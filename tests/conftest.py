"""Shared fixtures."""

import sys

import numpy as np
import pytest


@pytest.fixture
def lapack_svds(monkeypatch):
    """Shapes of the matrices dmdkit.linalg passes to ``np.linalg.svd``, in call order."""
    shapes = []
    svd = np.linalg.svd

    def counting(a, *args, **kwargs):
        if sys._getframe(1).f_globals.get("__name__") == "dmdkit.linalg":
            shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    return shapes
