"""Shared fixtures."""

import sys

import numpy as np
import pytest
import scipy.linalg


def _shapes_passed(monkeypatch, module, name):
    """Shapes of the matrices dmdkit.linalg passes to ``module.name``, in call order."""
    shapes = []
    factor = getattr(module, name)

    def counting(a, *args, **kwargs):
        if sys._getframe(1).f_globals.get("__name__") == "dmdkit.linalg":
            shapes.append(np.shape(a))
        return factor(a, *args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return shapes


@pytest.fixture
def lapack_svds(monkeypatch):
    """Shapes of the matrices dmdkit.linalg passes to ``np.linalg.svd``, in call order."""
    return _shapes_passed(monkeypatch, np.linalg, "svd")


@pytest.fixture
def lapack_qrs(monkeypatch):
    """Shapes of the series dmdkit.linalg passes to ``scipy.linalg.qr``, in call order."""
    return _shapes_passed(monkeypatch, scipy.linalg, "qr")
