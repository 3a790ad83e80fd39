"""Shared fixtures."""

import sys

import numpy as np
import pytest
import scipy.linalg.lapack

import dmdkit.pairs


def _shapes_passed(monkeypatch, module, names, position=0):
    """Shapes of the matrices dmdkit.linalg passes to ``module.name``, for each of
    ``names``, in call order; the matrix is the argument at ``position``."""
    shapes = []
    for name in names:
        factor = getattr(module, name)

        def counting(*args, factor=factor, **kwargs):
            if sys._getframe(1).f_globals.get("__name__") == "dmdkit.linalg":
                shapes.append(np.shape(args[position]))
            return factor(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
    return shapes


@pytest.fixture
def lapack_svds(monkeypatch):
    """Shapes of the matrices dmdkit.linalg passes to ``np.linalg.svd``, in call order."""
    return _shapes_passed(monkeypatch, np.linalg, ["svd"])


@pytest.fixture
def lapack_qrs(monkeypatch):
    """Shapes of the series dmdkit.linalg factors by LAPACK's ``?geqrt``, in call order."""
    return _shapes_passed(monkeypatch, scipy.linalg.lapack, ["dgeqrt", "zgeqrt"], position=1)


@pytest.fixture
def q_forms(monkeypatch):
    """Shapes of the q a compressed series forms from its reflectors, in call order."""
    shapes = []
    form = dmdkit.pairs._form_q

    def counting(reflectors, tau):
        shapes.append(reflectors.shape)
        return form(reflectors, tau)

    monkeypatch.setattr(dmdkit.pairs, "_form_q", counting)
    return shapes
