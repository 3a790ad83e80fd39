"""Dense linear-algebra kernels with explicit rank and residual policies.

Everything downstream funnels through the two entry points here,
:func:`reduced_svd` and :func:`eig_dense`, so the rank threshold and
the eigenpair residual contract are enforced once. Real input is
carried as float64 and complex input as complex128, so every
factorization of real data runs in real arithmetic. Complex
numbers first appear in :func:`eig_dense`, whose eigenpairs are always
complex128.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DimensionError, EigensolverError, RankZeroError

__all__ = [
    "ReducedSvd",
    "EigenPairs",
    "reduced_svd",
    "eig_dense",
]

_EPS = float(np.finfo(np.float64).eps)


def _working_dtype(*arrays) -> type:
    """complex128 if any of ``arrays`` is complex, float64 otherwise."""
    return np.complex128 if any(np.iscomplexobj(a) for a in arrays) else np.float64


def _as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and return ``a`` as a finite 2-D float64 or complex128 array.

    Complex input stays complex128; anything else becomes float64.
    """
    arr = np.asarray(a)
    if arr.ndim != 2:
        raise DimensionError(f"{name} must be 2-D, got shape {arr.shape}")
    if arr.size and not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return np.ascontiguousarray(arr, dtype=_working_dtype(arr))


def _unit_scale(a: np.ndarray) -> float:
    """Power of two taking the largest magnitude in ``a`` into [0.5, 1).

    Scaling by it is exact, so ratios of norms of scaled data keep every
    bit. Below 2^-1024 it stops at 2^1023, the largest finite power of two.
    """
    return float(np.ldexp(1.0, min(-np.frexp(np.max(np.abs(a)))[1], 1023)))


def _norm(a: np.ndarray) -> float:
    """Frobenius norm of ``a``, in range whenever the norm itself is.

    The squares are taken on ``a`` rescaled by :func:`_unit_scale`, so
    they neither overflow nor underflow; at ordinary scales the result
    equals ``np.linalg.norm(a)`` bit for bit.
    """
    unit = _unit_scale(a)
    return float(np.linalg.norm(a * unit)) / unit


@dataclass(frozen=True)
class ReducedSvd:
    """Rank-truncated SVD ``x ~= u @ diag(sigma) @ v.conj().T``.

    ``u`` and ``v`` are float64 for real x and complex128 for complex x.

    Attributes:
        u: (n, r) orthonormal columns.
        sigma: (r,) positive singular values, descending.
        v: (m, r) orthonormal columns.
        rank: numerical rank r (== len(sigma)).
        truncation_tol: absolute threshold the singular values were cut at.
    """

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray
    rank: int
    truncation_tol: float


@dataclass(frozen=True)
class EigenPairs:
    """Eigenvalues with unit-norm right (and optionally left) eigenvectors.

    Right vectors satisfy ``m @ vectors[:, j] == values[j] * vectors[:, j]``;
    left vectors satisfy ``left_vectors[:, j].conj().T @ m ==
    values[j] * left_vectors[:, j].conj().T``, index-paired with the right
    ones. No ordering is imposed here; callers sort as they see fit.
    All three arrays are complex128, also for a real matrix.
    """

    values: np.ndarray
    vectors: np.ndarray
    left_vectors: np.ndarray | None = None


def _svd_threshold(shape, sigma, rtol, atol) -> float:
    """Absolute cutoff for singular values.

    Default is max(n, m) * eps * sigma_1. A user rtol/atol replaces the
    default; when both are given the looser (larger) cutoff wins.
    """
    top = float(sigma[0]) if len(sigma) else 0.0
    if rtol is None and atol is None:
        return max(shape) * _EPS * top
    cut = 0.0
    if rtol is not None:
        if not rtol >= 0:
            raise ValueError(f"rtol must be nonnegative, got {rtol}")
        cut = max(cut, float(rtol) * top)
    if atol is not None:
        if not atol >= 0:
            raise ValueError(f"atol must be nonnegative, got {atol}")
        cut = max(cut, float(atol))
    return cut


def reduced_svd(
    x,
    *,
    rtol: float | None = None,
    atol: float | None = None,
) -> ReducedSvd:
    """Compact SVD truncated at the numerical rank.

    Args:
        x: (n, m) matrix, real or complex.
        rtol: relative cutoff (times sigma_1) replacing the default
            max(n, m) * eps * sigma_1.
        atol: absolute cutoff; with rtol, the larger of the two applies.

    Raises:
        RankZeroError: every singular value fell below the cutoff.
    """
    xm = _as_matrix(x, "x")
    n, m = xm.shape
    if n == 0 or m == 0:
        raise DimensionError("x must have at least one row and one column")
    u, s, vh = np.linalg.svd(xm, full_matrices=False)
    cut = _svd_threshold((n, m), s, rtol, atol)
    r = int(np.sum(s > cut))
    if r == 0:
        raise RankZeroError(
            "matrix has numerical rank zero at threshold {:.3e}".format(cut)
        )
    return ReducedSvd(
        u=u[:, :r],
        sigma=s[:r].astype(np.float64),
        v=vh[:r, :].conj().T,
        rank=r,
        truncation_tol=cut,
    )


def eig_dense(m, *, want_left: bool = False, eig_tol: float = 1e-9) -> EigenPairs:
    """Dense eigendecomposition with a verified residual bound.

    Every returned right pair satisfies
    ``norm(m @ w - lam * w) <= eig_tol * norm(m, 'fro')`` for unit w,
    and left pairs the transposed analogue; violation raises
    :class:`EigensolverError` rather than returning silently bad vectors.
    A real matrix is decomposed in real arithmetic; its complex
    eigenvalues then come in exactly conjugate pairs with exactly
    conjugate vectors.
    """
    mm = _as_matrix(m, "m")
    if mm.shape[0] != mm.shape[1]:
        raise DimensionError(f"eig_dense needs a square matrix, got {mm.shape}")
    if mm.shape[0] == 0:
        raise DimensionError("eig_dense needs a nonempty matrix")

    if want_left:
        values, vl, vr = scipy.linalg.eig(mm, left=True, right=True)
    else:
        values, vr = scipy.linalg.eig(mm)
        vl = None
    # A real matrix with a real spectrum gets real vectors from LAPACK.
    values = values.astype(np.complex128, copy=False)
    vr = vr.astype(np.complex128, copy=False)

    vr = vr / np.linalg.norm(vr, axis=0, keepdims=True)
    scale = _norm(mm)
    resid = np.linalg.norm(mm @ vr - vr * values[None, :], axis=0)
    if np.any(resid > eig_tol * scale):
        raise EigensolverError(
            "right eigenpair residual {:.3e} exceeds {:.3e}".format(
                float(resid.max()), eig_tol * scale
            )
        )
    if vl is not None:
        vl = vl.astype(np.complex128, copy=False)
        vl = vl / np.linalg.norm(vl, axis=0, keepdims=True)
        lres = np.linalg.norm(vl.conj().T @ mm - values[:, None] * vl.conj().T, axis=1)
        if np.any(lres > eig_tol * scale):
            raise EigensolverError(
                "left eigenpair residual {:.3e} exceeds {:.3e}".format(
                    float(lres.max()), eig_tol * scale
                )
            )
    return EigenPairs(values=values, vectors=vr, left_vectors=vl)
