"""Dense linear-algebra kernels with explicit rank and residual policies.

Everything downstream funnels through the two entry points here,
:func:`reduced_svd` and :func:`eig_dense`, so the rank threshold and
the eigenpair residual rule (:func:`_max_residual`, which also checks
ERA's eigenvector map) are enforced once, at any scale. Real input is
carried as float64 and complex input as complex128, so every
factorization of real data runs in real arithmetic. Complex
numbers first appear in :func:`eig_dense`, whose eigenpairs are always
complex128.

:func:`reduced_svd` factors x once per pairs object. While
:func:`_held_in` binds a pairs object's coordinates (see
:func:`dmdkit.pairs._frame`), a call on their own x, that very array,
reads the factors they hold and makes its own rank cut; every other
call factors anew. :func:`_qr` is the thin QR that compresses a tall
time series to the coordinates of its snapshots. All factors are
read-only on every path.
"""

from __future__ import annotations

import contextlib
import contextvars
import operator
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DimensionError, EigensolverError, ParseError, RankZeroError

__all__ = [
    "ReducedSvd",
    "EigenPairs",
    "reduced_svd",
    "eig_dense",
]

_EPS = float(np.finfo(np.float64).eps)

# Largest eigenpair residual eig_dense accepts, relative to norm(m).
_EIG_TOL = 1e-9
# LAPACK geev rescales a matrix whose largest entry lies outside
# [_GEEV_LOW, 1 / _GEEV_LOW] = [sqrt(tiny)/eps, eps/sqrt(tiny)] ~ [6.7e-139, 1.5e138].
_GEEV_LOW = float(np.sqrt(np.finfo(np.float64).tiny)) / _EPS
_HELD = contextvars.ContextVar("_HELD", default=None)  # the coordinates reduced_svd reads


def _working_dtype(*arrays) -> type:
    """complex128 if any of ``arrays`` is complex, float64 otherwise."""
    return np.complex128 if any(np.iscomplexobj(a) for a in arrays) else np.float64


def _numeric_2d(a, name: str) -> np.ndarray:
    """``a`` as a 2-D array of numbers or booleans, copied only where numpy must.

    Ragged rows and other dimensions are a :class:`DimensionError`;
    strings, objects and other non-numeric dtypes a :class:`ParseError`.
    """
    try:
        arr = np.asarray(a)
    except ValueError as exc:  # numpy refuses ragged nested sequences
        raise DimensionError(f"{name} has rows of inconsistent lengths") from exc
    if arr.ndim != 2:
        raise DimensionError(f"{name} must be 2-D, got shape {arr.shape}")
    if arr.dtype.kind not in "biufc":
        raise ParseError(f"{name} must hold numbers, got dtype {arr.dtype}")
    return arr


def _index(value, name: str, low: int | None = None) -> int:
    """``value`` as an int by the rule of ``operator.index``, at least ``low`` when given.

    A float, even an integral one, is a ValueError, so no count is truncated.
    """
    try:
        index = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if low is not None and index < low:
        raise ValueError(f"{name} must be >= {low}, got {index}")
    return index


def _as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and return ``a`` as a finite 2-D float64 or complex128 array.

    Complex input stays complex128; other numbers and booleans become
    float64, and any other dtype (strings, objects) is refused.
    """
    arr = _numeric_2d(a, name)
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


def _column_mean(a: np.ndarray) -> np.ndarray:
    """numpy's mean of the columns of ``a``, retaken exactly rescaled where its sum overflows."""
    with np.errstate(over="ignore"):
        mean = a.mean(axis=1)
    if not np.all(np.isfinite(mean)):  # finite data: the sum left the float64 range
        unit = _unit_scale(a)
        mean = (a * unit).mean(axis=1) / unit
    return mean


def _divide(a: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """``a / lam`` also for subnormal lam, where numpy's complex quotient overflows."""
    if np.all(np.abs(lam) >= np.finfo(np.float64).tiny):
        return a / lam
    return a / (lam * 2.0**64) * 2.0**64


def _followers(conj_next: np.ndarray) -> np.ndarray:
    """Column j + 1 follows j if ``conj_next[j]`` and j leads: a, conj(a), a, ... alternate."""
    follower = np.zeros_like(conj_next)
    for j in np.flatnonzero(conj_next):
        follower[j + 1] = not follower[j]
    return follower


def _lift(basis: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``basis @ w`` for complex ``w``, in real arithmetic when ``basis`` is real.

    The real and imaginary parts of w are lifted together by one real
    product with the interleaved float64 view of w, and a column
    directly followed by its exact conjugate is lifted once: the
    follower's image is the conjugate of its lead's. So conjugate
    eigenvectors of real data give exactly conjugate modes, and a
    conjugate pair costs the same real product as one real column pair.
    """
    if np.iscomplexobj(basis) or not np.iscomplexobj(w):
        return basis @ w
    if w.ndim == 1:
        return _lift(basis, w[:, None])[:, 0]
    conj_next = np.zeros(w.shape[1], dtype=bool)
    conj_next[:-1] = np.any(w.imag[:, :-1] != 0, axis=0) & np.all(
        w[:, 1:] == w[:, :-1].conj(), axis=0
    )
    follower = _followers(conj_next)
    lead = np.ascontiguousarray(w[:, ~follower])
    lifted = (basis @ lead.view(np.float64)).view(np.complex128)
    out = np.take(lifted, np.cumsum(~follower) - 1, axis=1)
    out.imag *= np.where(follower, -1.0, 1.0)
    return out


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
    """Eigenvalues with unit-norm right and left eigenvectors.

    Right vectors satisfy ``m @ vectors[:, j] == values[j] * vectors[:, j]``;
    left vectors satisfy ``left_vectors[:, j].conj().T @ m ==
    values[j] * left_vectors[:, j].conj().T``, index-paired with the right
    ones. No ordering is imposed here; callers sort as they see fit.
    All three arrays are complex128, also for a real matrix.
    """

    values: np.ndarray
    vectors: np.ndarray
    left_vectors: np.ndarray


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


@contextlib.contextmanager
def _held_in(frame):
    """Let :func:`reduced_svd` read ``frame.factors`` for ``frame.x``, the array itself."""
    token = _HELD.set(frame)
    try:
        yield
    finally:
        _HELD.reset(token)


def _factor(x) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """LAPACK's compact, read-only ``(u, s, vh)`` of ``x``, validated as a nonempty matrix."""
    xm = _as_matrix(x, "x")
    if xm.size == 0:
        raise DimensionError("x must have at least one row and one column")
    factors = np.linalg.svd(xm, full_matrices=False)
    for a in factors:
        a.flags.writeable = False
    return factors


def _qr(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Thin Householder QR ``z = q @ r`` of a finite tall matrix, which it overwrites.

    Both factors are read-only. Raises FloatingPointError where the norm
    of a column of z leaves the float64 range.
    """
    q, r = scipy.linalg.qr(z, overwrite_a=True, mode="economic", check_finite=False)
    if not np.all(np.isfinite(r)):
        raise FloatingPointError("overflow: the norm of a snapshot exceeds the float64 range")
    for a in (q, r):
        a.flags.writeable = False
    return q, r


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
    held = _HELD.get()
    u, s, vh = held.factors if held is not None and x is held.x else _factor(x)
    if not np.isfinite(s[0]):  # x is finite, so its norm left the float64 range
        raise FloatingPointError(
            "overflow: the largest singular value of x exceeds the float64 range"
        )
    cut = _svd_threshold((u.shape[0], vh.shape[1]), s, rtol, atol)
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


def _max_residual(m: np.ndarray, vectors: np.ndarray, values: np.ndarray) -> float:
    """Largest ``norm(m @ v - lam * v)`` over the unit columns v, relative to ``norm(m)``.

    Taken after an exact rescale by :func:`_unit_scale`, so the ratio
    does not depend on the scale of m; a zero m reads the plain residual.
    """
    unit = _unit_scale(m)
    mu = m * unit
    resid = np.linalg.norm(mu @ vectors - vectors * (unit * values), axis=0).max()
    return float(resid) / (float(np.linalg.norm(mu)) or 1.0)


def _worst_pair(m: np.ndarray, values, left, right) -> tuple[str, float] | None:
    """The first side whose pairs, at unit norm, miss the residual bound, and its residual."""
    # A left pair (lam, z) is the right pair (conj(lam), z) of m*.
    sides = (("right", m, right, values), ("left", m.conj().T, left, np.conj(values)))
    for side, matrix, vectors, lam in sides:
        resid = _max_residual(matrix, vectors / np.linalg.norm(vectors, axis=0), lam)
        if resid > _EIG_TOL:
            return side, resid
    return None


def eig_dense(m) -> EigenPairs:
    """Dense eigendecomposition with a verified residual bound.

    Returns unit right and left eigenvectors. Every pair satisfies
    ``norm(m @ w - lam * w) <= 1e-9 * norm(m, 'fro')`` for unit w, and
    every left pair the same bound as a right pair of m*; a violation
    raises :class:`EigensolverError` rather than returning silently bad
    vectors. A matrix whose largest entry lies outside LAPACK geev's
    own scaling window is eigendecomposed after an exact power-of-two
    rescale, and eigenvectors that fail the check are computed once
    more under a fixed orthogonal similarity. A real matrix is
    decomposed in real arithmetic; its complex eigenvalues then come in
    exactly conjugate pairs with exactly conjugate vectors.
    """
    mm = _as_matrix(m, "m")
    if mm.shape[0] != mm.shape[1]:
        raise DimensionError(f"eig_dense needs a square matrix, got {mm.shape}")
    if mm.shape[0] == 0:
        raise DimensionError("eig_dense needs a nonempty matrix")

    # Some LAPACK builds lose the factor of geev's own rescale; do it here.
    unit = 1.0 if _GEEV_LOW <= np.max(np.abs(mm)) <= 1.0 / _GEEV_LOW else _unit_scale(mm)
    values, vl, vr = scipy.linalg.eig(mm * unit, left=True, right=True)
    values = values / unit
    failed = _worst_pair(mm, values, vl, vr)
    if failed is not None:
        # geev balances first, and may scale a row or column of pure
        # roundoff up by dozens of powers of two, and the error of the
        # eigenvectors, though not of the eigenvalues, with it. The vectors
        # are taken again under a reflector that mixes every coordinate,
        # which leaves the balancing nothing to scale, each paired with
        # the nearest of the first eigenvalues.
        # Imported here: scipy.optimize costs a large share of dmdkit's import time.
        from scipy.optimize import linear_sum_assignment

        ramp = np.arange(1.0, len(values) + 1.0)
        mix = np.eye(len(ramp)) - np.outer(ramp, 2.0 * ramp / (ramp @ ramp))
        mixed, vl, vr = scipy.linalg.eig(mix @ (mm * unit) @ mix, left=True, right=True)
        cost = np.abs(values[:, None] - mixed[None, :] / unit)
        near = linear_sum_assignment(cost)[1]
        vl, vr = mix @ vl[:, near], mix @ vr[:, near]
        failed = _worst_pair(mm, values, vl, vr)
    if failed is not None:
        side, resid = failed
        raise EigensolverError(
            f"{side} eigenpair residual {resid:.3e} norm(m) exceeds {_EIG_TOL:g} norm(m)"
        )
    # A real matrix with a real spectrum gets real vectors from LAPACK.
    values, vl, vr = (a.astype(np.complex128, copy=False) for a in (values, vl, vr))
    vr, vl = (v / np.linalg.norm(v, axis=0, keepdims=True) for v in (vr, vl))
    return EigenPairs(values=values, vectors=vr, left_vectors=vl)
