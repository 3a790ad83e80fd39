"""Linear inverse modeling on EOF coefficients.

For centered snapshot pairs, project both matrices onto the leading
orthogonal modes of x (its left singular vectors), form the lag
covariance of the coefficients, and regress one lag onto the other.
The resulting propagator is, entry for entry, the reduced operator of
the exact decomposition; :func:`lim_dmd_equivalence` reports the
difference so the identity can be checked on real data.

The statistics only mean anything on anomalies, so the entry points
refuse data whose ensemble mean was not removed; pass ``force=True``
for data that is centered by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dmd import reduced_operator
from .linalg import _unit_scale
from .pairs import SnapshotPairs

__all__ = [
    "LimModel",
    "LimDmdReport",
    "lim_model",
    "lim_dmd_equivalence",
]

_MEAN_TOL = 1e-10


def _require_centered(pairs: SnapshotPairs, force: bool) -> None:
    if force:
        return
    unit = _unit_scale(pairs.x)  # exact rescale: squared entries stay in range
    mean = pairs.x.mean(axis=1) * unit
    scale = float(np.linalg.norm(pairs.x * unit))
    if scale > 0 and float(np.linalg.norm(mean)) > _MEAN_TOL * scale:
        raise ValueError(
            "snapshots are not mean-subtracted (column-mean norm {:.2e} vs "
            "data norm {:.2e}); center them with subtract_mean, or pass "
            "force=True for data that is zero-mean by construction".format(
                float(np.linalg.norm(mean)) / unit, scale / unit
            )
        )


@dataclass(frozen=True)
class LimModel:
    """EOF basis, coefficient series, and the fitted lag propagator.

    ``lambda_cov`` is the (diagonal) coefficient covariance sigma^2 / m;
    ``green`` maps coefficients one lag tau forward in the least-squares
    sense.
    """

    eofs: np.ndarray
    x_hat: np.ndarray
    y_hat: np.ndarray
    lambda_cov: np.ndarray
    green: np.ndarray
    tau: float | None


def lim_model(
    pairs: SnapshotPairs,
    *,
    force: bool = False,
    rtol: float | None = None,
    atol: float | None = None,
) -> LimModel:
    """Fit the lag-tau propagator of the EOF coefficients.

    The zero-lag covariance of x_hat is diagonal by construction
    (sigma^2 / m), so the regression of y_hat on x_hat reduces to
    y_hat x_hat* / sigma^2.
    """
    _require_centered(pairs, force)
    op = reduced_operator(pairs, rtol=rtol, atol=atol)
    svd = op.svd_of_x
    u = svd.u
    x_hat = u.conj().T @ pairs.x
    y_hat = u.conj().T @ pairs.y
    m = pairs.n_pairs
    unit = _unit_scale(svd.sigma)  # exact rescale: squared entries stay in range
    green = ((unit * y_hat) @ (unit * x_hat).conj().T) / (unit * svd.sigma[None, :]) ** 2
    return LimModel(
        eofs=u,
        x_hat=x_hat,
        y_hat=y_hat,
        lambda_cov=np.diag(svd.sigma**2 / m),
        green=green,
        tau=pairs.dt,
    )


@dataclass(frozen=True)
class LimDmdReport:
    """Entrywise agreement between the lag propagator and the reduced operator."""

    green: np.ndarray
    a_tilde: np.ndarray
    max_abs_diff: float
    tol: float
    equivalent: bool


def lim_dmd_equivalence(
    pairs: SnapshotPairs,
    *,
    force: bool = False,
    rtol: float | None = None,
    atol: float | None = None,
    tol: float = 1e-10,
) -> LimDmdReport:
    """Compare the two operators built from the same pairs.

    Both are regressions of y onto x expressed in the same basis, so
    they agree to roundoff whenever the data is centered; the report
    makes the identity checkable rather than assumed. The tolerance is
    relative to the Frobenius norm of the reduced operator.
    """
    model = lim_model(pairs, force=force, rtol=rtol, atol=atol)
    op = reduced_operator(pairs, rtol=rtol, atol=atol)
    diff = float(np.max(np.abs(model.green - op.a_tilde)))
    bound = tol * float(np.linalg.norm(op.a_tilde))
    return LimDmdReport(
        green=model.green,
        a_tilde=op.a_tilde,
        max_abs_diff=diff,
        tol=bound,
        equivalent=diff <= bound,
    )
