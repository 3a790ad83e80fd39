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

from dataclasses import dataclass, field

import numpy as np

from .dmd import reduced_operator
from .linalg import _column_mean, _norm, _unit_scale
from .pairs import SnapshotPairs, _Frame

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
    unit = _unit_scale(pairs.x)
    x = pairs.x * unit  # exact, and its norms stay in range where those of x overflow
    mean, scale = float(np.linalg.norm(_column_mean(x))), float(np.linalg.norm(x))
    if scale > 0 and mean > _MEAN_TOL * scale:
        raise ValueError(
            "snapshots are not mean-subtracted (column-mean norm / data norm "
            "= {:.2e}); center them with subtract_mean, or pass force=True "
            "for data that is zero-mean by construction".format(mean / scale)
        )


@dataclass(frozen=True)
class LimModel:
    """EOF basis, coefficient series, and the fitted lag propagator.

    ``green`` maps coefficients one lag tau forward in the least-squares
    sense. The EOFs are held in the pairs' coordinates and lifted to
    states on each read, as ``ReducedOperator.svd_of_x`` is.
    """

    x_hat: np.ndarray
    y_hat: np.ndarray
    green: np.ndarray
    tau: float | None
    # The EOFs in the pairs' coordinates, and the frame that lifts them.
    _frame: _Frame = field(repr=False, compare=False)
    _eofs: np.ndarray = field(repr=False, compare=False)

    @property
    def eofs(self) -> np.ndarray:
        """The left singular vectors of x, lifted to states on each read."""
        return self._frame.lift(self._eofs)

    @property
    def lambda_cov(self) -> np.ndarray:
        """Zero-lag covariance of x_hat, diag(sigma^2 / m), formed on read."""
        return np.diag(np.sum(np.abs(self.x_hat) ** 2, axis=1) / self.x_hat.shape[1])


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
    svd = op._svd  # in the pairs' coordinates, as are x and y below
    x_hat = svd.u.conj().T @ op._frame.x
    y_hat = svd.u.conj().T @ op._frame.y
    unit = _unit_scale(svd.sigma)  # exact rescale: squared entries stay in range
    green = ((unit * y_hat) @ (unit * x_hat).conj().T) / (unit * svd.sigma[None, :]) ** 2
    return LimModel(
        x_hat=x_hat,
        y_hat=y_hat,
        green=green,
        tau=pairs.dt,
        _frame=op._frame.detached(),
        _eofs=svd.u,
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
    bound = tol * _norm(op.a_tilde)
    return LimDmdReport(
        green=model.green,
        a_tilde=op.a_tilde,
        max_abs_diff=diff,
        tol=bound,
        equivalent=diff <= bound,
    )
