"""Mode normalizations.

Modes are defined up to a complex factor per column. Every
decomposition already fixes that factor: its reduced vectors have unit
norm and a fixed phase (the unit-norm convention). These helpers add
the two other useful conventions; eigenvalues are never touched.

* :func:`scale_biorthogonal` - adjoint modes rescaled against the
  modes, so the cross Gram matrix becomes the identity.
* :func:`scale_amplitudes` - least-squares coefficients expanding the
  first image snapshot y_0 in the modes, stored alongside the
  decomposition.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .dmd import DmdDecomposition
from .errors import DimensionError
from .linalg import _divide, _lift, _norm, _unit_scale
from .pairs import SnapshotPairs, _frame, _require_series

__all__ = ["scale_biorthogonal", "scale_amplitudes"]

# Eigenvalues closer than this fraction of the largest magnitude have no
# well-defined biorthogonal pairing.
_GAP_TOL = 1e-9


def scale_biorthogonal(dec: DmdDecomposition) -> DmdDecomposition:
    """Rescale adjoint modes so psi_k* phi_k = 1 for every mode k.

    Modes are left as they are; only the adjoint family is rescaled,
    through its small left vectors, which is enough because adjoints and
    modes of distinct eigenvalues are automatically orthogonal. Each
    psi_k* phi_k is taken in the pairs' coordinates, which an orthonormal
    q keeps, so a compressed series lifts neither family. Refuses
    eigenvalue clusters tighter than ``_GAP_TOL`` (1e-9) times the
    largest magnitude, where the pairing is not well defined.
    """
    lam = dec.eigenvalues
    if len(lam) == 0:
        return replace(dec, scaling="biorthogonal")
    scale = float(np.max(np.abs(lam)))
    gap = lam[:, None] - lam[None, :]  # hypot is abs(lam[i] - lam[j]) bit for bit, np.abs is not
    close = np.triu(np.hypot(gap.real, gap.imag) <= _GAP_TOL * scale, 1)
    if close.any():
        i, j = np.argwhere(close)[0]  # the first pair in row-major order
        raise ValueError(
            "eigenvalues {} and {} coincide within {:g}; biorthogonal "
            "pairing is ill-defined".format(lam[i], lam[j], _GAP_TOL)
        )
    phi, psi = _lift(*dec._family), _lift(dec._left, dec.left_vectors)
    gram_diag = np.einsum("ij,ij->j", psi.conj(), phi)
    floor = 1e-10 * np.linalg.norm(phi, axis=0)
    bad = np.abs(gram_diag) <= floor
    if np.any(bad):
        raise ValueError(
            "mode {} is numerically orthogonal to its adjoint; the pair "
            "cannot be normalized".format(int(np.argmax(bad)))
        )
    left = dec.left_vectors / gram_diag.conj()[None, :]
    return replace(dec, left_vectors=left, scaling="biorthogonal")


def scale_amplitudes(
    dec: DmdDecomposition, pairs: SnapshotPairs, *, method: str = "qr"
) -> DmdDecomposition:
    """Fit per-mode amplitudes to the first image snapshot y_0.

    Solves phi_j lambda_j d_j summed = y_0, so that propagating d from
    step 0 lands on the observed step 1. The pairs must form one time
    series (x[:, 1:] == y[:, :-1]), and every eigenvalue must be
    nonzero. To expand the first pre-image x_0 instead, use
    :func:`~dmdkit.dmd.reconstruct`.

    Method "qr" solves the least-squares problem on the mode matrix in
    the pairs' coordinates with numpy's lstsq (LAPACK gelsd, SVD-based;
    the name is historical), and takes its residual at state size.
    Method "gram" uses the normal equations built from y* y in the pair
    space, never forming the state-size mode matrix; that route squares
    the conditioning of the modes, which is exactly what makes it a
    useful foil in ill-conditioned comparisons.

    The fitted amplitudes and attained residual are stored on the
    returned decomposition; an unreachable reference simply shows up as
    a large residual.
    """
    _require_series(pairs)
    if method not in ("qr", "gram"):
        raise ValueError(f"unknown method {method!r}")
    if dec.n_modes == 0:
        raise ValueError("decomposition has no modes to scale")
    lam = dec.eigenvalues
    if np.any(lam == 0):
        raise ValueError(
            "amplitudes through the eigenvalue inverse are undefined for "
            "zero eigenvalues; recompute without zero modes, or expand x_0 "
            "with reconstruct"
        )

    target, frame = pairs.y[:, 0], dec._frame
    n = frame.shape[0]
    if target.shape[0] != n:
        raise DimensionError(
            f"reference snapshot has {target.shape[0]} entries, modes have {n}"
        )

    if method == "qr":
        # q* y_0 fitted in q's coordinates; the residual keeps y_0 outside range(q).
        phi = _lift(dec._exact, dec.exact_vectors)
        coords = frame.project(target)
        t, _, _, _ = np.linalg.lstsq(phi, coords, rcond=None)
        d = _divide(t, lam)
        residual = _norm(frame.lift(phi @ (lam * d)) - target)
    else:
        # Normal equations in pair space: phi diag(lam) = y (v / sigma) w,
        # so only m-by-k factors and y* y ever appear, y in the pairs'
        # coordinates, which keep y* y and every norm. y, t_mat and the
        # target each carry their own power of two; the solution is scaled
        # back once, by ldexp, as their quotient may lie outside float64.
        svd = dec._svd
        if pairs.y.shape != (n, svd.v.shape[0]):
            raise DimensionError(
                "pairs do not match the decomposition (expected y of shape "
                f"{(n, svd.v.shape[0])}, got {pairs.y.shape})"
            )
        y = _frame(pairs).y
        target = y[:, 0]
        t_mat = (svd.v / svd.sigma[None, :]) @ dec.reduced_vectors
        y_unit, t_unit, unit = _unit_scale(y), _unit_scale(t_mat), _unit_scale(target)
        y, t_mat, target = y * y_unit, t_mat * t_unit, target * unit
        gram = t_mat.conj().T @ (y.conj().T @ y) @ t_mat
        d = np.linalg.solve(gram, t_mat.conj().T @ (y.conj().T @ target))
        residual = _norm(y @ (t_mat @ d) - target) / unit
        k = int(np.log2(y_unit) + np.log2(t_unit) - np.log2(unit))
        d = np.ldexp(d.view(np.float64), k).view(np.complex128)

    return replace(
        dec,
        amplitudes=d,
        amplitude_residual=residual,
        scaling=f"amplitude-{method}",
    )
