"""Mode decompositions of the best-fit linear operator A = y x^+.

Four routes to the same eigenvalues:

* :func:`exact_dmd` - eigenvectors of A itself, built in the reduced
  space and lifted through y (modes live in range(y)).
* :func:`projected_dmd` - eigenvectors of the projection of A onto
  range(x); cheaper lift, modes live in range(x).
* :func:`exact_dmd_qr` - works in the orthonormal basis q = [u c] of
  [x y], c spanning the part of y outside range(x); no division by lambda.
* :func:`exact_dmd_sequential` - the QR route for a single time series,
  where c is at most one vector: the part of the last snapshot outside
  range(x).

All four are one computation, :func:`_decompose`, from the pairs on:
build the reduced operator and, for QR and sequential, the complement
c, compress A to a small matrix, eigendecompose it once, drop the zero
modes, fix each mode's scale, phase and order on the small
eigenvectors, and store the exact modes as one basis times small
vectors. The routes only choose the compression basis (u, or the joint
basis q = [u c]) and the exact modes' basis (b = y v / sigma, or q),
which keeps the four-way agreement a real check.

The operator A is never formed at state dimension; everything runs
through the rank-r SVD of x. A tall time series (more states than
snapshots) is first compressed by one Householder QR of its snapshots,
[x, z_m] = Q R, and every route runs on the coordinates x = R[:, :-1]
and y = R[:, 1:], which span range([x y]). The reduced operator and
every decomposition are held in them, and a mode or basis is lifted
only when read, by one product with Q (:meth:`~dmdkit.pairs._Frame.lift`):
Q (b t), never (Q b) t. Q itself is formed from the QR's reflectors
on the first such read. Other pairs are their own coordinates, with no
lift. Rank rules are taken at the data's own shape either way. Real
snapshots stay real up to the small eigenproblem, and each lift of
complex vectors is a product with a real matrix (``linalg._lift``).
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DimensionError, RankZeroError
from .linalg import ReducedSvd, _held_in, _index, _lift, _norm, _svd_threshold
from .linalg import eig_dense, reduced_svd
from .pairs import SnapshotPairs, _frame, _Frame, _require_series, pairs_from_sequence

__all__ = [
    "ReducedOperator",
    "DmdDecomposition",
    "ConsistencyReport",
    "Reconstruction",
    "SpectrumPoint",
    "reduced_operator",
    "exact_dmd",
    "projected_dmd",
    "exact_dmd_qr",
    "exact_dmd_sequential",
    "linear_consistency",
    "reconstruct",
    "propagate",
    "spectrum",
]

_EPS = float(np.finfo(np.float64).eps)
_TINY = float(np.finfo(np.float64).tiny)

# linear_consistency calls a pairing consistent when its relative
# defect is at most this.
_CONSISTENCY_TOL = 1e-10


@dataclass(frozen=True)
class ReducedOperator:
    """The operator A compressed to the rank-r column space of x.

    Everything but a_tilde is held once, in the pairs' coordinates (see
    :func:`~dmdkit.pairs._frame`), and lifted to states on each read.

    Attributes:
        a_tilde: (r, r) matrix u* A u = u* b.
        svd_of_x: the truncated SVD the compression is built on.
        b: (n, r) matrix y v / sigma; A = b u* without ever forming A.

    a_tilde, b and u are float64 when x and y are real.
    """

    a_tilde: np.ndarray
    # The pairs' coordinates, and svd_of_x and b in them, for the routes to run on.
    _frame: _Frame = field(repr=False, compare=False)
    _svd: ReducedSvd = field(repr=False, compare=False)
    _b: np.ndarray = field(repr=False, compare=False)

    @property
    def svd_of_x(self) -> ReducedSvd:
        """The SVD of x with u lifted to states on each read."""
        return replace(self._svd, u=self._frame.lift(self._svd.u))

    @property
    def b(self) -> np.ndarray:
        """y v / sigma lifted to states on each read."""
        return self._frame.lift(self._b)


def reduced_operator(
    pairs: SnapshotPairs,
    *,
    rtol: float | None = None,
    atol: float | None = None,
) -> ReducedOperator:
    """Compress A = y x^+ to the numerical column space of x, factored once per pairs object.

    The work runs in the coordinates of the pairs (see :func:`~dmdkit.pairs._frame`);
    nothing is lifted to states until it is read.
    """
    frame = _frame(pairs)
    if rtol is None and atol is None:  # the default cut, at the data's own shape
        rtol = max(frame.shape) * _EPS
    with _held_in(frame):
        svd = reduced_svd(frame.x, rtol=rtol, atol=atol)
    b = (frame.y @ svd.v) / svd.sigma[None, :]
    return ReducedOperator(a_tilde=svd.u.conj().T @ b, _frame=frame, _svd=svd, _b=b)


@dataclass(frozen=True)
class DmdDecomposition:
    """Eigenvalues and mode families from one decomposition run.

    No mode family is stored at state size. Each is lifted on every
    read, and never cached, from a basis the decomposition needs anyway
    and small per-mode arrays, so bind it to a name before a loop:

    * ``projected_modes`` = u w from ``reduced_vectors``, the rank-space
      eigenvectors w with u* phi = w (lambda != 0); the projected
      algorithm's own modes and, for lambda != 0, the exact modes
      projected onto range(x);
    * ``adjoint_modes``, which satisfy psi* A = lambda psi*, from
      ``left_vectors`` in the coordinates of ``left_basis`` (u, or q for
      QR and sequential);
    * ``exact_modes``, eigenvectors of A, from ``exact_vectors`` in the
      coordinates of ``exact_basis``. For QR and sequential that basis
      is q and the mode q v. For exact and projected it is
      b = y v / sigma, and the vector is t = w / lambda, or w for a
      null-space mode built from its image b w; where that image
      vanished, the basis is [b u] and the mode is u w instead. When a
      kept lambda lies below the float64 normal range, b carries an
      exact power of two and t is divided by it too, so t stays finite.

    Every per-mode array is index-paired with the eigenvalues. The bases
    and ``svd_of_x.u``, views of one basis q or [u b], are held in the
    pairs' coordinates and lifted on each read.

    Each mode is scaled so that its reduced vector w has unit norm and a
    fixed phase: the entry of largest magnitude is real and positive.
    Entries within a relative 1e-12 of that magnitude count as tied,
    and the lowest index among them wins. All mode families, the
    adjoint modes and the eigenvalues are complex128 whether the data
    is real or complex; for real data the spectrum is closed under
    conjugation and conjugate eigenvalues carry exactly conjugate modes.

    Modes are ordered by descending mode 2-norm, ties broken by
    descending |lambda| then ascending arg(lambda), which keeps
    conjugate pairs adjacent. The norm used is that of the algorithm's
    own modes (see :attr:`modes`), read where an orthonormal basis keeps
    it up to roundoff: ||v|| on QR and sequential, ||w|| on projected,
    and ||b t|| in the pairs' coordinates on exact. :attr:`mode_norms`
    are the norms of the lifted modes themselves, bit for bit.
    """

    eigenvalues: np.ndarray
    reduced_vectors: np.ndarray
    left_vectors: np.ndarray
    exact_vectors: np.ndarray
    algorithm: str
    scaling: str
    # The SVD of x and both bases, in the pairs' coordinates, and the frame that lifts them,
    # stripped of x and y where those are the states, so it keeps no pairs' data alive.
    _frame: _Frame = field(repr=False, compare=False)
    _svd: ReducedSvd = field(repr=False, compare=False)
    _left: np.ndarray = field(repr=False, compare=False)
    _exact: np.ndarray = field(repr=False, compare=False)
    amplitudes: np.ndarray | None = None
    amplitude_residual: float | None = None
    warnings: tuple[str, ...] = ()

    svd_of_x = ReducedOperator.svd_of_x

    @property
    def left_basis(self) -> np.ndarray:
        """u, or q on the joint routes, lifted on each read."""
        return self._frame.lift(self._left)

    @property
    def exact_basis(self) -> np.ndarray:
        """b, or q on the joint routes, lifted on each read."""
        return self._frame.lift(self._exact)

    @property
    def exact_modes(self) -> np.ndarray:
        """Eigenvectors of A, lifted on each read."""
        return self._frame.lift(_lift(self._exact, self.exact_vectors))

    @property
    def projected_modes(self) -> np.ndarray:
        """u w for each reduced vector w, lifted on each read."""
        return self._frame.lift(_lift(self._svd.u, self.reduced_vectors))

    @property
    def adjoint_modes(self) -> np.ndarray:
        """left_basis @ left_vectors, lifted on each read."""
        return self._frame.lift(_lift(self._left, self.left_vectors))

    @property
    def _family(self) -> tuple[np.ndarray, np.ndarray]:
        """The basis, in the pairs' coordinates, and the vectors of :attr:`modes`."""
        if self.algorithm == "projected":
            return self._svd.u, self.reduced_vectors
        return self._exact, self.exact_vectors

    @property
    def modes(self) -> np.ndarray:
        """The mode family the algorithm itself defines."""
        return self.projected_modes if self.algorithm == "projected" else self.exact_modes

    @property
    def mode_norms(self) -> np.ndarray:
        """2-norms of :attr:`modes` bit for bit, from the one product that lifts them.

        Each is taken on a lead column of that real product and copied
        to its conjugate follower, so no state-size complex array is
        gathered (see :func:`~dmdkit.linalg._lift_norms`).
        """
        return self._frame.lift_norms(*self._family)

    @property
    def n_modes(self) -> int:
        return len(self.eigenvalues)


def _quant(v: float) -> float:
    """Round to 12 significant digits so roundoff-equal keys tie."""
    return float(f"{v:.12g}")


def _canonical_order(eigenvalues: np.ndarray, mode_norms: np.ndarray) -> np.ndarray:
    keys = [
        (-_quant(mode_norms[j]), -_quant(abs(eigenvalues[j])), float(np.angle(eigenvalues[j])))
        for j in range(len(eigenvalues))
    ]
    return np.array(sorted(range(len(eigenvalues)), key=keys.__getitem__), dtype=int)


def _zero_tol(a_tilde: np.ndarray, zero_tol: float | None) -> float:
    if zero_tol is not None:
        if not zero_tol >= 0:
            raise ValueError(f"zero_tol must be nonnegative, got {zero_tol}")
        return float(zero_tol)
    r = a_tilde.shape[0]
    return r * _EPS * _norm(a_tilde)


def _defect_warning(vectors: np.ndarray) -> tuple[str, ...]:
    sv = np.linalg.svd(vectors, compute_uv=False)
    if sv[-1] <= 1e-8 * sv[0]:
        cond = float(sv[0] / sv[-1]) if sv[-1] > 0 else float("inf")
        return (
            "eigenvector basis nearly defective (condition {:.1e}); "
            "mode-coefficient computations may be inaccurate".format(cond),
        )
    return ()


def _exact_zero_mode(op: ReducedOperator, w: np.ndarray) -> bool:
    """Whether the lambda=0 eigenvector of A for w is built from its image.

    The image of w under y v / sigma is itself a lambda=0 eigenvector
    when it is nonzero; when that image vanishes, u w already is one.
    "Vanishes" is judged against the roundoff floor of the product, at
    the data's own shape.
    """
    y = op._frame.y
    t = _lift(op._svd.v / op._svd.sigma[None, :], w)
    bw = _lift(y, t)
    return bool(np.linalg.norm(bw) > max(op._frame.shape) * _EPS * (_norm(y) * _norm(t)))


def _image_basis(
    op: ReducedOperator, vectors: np.ndarray, lam: np.ndarray, cut: float, scale: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The exact modes as b t, with the basis b in the pairs' coordinates: b and t.

    t = w s / lambda for the reduced vectors w and their scales s; a
    null-space mode (|lambda| <= cut) is its image, t = w s, or, where
    that image vanishes (:func:`_exact_zero_mode`), u w s under the
    basis [b u]. Below the normal range, w / lambda would overflow, so
    an exact power of two moves from t into b: the one that brings the
    least lambda into range, since b's own scale cannot when lambda is
    far below b, as for A = diag(1, 1e-310).
    """
    divisors = lam.copy()
    for j in np.flatnonzero(np.abs(lam) <= cut):  # never set unless include_zero_modes
        divisors[j] = 1.0 if _exact_zero_mode(op, vectors[:, j]) else 0.0
    vanished = divisors == 0
    b = op._b
    least = np.min(np.abs(divisors[~vanished]), initial=np.inf)
    if least < _TINY:  # the power of two 2^k that lifts the least |lambda| to [tiny, 2 tiny)
        unit = np.ldexp(2.0, -np.frexp(least / _TINY)[1])
        b, divisors = b * unit, divisors * unit
    t = vectors * (scale / np.where(vanished, 1.0, divisors))
    if vanished.any():
        t = np.concatenate([np.where(vanished, 0.0, t), np.where(vanished, t, 0.0)])
        b = np.hstack([b, op._svd.u])
    return b, t


# Entries whose magnitudes agree to this relative tolerance tie for the
# phase reference, so roundoff cannot decide which one is made real.
_PHASE_TIE_RTOL = 1e-12


def _phase_reference(reduced: np.ndarray) -> np.ndarray:
    """Per column, the lowest index whose magnitude ties the largest one."""
    mags = np.abs(reduced)
    top = mags.max(axis=0, initial=0.0)
    return np.argmax(mags >= top * (1.0 - _PHASE_TIE_RTOL), axis=0)


def _column_scale(reduced: np.ndarray) -> np.ndarray:
    """Per-mode factor giving each reduced vector unit norm and fixed phase.

    The phase makes the reduced vector's reference entry (see
    :func:`_phase_reference`) real and positive, which removes the
    arbitrary unit factor LAPACK leaves on each eigenvector. The factor
    is 1 where the reduced vector is numerically zero (possible only
    for null-space modes), leaving that column untouched.
    """
    norms = np.linalg.norm(reduced, axis=0)
    ok = norms > 1e3 * _EPS
    ref = reduced[_phase_reference(reduced), np.arange(reduced.shape[1])]
    phase = np.where(ok, ref.conj() / np.where(ok, np.abs(ref), 1.0), 1.0)
    return phase / np.where(ok, norms, 1.0)


def _decompose(
    algorithm: str,
    pairs: SnapshotPairs,
    rtol: float | None = None,
    atol: float | None = None,
    zero_tol: float | None = None,
    include_zero_modes: bool = False,
) -> DmdDecomposition:
    """The one path every route takes from pairs: operator, complement, eig, zero cut, order.

    It checks that ``"sequential"`` pairs form one series and builds the
    :func:`reduced_operator` once. The small matrix is a_tilde = u* A u
    or, on the joint-basis routes, q* A q with q = [u c], c orthonormal
    and spanning the part of y outside range(x): for ``"qr"`` the left
    singular vectors of that residual above the rank rule of [x y], for
    ``"sequential"`` the normalized part of z_m outside range(x) when it
    stands above the rule of [x z_m]. u is projected out twice, so the
    residual is orthogonal to u to roundoff, and the rule is taken at
    the data's own shape and at hypot(sigma_1(x), |y|_F or |z_m|), an
    upper bound of the joined matrix's sigma_1. All of it runs in the
    pairs' coordinates. Zero modes are dropped, and scale and order
    fixed, on the small vectors only. Every route stores its exact modes
    as one basis times mode-ordered vectors; the basis is the one thing
    the routes differ in (q, or b from :func:`_image_basis`; see
    :class:`DmdDecomposition`). The exact route orders on ||b t|| taken
    in the pairs' coordinates. Nothing is lifted here: the decomposition
    keeps q or [u b] in the coordinates, with the frame that lifts them.
    """
    if algorithm == "sequential":
        _require_series(pairs)
    op = reduced_operator(pairs, rtol=rtol, atol=atol)
    u, r, frame = op._svd.u, op._svd.rank, op._frame
    joint = algorithm in ("qr", "sequential")
    matrix, complement = op.a_tilde, None
    if joint:
        ys = frame.y if algorithm == "qr" else frame.y[:, -1:]  # all of y, or z_m
        rest = ys - u @ (u.conj().T @ ys)
        rest -= u @ (u.conj().T @ rest)
        top = np.hypot(op._svd.sigma[0], _norm(ys))
        rank_cut = _svd_threshold((frame.shape[0], frame.shape[1] + ys.shape[1]), [top], rtol, atol)
        if algorithm == "qr":
            with contextlib.suppress(RankZeroError):  # else y lies in range(x), so q = u
                complement = reduced_svd(rest, atol=rank_cut).u
        elif _norm(rest) > rank_cut:
            complement = rest / _norm(rest)
    if complement is not None:
        # q = [u c] and A = b u*, so q* A q = [a_tilde; c* b] [I, u* c].
        uq = np.concatenate([np.eye(r), u.conj().T @ complement], axis=1)
        matrix = np.concatenate([op.a_tilde, complement.conj().T @ op._b]) @ uq
    eig = eig_dense(matrix)
    cut = _zero_tol(matrix, zero_tol)
    kept = np.flatnonzero(include_zero_modes | (np.abs(eig.values) > cut))
    lam = eig.values[kept]

    vectors = eig.vectors[:, kept]
    reduced = vectors if complement is None else _lift(uq, vectors)  # u* exact
    scale = _column_scale(reduced)
    norms = np.linalg.norm(vectors, axis=0) * np.abs(scale)  # q v and u w: norms of v and w
    if joint:
        extra, exact = complement, vectors * scale
    else:
        extra, exact = _image_basis(op, vectors, lam, cut, scale)
        if algorithm == "exact":  # q is orthonormal, so b t keeps the modes' norms in coordinates
            norms = np.linalg.norm(_lift(extra, exact), axis=0)
    basis = u if extra is None else np.concatenate([u, extra], axis=1)  # q, or [u b]
    basis.flags.writeable = False

    order = _canonical_order(lam, norms)
    return DmdDecomposition(
        eigenvalues=lam[order],
        reduced_vectors=np.take(reduced, order, axis=1) * scale[order],
        left_vectors=eig.left_vectors[:, kept[order]],
        exact_vectors=exact[:, order],
        algorithm=algorithm,
        scaling="unit-norm",
        _frame=frame.detached(),
        _svd=replace(op._svd, u=basis[:, :r]),
        _left=basis if joint else basis[:, :r],
        _exact=basis if joint else basis[:, r:],
        warnings=_defect_warning(eig.vectors),
    )


def exact_dmd(
    pairs: SnapshotPairs,
    *,
    rtol: float | None = None,
    atol: float | None = None,
    zero_tol: float | None = None,
    include_zero_modes: bool = False,
) -> DmdDecomposition:
    """Eigenpairs of A = y x^+ with modes in the image of y.

    Each nonzero eigenvalue lambda of the reduced operator gives the
    mode phi = (y v / sigma) w / lambda, an eigenvector of A itself.
    Zero eigenvalues are dropped unless ``include_zero_modes`` is set,
    in which case a genuine null-space eigenvector is constructed.
    """
    return _decompose("exact", pairs, rtol, atol, zero_tol, include_zero_modes)


def projected_dmd(
    pairs: SnapshotPairs,
    *,
    rtol: float | None = None,
    atol: float | None = None,
    zero_tol: float | None = None,
    include_zero_modes: bool = False,
) -> DmdDecomposition:
    """Eigenpairs of A projected onto the column space of x.

    Modes are u w for rank-space eigenvectors w and share the exact
    modes' eigenvalues. For lambda != 0 they equal the exact modes after
    projection onto range(x); a null-space exact mode built from the
    image of y (``include_zero_modes``) may have no part in range(x).
    """
    return _decompose("projected", pairs, rtol, atol, zero_tol, include_zero_modes)


def exact_dmd_qr(
    pairs: SnapshotPairs,
    *,
    rtol: float | None = None,
    atol: float | None = None,
    zero_tol: float | None = None,
    include_zero_modes: bool = False,
) -> DmdDecomposition:
    """Exact modes via an orthonormal basis q = [u c] of [x y].

    u is the basis of range(x) the fit already has, and c one of the
    part of y outside range(x), so q spans range([x y]), which holds
    range(A). Compressing A to q preserves the nonzero spectrum, and
    q w is already an eigenvector of A; no per-eigenvalue rescaling is
    needed. c comes from an SVD of that n x m residual, cut at the rank
    rule of [x y]; it is empty when y lies in range(x), and then q = u.
    """
    return _decompose("qr", pairs, rtol, atol, zero_tol, include_zero_modes)


def exact_dmd_sequential(
    z,
    *,
    dt: float | None = None,
    rtol: float | None = None,
    atol: float | None = None,
    zero_tol: float | None = None,
    include_zero_modes: bool = False,
) -> DmdDecomposition:
    """Exact modes from a single time series z_0, ..., z_m.

    Every column of y but the last is a column of x, so range([x y]) =
    range([x z_m]): this is the QR route with at most one complement
    vector, the normalized part of z_m outside range(x), kept when it
    stands above the rank rule of [x z_m]. Otherwise z_m lies in
    range(x) and the output coincides with :func:`projected_dmd`; the
    exact and projected families are then identical.
    """
    pairs = pairs_from_sequence(z, dt=dt)
    return _decompose("sequential", pairs, rtol, atol, zero_tol, include_zero_modes)


@dataclass(frozen=True)
class ConsistencyReport:
    """Whether y is a linear image of x, with the measured defects.

    ``defect`` is the relative mass of y outside the row space of x,
    norm(y (I - x^+ x)) / norm(y); ``residual`` is the relative misfit
    norm(A x - y) / norm(y) of the fitted operator. The two agree up to
    roundoff: null directions of x are exactly what A cannot see.
    """

    consistent: bool
    defect: float
    residual: float
    tol: float
    rank: int


def linear_consistency(
    pairs: SnapshotPairs, *, rtol: float | None = None, atol: float | None = None
) -> ConsistencyReport:
    """Measure whether any linear operator can map each x_k to y_k.

    The pairing counts as consistent when its defect is at most
    ``_CONSISTENCY_TOL`` (1e-10), the value reported as ``tol``.
    """
    op = reduced_operator(pairs, rtol=rtol, atol=atol)
    v, y = op._svd.v, op._frame.y
    if not y.any():
        return ConsistencyReport(True, 0.0, 0.0, _CONSISTENCY_TOL, op._svd.rank)
    y_norm = _norm(y)
    defect = _norm(y - (y @ v) @ v.conj().T) / y_norm
    residual = _norm(op._b @ (op._svd.u.conj().T @ op._frame.x) - y) / y_norm
    return ConsistencyReport(
        consistent=defect <= _CONSISTENCY_TOL,
        defect=defect,
        residual=residual,
        tol=_CONSISTENCY_TOL,
        rank=op._svd.rank,
    )


@dataclass(frozen=True)
class Reconstruction:
    """Least-squares mode coefficients for one state vector."""

    coefficients: np.ndarray
    residual: float


def reconstruct(dec: DmdDecomposition, x) -> Reconstruction:
    """Expand a state vector in the decomposition's own modes.

    Solves min_c norm(modes c - x) with ``numpy.linalg.lstsq`` (SVD-based)
    and reports the attained residual; components of x outside the mode
    span end up in the residual, never hidden. On a compressed series
    the fit runs on the modes in the pairs' coordinates against q* x,
    and the residual is taken at state size, so the part of x outside
    range(q) shows in it too.
    """
    vec = np.asarray(x, dtype=np.complex128).reshape(-1)
    if not np.all(np.isfinite(vec)):
        raise ValueError("state contains non-finite entries")
    frame = dec._frame
    if vec.shape[0] != frame.shape[0]:
        raise DimensionError(
            f"state has {vec.shape[0]} entries, modes have {frame.shape[0]}"
        )
    if dec.n_modes == 0:
        return Reconstruction(np.zeros(0, dtype=np.complex128), float(np.linalg.norm(vec)))
    modes = _lift(*dec._family)
    c, _, _, _ = np.linalg.lstsq(modes, frame.project(vec), rcond=None)
    residual = float(np.linalg.norm(frame.lift(modes @ c) - vec))
    return Reconstruction(coefficients=c, residual=residual)


def propagate(dec: DmdDecomposition, coefficients, steps: int) -> np.ndarray:
    """Advance a mode expansion k = ``steps`` >= 0 steps: sum_j lambda_j^k c_j phi_j."""
    c = np.asarray(coefficients, dtype=np.complex128).reshape(-1)
    if c.shape[0] != dec.n_modes:
        raise DimensionError(f"expected {dec.n_modes} coefficients, got {c.shape[0]}")
    if not np.all(np.isfinite(c)):
        raise ValueError("coefficients contain non-finite entries")
    return dec.modes @ (c * dec.eigenvalues ** _index(steps, "steps", 0))


@dataclass(frozen=True)
class SpectrumPoint:
    """Frequency/growth view of one eigenvalue.

    ``growth_continuous`` is -inf for a zero eigenvalue, whose frequency
    is 0; every other rate is finite, as :func:`spectrum` refuses overflow.
    """

    eigenvalue: complex
    frequency: float
    growth_discrete: float
    growth_continuous: float
    mode_norm: float
    weighted_norm: float


def _rates(lam: complex, dt: float) -> tuple[float, float]:
    """Frequency (cycles per unit time) and continuous growth rate of one eigenvalue
    advancing ``dt`` per step; a zero eigenvalue gives (0, -inf), and a nonzero one
    whose rates overflow float64 raises FloatingPointError."""
    if lam == 0:
        return 0.0, float("-inf")
    rates = float(np.angle(lam)) / (2.0 * np.pi * dt), float(np.log(abs(lam))) / dt
    if not np.all(np.isfinite(rates)):
        raise FloatingPointError(f"overflow: the rates of {lam} at dt = {dt} exceed float64")
    return rates


def spectrum(dec: DmdDecomposition, dt: float = 1.0, m_weight: float = 0) -> list[SpectrumPoint]:
    """Per-mode frequencies, growth rates and (weighted) mode norms.

    ``dt`` is the time advanced per pair; frequencies come out in
    cycles per unit time. ``m_weight`` weights each mode norm by
    |lambda|^m_weight, emphasizing modes that persist over that many
    steps (0 leaves norms untouched).
    """
    if not (np.isfinite(dt) and dt > 0):
        raise ValueError("dt must be finite and positive")
    if not np.isfinite(m_weight):
        raise ValueError("m_weight must be finite")
    points = []
    for lam, nrm in zip(dec.eigenvalues, dec.mode_norms):
        mag = abs(lam)
        freq, growth_c = _rates(lam, dt)
        if mag == 0.0:
            if m_weight == 0:
                weighted = float(nrm)
            else:
                weighted = 0.0 if m_weight > 0 else float("inf")
        else:
            weighted = float(nrm * mag**m_weight)
        points.append(
            SpectrumPoint(
                eigenvalue=complex(lam),
                frequency=freq,
                growth_discrete=float(mag),
                growth_continuous=growth_c,
                mode_norm=float(nrm),
                weighted_norm=weighted,
            )
        )
    return points
