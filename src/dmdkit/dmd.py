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

All four are one computation, :func:`_decompose`: build a small
compression of A, eigendecompose it once, drop the zero modes, fix each
mode's scale, phase and order on the small eigenvectors, and lift the
exact modes. The routes only choose the compression basis (u, or the
joint basis q = [u c]) and how the exact modes are lifted, which keeps
the four-way agreement a real check.

The operator A is never formed at state dimension; everything runs
through the rank-r SVD of x. A tall time series (more states than
snapshots) is first compressed by one thin QR of its snapshots,
[x, z_m] = Q R, and every route runs on the coordinates x = R[:, :-1]
and y = R[:, 1:], which span range([x y]); only u, b and the joint
basis [u c] are lifted back through Q. Other pairs are their own
coordinates, with no lift. Rank rules are taken at the data's own
shape either way. Real snapshots stay real up to the small
eigenproblem, and each lift of complex reduced vectors back to state
space is a product with a real matrix (:func:`_lift`).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DimensionError, RankZeroError
from .linalg import ReducedSvd, _divide, _held_in, _norm, _svd_threshold
from .linalg import eig_dense, reduced_svd
from .pairs import SnapshotPairs, _frame, _Frame, pairs_from_sequence

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

# linear_consistency calls a pairing consistent when its relative
# defect is at most this.
_CONSISTENCY_TOL = 1e-10


@dataclass(frozen=True)
class ReducedOperator:
    """The operator A compressed to the rank-r column space of x.

    Attributes:
        a_tilde: (r, r) matrix u* A u = u* b.
        svd_of_x: the truncated SVD the compression is built on.
        b: (n, r) matrix y v / sigma; A = b u* without ever forming A.

    a_tilde and b are float64 when x and y are real.
    """

    a_tilde: np.ndarray
    svd_of_x: ReducedSvd
    b: np.ndarray
    # The pairs' coordinates, with svd_of_x and b in them, for the routes to run on.
    _frame: _Frame | None = field(default=None, repr=False, compare=False)
    _svd: ReducedSvd | None = field(default=None, repr=False, compare=False)
    _b: np.ndarray | None = field(default=None, repr=False, compare=False)


def reduced_operator(
    pairs: SnapshotPairs,
    *,
    rtol: float | None = None,
    atol: float | None = None,
) -> ReducedOperator:
    """Compress A = y x^+ to the numerical column space of x, factored once per pairs object.

    The work runs in the coordinates of the pairs (see :func:`~dmdkit.pairs._frame`),
    and one product lifts u and b to states.
    """
    frame = _frame(pairs)
    if rtol is None and atol is None:  # the default cut, at the data's own shape
        rtol = max(frame.shape) * _EPS
    with _held_in(frame):
        svd = reduced_svd(frame.x, rtol=rtol, atol=atol)
    b = (frame.y @ svd.v) / svd.sigma[None, :]
    u_states, b_states = frame.lift(svd.u, b)
    return ReducedOperator(
        a_tilde=svd.u.conj().T @ b,
        svd_of_x=replace(svd, u=u_states),
        b=b_states,
        _frame=frame,
        _svd=svd,
        _b=b,
    )


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
      is q, the mode is q v, and the scale is already in v
      (``exact_divisors`` and ``exact_order`` are None). For exact and
      projected it is b = y v / sigma, and the mode is b w over its entry
      of ``exact_divisors``, then scaled: lambda, or 1 for a null-space
      mode built from its image b w, or 0 for one whose image vanished,
      which is u w instead. Those two arrays keep the small
      eigensolver's column order, and ``exact_order`` gathers the modes
      into mode order last, since the rounding of a matrix product can
      depend on where a column sits.

    Every other per-mode array is index-paired with the eigenvalues,
    ``exact_norms`` too: the exact route's mode 2-norms (else None), for
    :attr:`mode_norms`. On QR and sequential, ``svd_of_x.u`` is a view of q.

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
    own modes (see :attr:`modes`); on the exact route, ``exact_norms``.
    """

    eigenvalues: np.ndarray
    reduced_vectors: np.ndarray
    left_vectors: np.ndarray
    left_basis: np.ndarray
    exact_basis: np.ndarray
    exact_vectors: np.ndarray
    exact_divisors: np.ndarray | None
    exact_order: np.ndarray | None
    exact_norms: np.ndarray | None
    algorithm: str
    scaling: str
    svd_of_x: ReducedSvd
    amplitudes: np.ndarray | None = None
    amplitude_residual: float | None = None
    warnings: tuple[str, ...] = ()

    @property
    def exact_modes(self) -> np.ndarray:
        """Eigenvectors of A, lifted on each read."""
        if self.exact_order is None:
            return _lift(self.exact_basis, self.exact_vectors)
        modes, source, follower = _image_modes(
            self.exact_basis, self.svd_of_x.u, self.exact_vectors, self.exact_divisors
        )
        return _spread(modes, source[self.exact_order], follower[self.exact_order])

    @property
    def projected_modes(self) -> np.ndarray:
        """u w for each reduced vector w, lifted on each read."""
        return _lift(self.svd_of_x.u, self.reduced_vectors)

    @property
    def adjoint_modes(self) -> np.ndarray:
        """left_basis @ left_vectors, lifted on each read."""
        return _lift(self.left_basis, self.left_vectors)

    @property
    def modes(self) -> np.ndarray:
        """The mode family the algorithm itself defines."""
        return self.projected_modes if self.algorithm == "projected" else self.exact_modes

    @property
    def mode_norms(self) -> np.ndarray:
        """2-norms of :attr:`modes`, lifted only where none are kept."""
        return np.linalg.norm(self.modes, axis=0) if self.exact_norms is None else self.exact_norms

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


def _followers(conj_next: np.ndarray) -> np.ndarray:
    """Column j + 1 follows j if ``conj_next[j]`` and j leads: a, conj(a), a, ... alternate."""
    follower = np.zeros_like(conj_next)
    for j in np.flatnonzero(conj_next):
        follower[j + 1] = not follower[j]
    return follower


def _leads(basis: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``basis @ w`` for the columns of complex ``w`` a lift computes.

    For a real basis, the real and imaginary parts of w are lifted
    together by one real product with the interleaved float64 view of
    w, and a column directly followed by its exact conjugate is lifted
    once: the follower's image is the conjugate of its lead's. A
    complex basis lifts every column. Returns the lifted leads, the
    index of each column's lead among them, and the follower mask.
    """
    k = w.shape[1]
    if np.iscomplexobj(basis):
        return basis @ w, np.arange(k), np.zeros(k, dtype=bool)
    conj_next = np.zeros(k, dtype=bool)
    conj_next[:-1] = np.any(w.imag[:, :-1] != 0, axis=0) & np.all(
        w[:, 1:] == w[:, :-1].conj(), axis=0
    )
    follower = _followers(conj_next)
    lead = np.ascontiguousarray(w[:, ~follower])
    lifted = (basis @ lead.view(np.float64)).view(np.complex128)
    return lifted, np.cumsum(~follower) - 1, follower


def _spread(leads: np.ndarray, source: np.ndarray, follower: np.ndarray) -> np.ndarray:
    """Columns ``leads[:, source]``, conjugated where ``follower``."""
    out = np.take(leads, source, axis=1)
    out.imag *= np.where(follower, -1.0, 1.0)
    return out


def _lift(basis: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``basis @ w`` for complex ``w``, in real arithmetic when ``basis`` is real.

    Conjugate eigenvectors of real data give exactly conjugate modes,
    and a conjugate pair costs the same real product as one real column
    pair (see :func:`_leads`).
    """
    if np.iscomplexobj(basis) or not np.iscomplexobj(w):
        return basis @ w
    if w.ndim == 1:
        return _lift(basis, w[:, None])[:, 0]
    return _spread(*_leads(basis, w))


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


def _image_modes(
    b: np.ndarray, u: np.ndarray, vectors: np.ndarray, divisors: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact modes b w / d, times :func:`_column_scale`, of the lead columns.

    A divisor d of 0 gives u w instead. A follower's w and d are the
    exact conjugates of its lead's (see :func:`_leads`), and so is its
    mode: the lead index and follower mask are returned for
    :func:`_spread` to rebuild every column with.
    """
    lifted, source, follower = _leads(b, vectors)
    lead_vectors, lead_divisors = vectors[:, ~follower], divisors[~follower]
    vanished = lead_divisors == 0
    modes = _divide(lifted, np.where(vanished, 1.0, lead_divisors))
    for j in np.flatnonzero(vanished):
        modes[:, j] = _lift(u, lead_vectors[:, j])
    modes *= _column_scale(vectors)[~follower]
    return modes, source, follower


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
    op: ReducedOperator,
    *,
    complement: np.ndarray | None = None,
    zero_tol: float | None = None,
    include_zero_modes: bool = False,
) -> DmdDecomposition:
    """The one decomposition every route runs: eig, zero cut, scale, order.

    The small matrix is a_tilde = u* A u or, for the joint-basis routes
    (QR and sequential), q* A q with q = [u c], the orthonormal
    ``complement`` c spanning the part of y outside range(x), given in
    the pairs' coordinates like everything else here but the lifted
    bases. Zero modes are dropped, and scale and order fixed, on the
    small vectors only. How the exact modes are lifted on read is the
    one thing the routes differ in (see :class:`DmdDecomposition`). For
    the exact and projected routes, null-space modes are settled here by
    :func:`_exact_zero_mode`, and the exact route lifts its modes once,
    transiently, for the norms that fix their order and that
    :func:`spectrum` reads.
    """
    u = op._svd.u
    if complement is None:
        basis, matrix = op.svd_of_x.u, op.a_tilde
    else:
        # q = [u c] and A = b u*, so q* A q = [a_tilde; c* b] [I, u* c].
        q = op._frame.q
        basis = np.concatenate([op.svd_of_x.u, complement if q is None else q @ complement], axis=1)
        uq = np.concatenate([np.eye(u.shape[1]), u.conj().T @ complement], axis=1)
        matrix = np.concatenate([op.a_tilde, complement.conj().T @ op._b]) @ uq
    eig = eig_dense(matrix)
    cut = _zero_tol(matrix, zero_tol)
    kept = np.flatnonzero(include_zero_modes | (np.abs(eig.values) > cut))
    lam = eig.values[kept]

    vectors = eig.vectors[:, kept]
    reduced = vectors if complement is None else _lift(uq, vectors)  # u* exact
    scale = _column_scale(reduced)
    joint = algorithm in ("qr", "sequential")
    norms = np.linalg.norm(vectors, axis=0) * np.abs(scale)  # q v and u w: norms of v and w
    if not joint:
        divisors = lam.copy()
        for j in np.flatnonzero(np.abs(lam) <= cut):  # never set unless include_zero_modes
            divisors[j] = 1.0 if _exact_zero_mode(op, vectors[:, j]) else 0.0
        if algorithm == "exact":  # the norms of exact_modes, bit for bit, so spectrum need not lift
            modes, source, follower = _image_modes(op.b, basis, vectors, divisors)
            if modes.shape[1] == 1:  # numpy sums one column pairwise, but a wider array row by row
                modes, source = _spread(modes, source, follower), np.arange(len(lam))
            norms = np.linalg.norm(modes, axis=0)[source]

    order = _canonical_order(lam, norms)
    scale = scale[order]
    return DmdDecomposition(
        eigenvalues=lam[order],
        reduced_vectors=np.take(reduced, order, axis=1) * scale,
        left_vectors=eig.left_vectors[:, kept[order]],
        left_basis=basis,
        exact_basis=basis if joint else op.b,
        exact_vectors=vectors[:, order] * scale if joint else vectors,
        exact_divisors=None if joint else divisors,
        exact_order=None if joint else order,
        exact_norms=norms[order] if algorithm == "exact" else None,
        algorithm=algorithm,
        scaling="unit-norm",
        svd_of_x=replace(op.svd_of_x, u=basis[:, : u.shape[1]]),  # a view of q on QR, sequential
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
    op = reduced_operator(pairs, rtol=rtol, atol=atol)
    return _decompose(
        "exact", op, zero_tol=zero_tol,
        include_zero_modes=include_zero_modes,
    )


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
    op = reduced_operator(pairs, rtol=rtol, atol=atol)
    return _decompose(
        "projected", op, zero_tol=zero_tol,
        include_zero_modes=include_zero_modes,
    )


def _outside_range(
    op: ReducedOperator, a: np.ndarray, rtol: float | None, atol: float | None
) -> tuple[np.ndarray, float]:
    """The part of the columns ``a`` outside range(x), and its cut, in the pairs' coordinates.

    u is projected out twice, so that the residual is orthogonal to u to
    roundoff. The cut is the rank rule of [x a] at the data's own shape,
    taken at hypot(sigma_1(x), |a|_F), an upper bound of sigma_1([x a]);
    a direction of the residual counts when it stands above the cut.
    """
    u = op._svd.u
    rest = a - u @ (u.conj().T @ a)
    rest -= u @ (u.conj().T @ rest)
    top = np.hypot(op._svd.sigma[0], _norm(a))
    shape = (op._frame.shape[0], op._svd.v.shape[0] + a.shape[1])
    return rest, _svd_threshold(shape, [top], rtol, atol)


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
    op = reduced_operator(pairs, rtol=rtol, atol=atol)
    rest, cut = _outside_range(op, op._frame.y, rtol, atol)
    try:
        complement = reduced_svd(rest, atol=cut).u
    except RankZeroError:
        complement = None  # y lies in range(x), so q = u
    return _decompose(
        "qr", op, complement=complement, zero_tol=zero_tol,
        include_zero_modes=include_zero_modes,
    )


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
    return _sequential(pairs_from_sequence(z, dt=dt), rtol, atol, zero_tol, include_zero_modes)


def _sequential(pairs: SnapshotPairs, rtol=None, atol=None, zero_tol=None,
                include_zero_modes=False) -> DmdDecomposition:
    """:func:`exact_dmd_sequential` on ``pairs`` that form one series, which it factors."""
    op = reduced_operator(pairs, rtol=rtol, atol=atol)
    rest, cut = _outside_range(op, op._frame.y[:, -1:], rtol, atol)
    norm = _norm(rest)
    return _decompose(
        "sequential", op, complement=rest / norm if norm > cut else None,
        zero_tol=zero_tol, include_zero_modes=include_zero_modes,
    )


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
        return ConsistencyReport(True, 0.0, 0.0, _CONSISTENCY_TOL, op.svd_of_x.rank)
    y_norm = _norm(y)
    defect = _norm(y - (y @ v) @ v.conj().T) / y_norm
    residual = _norm(op._b @ (op._svd.u.conj().T @ op._frame.x) - y) / y_norm
    return ConsistencyReport(
        consistent=defect <= _CONSISTENCY_TOL,
        defect=defect,
        residual=residual,
        tol=_CONSISTENCY_TOL,
        rank=op.svd_of_x.rank,
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
    span end up in the residual, never hidden.
    """
    vec = np.asarray(x, dtype=np.complex128).reshape(-1)
    if not np.all(np.isfinite(vec)):
        raise ValueError("state contains non-finite entries")
    modes = dec.modes
    if vec.shape[0] != modes.shape[0]:
        raise DimensionError(
            f"state has {vec.shape[0]} entries, modes have {modes.shape[0]}"
        )
    if dec.n_modes == 0:
        return Reconstruction(np.zeros(0, dtype=np.complex128), float(np.linalg.norm(vec)))
    c, _, _, _ = np.linalg.lstsq(modes, vec, rcond=None)
    residual = float(np.linalg.norm(modes @ c - vec))
    return Reconstruction(coefficients=c, residual=residual)


def propagate(dec: DmdDecomposition, coefficients, steps: int) -> np.ndarray:
    """Advance a mode expansion k = ``steps`` >= 0 steps: sum_j lambda_j^k c_j phi_j."""
    c = np.asarray(coefficients, dtype=np.complex128).reshape(-1)
    if c.shape[0] != dec.n_modes:
        raise DimensionError(f"expected {dec.n_modes} coefficients, got {c.shape[0]}")
    if not np.all(np.isfinite(c)):
        raise ValueError("coefficients contain non-finite entries")
    try:
        steps = operator.index(steps)
    except TypeError:
        raise ValueError(f"steps must be an integer, got {steps!r}") from None
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    return dec.modes @ (c * dec.eigenvalues**steps)


@dataclass(frozen=True)
class SpectrumPoint:
    """Frequency/growth view of one eigenvalue.

    ``growth_continuous`` is -inf for a zero eigenvalue (log of zero
    magnitude); the frequency of a zero eigenvalue is reported as 0.
    """

    eigenvalue: complex
    frequency: float
    growth_discrete: float
    growth_continuous: float
    mode_norm: float
    weighted_norm: float


def _rates(lam: complex, dt: float) -> tuple[float, float]:
    """Frequency (cycles per unit time) and continuous growth rate of one
    eigenvalue advancing ``dt`` per step; a zero eigenvalue gives (0, -inf)."""
    mag = abs(lam)
    if mag == 0.0:
        return 0.0, float("-inf")
    return float(np.angle(lam)) / (2.0 * np.pi * dt), float(np.log(mag)) / dt


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
