"""Eigensystem realization from Markov parameter sequences.

A sequence of impulse-response blocks C A^k B is sampled at strided
anchors by :func:`~dmdkit.pairs.pairs_from_strided`, the rule strided
snapshot pairs use, and stacked into a block Hankel matrix and its
one-step shift; a balanced state-space model of chosen order falls out
of the Hankel SVD. The same (H, H') pair fed to the exact decomposition
gives a similar operator, which is what :func:`era_dmd_similarity`
verifies numerically. Real blocks give a real Hankel pair and a real
realization; complex blocks stay complex.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dmd import exact_dmd, reduced_operator
from .errors import DimensionError
from .linalg import _as_matrix, _held_in, _index, _max_residual, _working_dtype
from .linalg import eig_dense, reduced_svd
from .pairs import SnapshotPairs, _frame, pairs_from_strided

__all__ = [
    "MarkovSequence",
    "EraRealization",
    "EraDmdReport",
    "markov_parameters",
    "markov_from_blocks",
    "build_hankel",
    "era_realize",
    "era_dmd_similarity",
    "match_eigenvalues",
]


@dataclass(frozen=True)
class MarkovSequence:
    """Impulse-response blocks sampled at anchors P apart.

    ``params[k]`` holds C A^(k P) B and ``shifted[k]`` its one-step
    advance C A^(k P + 1) B; the two lists have equal length. The shift
    by a single fine step, not by P, is what lets the realization
    estimate the one-step operator. The blocks carry their own (q, p)
    shape, which :func:`build_hankel` reads and checks; P is not
    recorded, as nothing downstream depends on it.
    """

    params: tuple[np.ndarray, ...]
    shifted: tuple[np.ndarray, ...]

    def __post_init__(self):
        if len(self.params) == 0 or len(self.params) != len(self.shifted):
            raise DimensionError("params and shifted must be equal-length and nonempty")


def markov_parameters(a, b, c, *, count: int, stride: int = 1) -> MarkovSequence:
    """Generate C A^(kP) B and C A^(kP+1) B from a state-space model."""
    dtype = _working_dtype(a, b, c)
    a = np.asarray(a, dtype=dtype)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"a must be a square matrix, got shape {a.shape}")
    b = np.atleast_2d(np.asarray(b, dtype=dtype))
    c = np.atleast_2d(np.asarray(c, dtype=dtype))
    if b.shape[0] == 1 and a.shape[0] != 1 and b.shape[1] == a.shape[0]:
        b = b.T
    if b.shape[0] != a.shape[0] or c.shape[1] != a.shape[0]:
        raise DimensionError("b/c dimensions do not match a")
    count, stride = _index(count, "count", 1), _index(stride, "stride", 1)
    blocks = []
    g = b  # holds a^j @ b
    for _ in range((count - 1) * stride + 2):
        blocks.append(c @ g)
        g = a @ g
    return markov_from_blocks(blocks, stride=stride, count=count)


def markov_from_blocks(blocks, *, stride: int = 1, count: int | None = None) -> MarkovSequence:
    """Subsample a fine impulse-response list into a Markov sequence.

    ``blocks[j]`` is C A^j B: a (q, p) matrix, a length-p vector when
    q = 1, or a scalar when q = p = 1; a (count, q, p) array also works.
    Entry k of the result takes blocks[k*stride] and blocks[k*stride+1],
    the anchors :func:`~dmdkit.pairs.pairs_from_strided` picks from the
    vectorized blocks, so ``count`` and ``stride`` obey its rules.
    """
    try:
        stack = np.asarray(blocks)
    except ValueError as exc:
        raise DimensionError("impulse-response blocks differ in shape") from exc
    if not 1 <= stack.ndim <= 3:
        raise DimensionError(f"impulse-response blocks have shape {stack.shape}")
    while stack.ndim < 3:  # scalars are 1x1 blocks, vectors 1xp
        stack = stack[:, None]
    total, q, p = stack.shape
    pairs = pairs_from_strided(stack.reshape(total, q * p).T, stride, count=count)
    return MarkovSequence(
        params=tuple(pairs.x.T.reshape(-1, q, p)),
        shifted=tuple(pairs.y.T.reshape(-1, q, p)),
    )


def build_hankel(
    seq: MarkovSequence, m_c: int | None = None, m_o: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Block Hankel matrix and its shift from a Markov sequence.

    Block (i, j) of the first matrix is params[i + j], of the second
    shifted[i + j]; i runs over m_o + 1 block rows and j over m_c + 1
    block columns. The split must use the whole sequence:
    m_c + m_o = len(params) - 1. By default the rows take the balanced
    share m_o = (len - 1) // 2. Every block must have the same (q, p)
    shape, which sets the block size of both matrices.
    """
    m = len(seq.params)
    if m_o is None and m_c is None:
        m_o = (m - 1) // 2
    derived = "m_o" if m_o is None else "m_c" if m_c is None else None
    m_c = m - 1 - _index(m_o, "m_o") if m_c is None else _index(m_c, "m_c")
    m_o = m - 1 - m_c if m_o is None else _index(m_o, "m_o")
    if m_c < 0 or m_o < 0:
        why = f" ({derived} derived from m_c + m_o = len(params) - 1 = {m - 1})" if derived else ""
        raise ValueError(f"m_c and m_o must be nonnegative, got m_c = {m_c} and m_o = {m_o}{why}")
    if m_c + m_o != m - 1:
        raise DimensionError(
            f"m_c + m_o must equal len(params) - 1 = {m - 1}, got {m_c} + {m_o}"
        )
    blocks = (*seq.params, *seq.shifted)
    try:
        stack = np.asarray(blocks, dtype=_working_dtype(*blocks))
        _, q, p = stack.shape
    except ValueError as exc:
        raise DimensionError("Markov blocks must be 2-D arrays of one shape") from exc
    index = np.add.outer(np.arange(m_o + 1), np.arange(m_c + 1))
    shape = ((m_o + 1) * q, (m_c + 1) * p)
    h, h_shift = (
        half[index].swapaxes(1, 2).reshape(shape) for half in (stack[:m], stack[m:])
    )
    return h, h_shift


@dataclass(frozen=True)
class EraRealization:
    """Balanced state-space model realized from a Hankel pair.

    The matrices are float64 for a real Hankel pair, complex128 otherwise.
    """

    a_r: np.ndarray
    b_r: np.ndarray
    c_r: np.ndarray
    d_r: np.ndarray
    order: int
    singular_values: np.ndarray


def _hankel_pair(h, h_shift) -> SnapshotPairs:
    """(H, H') as pairs of finite matrices of one shape and one dtype, which factor H once.

    A Hankel pair may form a tall series; it is held in its own coordinates all the same.
    """
    h = _as_matrix(h, "H")
    hs = _as_matrix(h_shift, "H'")
    if h.shape != hs.shape:
        raise DimensionError(f"H and H' shapes differ: {h.shape} vs {hs.shape}")
    dtype = _working_dtype(h, hs)
    pairs = SnapshotPairs(x=h.astype(dtype, copy=False), y=hs.astype(dtype, copy=False))
    _frame(pairs, compress=False)  # the realization factors H itself, so every step does
    return pairs


def era_realize(
    h,
    h_shift,
    order: int | None,
    p: int,
    q: int,
    *,
    rtol: float | None = None,
    atol: float | None = None,
) -> EraRealization:
    """Realize (A_r, B_r, C_r, D_r) of the given order from (H, H').

    ``order=None`` takes the full numerical rank of H. B_r reads off
    the first p columns of sqrt(S) V*, C_r the first q rows of
    U sqrt(S); D_r is the zero (q, p) block, since the Markov sequence
    starts at C B and so holds no feedthrough.
    """
    return _realize(_hankel_pair(h, h_shift), order, p, q, rtol, atol)


def _realize(hankel: SnapshotPairs, order, p, q, rtol, atol) -> EraRealization:
    """:func:`era_realize` on the pairs (H, H'), factoring H once per pairs object."""
    h, hs = hankel.x, hankel.y
    p, q = _index(p, "p", 1), _index(q, "q", 1)
    if h.shape[0] % q or h.shape[1] % p:
        raise DimensionError(
            f"H of shape {h.shape} is not divisible into {q}-by-{p} blocks"
        )
    with _held_in(_frame(hankel)):
        svd = reduced_svd(h, rtol=rtol, atol=atol)
    r = svd.rank if order is None else _index(order, "order")
    if r < 1 or r > svd.rank:
        raise ValueError(f"order {r} outside 1..numerical rank {svd.rank}")
    root = np.sqrt(svd.sigma[:r])
    u = svd.u[:, :r]
    v = svd.v[:, :r]
    a_r = (u.conj().T @ hs @ v) / np.outer(root, root)
    b_r = (root[:, None] * v.conj().T)[:, :p]
    c_r = (u * root[None, :])[:q, :]
    d_r = np.zeros((q, p), dtype=h.dtype)
    return EraRealization(
        a_r=a_r, b_r=b_r, c_r=c_r, d_r=d_r, order=r, singular_values=svd.sigma.copy()
    )


def match_eigenvalues(left, right) -> np.ndarray:
    """Pair two equal-length eigenvalue sets, minimizing total |diff|.

    Returns the permutation ``perm`` with right[perm] matched to left.
    Uses an optimal assignment, so every eigenvalue is used exactly
    once even inside clusters.
    """
    left = np.asarray(left)
    right = np.asarray(right)
    if left.shape != right.shape:
        raise DimensionError(
            f"eigenvalue sets have different sizes: {left.shape} vs {right.shape}"
        )
    # Imported here: scipy.optimize costs a large share of dmdkit's import time.
    import scipy.optimize

    cost = np.abs(left[:, None] - right[None, :])
    _, cols = scipy.optimize.linear_sum_assignment(cost)
    return cols


@dataclass(frozen=True)
class EraDmdReport:
    """Agreement between a full-order realization and the exact decomposition.

    ``max_eigenvalue_mismatch`` is the largest matched |difference|;
    ``max_map_residual`` checks that sqrt(S) v is an eigenvector of the
    reduced operator for every realization eigenpair (lambda, v),
    relative to the operator's Frobenius norm at any scale, by the rule
    :func:`~dmdkit.linalg.eig_dense` checks its own pairs with.
    """

    era_eigenvalues: np.ndarray
    dmd_eigenvalues: np.ndarray
    max_eigenvalue_mismatch: float
    max_map_residual: float
    order: int


def era_dmd_similarity(
    h, h_shift, *, rtol: float | None = None, atol: float | None = None
) -> EraDmdReport:
    """Check that ERA at full order and exact decomposition agree on (H, H').

    The realization A_r equals sqrt(S)^-1 (u* H' v / sigma) sqrt(S), a
    similarity transform of the reduced operator, so the spectra must
    coincide and eigenvectors must map through sqrt(S).
    """
    return _similarity(_hankel_pair(h, h_shift), rtol, atol)


def _similarity(hankel: SnapshotPairs, rtol, atol) -> EraDmdReport:
    """:func:`era_dmd_similarity` on the pairs (H, H'), which all its steps factor once."""
    op = reduced_operator(hankel, rtol=rtol, atol=atol)
    real = _realize(hankel, None, 1, 1, rtol, atol)

    era_eigs = eig_dense(real.a_r)
    dec = exact_dmd(hankel, rtol=rtol, atol=atol, include_zero_modes=True)
    dmd_lam = dec.eigenvalues
    perm = match_eigenvalues(era_eigs.values, dmd_lam)
    mismatch = float(np.max(np.abs(era_eigs.values - dmd_lam[perm])))

    w = np.sqrt(op._svd.sigma[: real.order])[:, None] * era_eigs.vectors
    w /= np.linalg.norm(w, axis=0, keepdims=True)
    return EraDmdReport(
        era_eigenvalues=era_eigs.values,
        dmd_eigenvalues=dmd_lam,
        max_eigenvalue_mismatch=mismatch,
        max_map_residual=_max_residual(op.a_tilde, w, era_eigs.values),
        order=real.order,
    )
