"""Property-based checks on small random real snapshot data.

The profile is derandomized and the shapes are capped, so the suite is
deterministic and runs in a few seconds. Examples are drawn as shapes
and an RNG seed; numpy generates the Gaussian entries.
"""

import numpy as np
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from dmdkit import (
    exact_dmd,
    exact_dmd_qr,
    exact_dmd_sequential,
    pairs_from_arrays,
    pairs_from_sequence,
    projected_dmd,
)

PROFILE = settings(derandomize=True, max_examples=80, deadline=None, database=None)

seeds = st.integers(min_value=0, max_value=2**32 - 1)
dims = st.integers(min_value=1, max_value=6)


def _matched_gap(got, want) -> float:
    """Largest |difference| under the optimal one-to-one matching,
    relative to the largest magnitude in ``want``."""
    assert got.shape == want.shape
    cost = np.abs(got[:, None] - want[None, :])
    rows, cols = scipy.optimize.linear_sum_assignment(cost)
    return float(cost[rows, cols].max()) / max(float(np.abs(want).max()), 1e-300)


@st.composite
def real_pairs(draw):
    n, m = draw(dims), draw(dims)
    rng = np.random.default_rng(draw(seeds))
    return pairs_from_arrays(rng.standard_normal((n, m)), rng.standard_normal((n, m)))


@st.composite
def wide_sequences(draw):
    """More snapshots than states, so every route sees the same rank."""
    n = draw(st.integers(min_value=2, max_value=6))
    count = n + draw(st.integers(min_value=2, max_value=6))
    return np.random.default_rng(draw(seeds)).standard_normal((n, count))


@PROFILE
@given(real_pairs())
def test_real_arithmetic_matches_complex_arithmetic(pairs):
    real = exact_dmd(pairs)
    cplx = exact_dmd(pairs_from_arrays(pairs.x.astype(complex), pairs.y.astype(complex)))
    assert pairs.x.dtype == np.float64
    assert real.n_modes == cplx.n_modes
    if real.n_modes:
        assert _matched_gap(real.eigenvalues, cplx.eigenvalues) <= 1e-10


@PROFILE
@given(real_pairs())
def test_exact_modes_are_eigenvectors_of_the_explicit_operator(pairs):
    a = pairs.y @ np.linalg.pinv(pairs.x)
    dec = exact_dmd(pairs)
    bound = 1e-9 * np.linalg.norm(a)
    for lam, phi in zip(dec.eigenvalues, dec.exact_modes.T):
        phi = phi / np.linalg.norm(phi)
        assert np.linalg.norm(a @ phi - lam * phi) <= bound


@PROFILE
@given(real_pairs())
def test_real_spectrum_is_closed_under_conjugation(pairs):
    lam = exact_dmd(pairs).eigenvalues
    for value in lam[lam.imag != 0]:
        assert np.count_nonzero(lam == value.conjugate()) == np.count_nonzero(lam == value)


@PROFILE
@given(wide_sequences())
def test_four_routes_agree(z):
    pairs = pairs_from_sequence(z)
    base = exact_dmd(pairs).eigenvalues
    for other in (
        projected_dmd(pairs).eigenvalues,
        exact_dmd_qr(pairs).eigenvalues,
        exact_dmd_sequential(z).eigenvalues,
    ):
        assert other.shape == base.shape
        assert _matched_gap(other, base) <= 1e-9


@PROFILE
@given(real_pairs(), st.randoms(use_true_random=False))
def test_column_order_of_the_pairs_does_not_move_the_eigenvalues(pairs, random):
    perm = list(range(pairs.n_pairs))
    random.shuffle(perm)
    shuffled = pairs_from_arrays(pairs.x[:, perm], pairs.y[:, perm])
    for route in (exact_dmd, projected_dmd, exact_dmd_qr):
        base = route(pairs).eigenvalues
        other = route(shuffled).eigenvalues
        assert other.shape == base.shape, route.__name__
        if base.size:
            assert _matched_gap(other, base) <= 1e-9, route.__name__


@st.composite
def sequences(draw):
    """A single time series of any shape, tall or wide."""
    n = draw(dims)
    count = draw(st.integers(min_value=2, max_value=7))
    return np.random.default_rng(draw(seeds)).standard_normal((n, count))


@PROFILE
@given(sequences())
def test_adjoint_modes_are_left_eigenvectors_of_the_explicit_operator(z):
    pairs = pairs_from_sequence(z)
    a = pairs.y @ np.linalg.pinv(pairs.x)
    bound = 1e-9 * np.linalg.norm(a)
    for dec in (
        exact_dmd(pairs),
        projected_dmd(pairs),
        exact_dmd_qr(pairs),
        exact_dmd_sequential(z),
    ):
        assert dec.adjoint_modes.shape == dec.exact_modes.shape, dec.algorithm
        for lam, psi in zip(dec.eigenvalues, dec.adjoint_modes.T):
            psi = psi / np.linalg.norm(psi)
            residual = np.linalg.norm(psi.conj() @ a - lam * psi.conj())
            assert residual <= bound, dec.algorithm
