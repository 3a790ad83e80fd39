"""Property-based checks on small random real snapshot data.

The profile is derandomized and the shapes are capped, so the suite is
deterministic and runs in a few seconds. Examples are drawn as shapes
and an RNG seed; numpy generates the Gaussian entries.
"""

import warnings
from dataclasses import fields

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from dmdkit import (
    DimensionError,
    DmdkitError,
    ParseError,
    SnapshotPairs,
    build_hankel,
    delay_embed,
    eig_dense,
    embed_sequence,
    era_dmd_similarity,
    era_realize,
    exact_dmd,
    exact_dmd_qr,
    exact_dmd_sequential,
    lim_dmd_equivalence,
    linear_consistency,
    markov_from_blocks,
    markov_parameters,
    pairs_from_arrays,
    pairs_from_sequence,
    pairs_from_strided,
    pairs_from_trajectories,
    projected_dmd,
    propagate,
    reconstruct,
    reduced_svd,
    scale_amplitudes,
    scale_biorthogonal,
    spectrum,
    subtract_mean,
)
from dmdkit.dmd import _canonical_order
from dmdkit.linalg import _form_q, _qr

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
def gaussian_sequences(draw):
    """A single Gaussian time series, tall or wide."""
    n = draw(dims)
    count = draw(st.integers(min_value=2, max_value=8))
    return np.random.default_rng(draw(seeds)).standard_normal((n, count))


def _four_route_eigenvalues(z):
    pairs = pairs_from_sequence(z)
    return {
        "exact": exact_dmd(pairs).eigenvalues,
        "projected": projected_dmd(pairs).eigenvalues,
        "qr": exact_dmd_qr(pairs).eigenvalues,
        "sequential": exact_dmd_sequential(z).eigenvalues,
    }


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
    routes = _four_route_eigenvalues(z)
    base = routes.pop("exact")
    for other in routes.values():
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


@PROFILE
@given(real_pairs(), st.integers(min_value=-150, max_value=150))
def test_consistency_verdict_ignores_the_data_scale(pairs, exponent):
    scale = 10.0**exponent
    base = linear_consistency(pairs)
    scaled = linear_consistency(pairs_from_arrays(pairs.x * scale, pairs.y * scale))
    assert scaled.consistent == base.consistent
    assert abs(scaled.defect - base.defect) <= 1e-12


@st.composite
def pairs_with_known_null_space(draw):
    """x = b v* of rank r, with n the orthonormal complement of v, and
    y = a x plus, when ``leak`` is drawn, g n*: a part of y that x cannot
    see. Returns the pairs and whether x c = 0 implies y c = 0."""
    n_states, m = draw(dims), draw(dims)
    r = draw(st.integers(min_value=1, max_value=min(n_states, m)))
    leak = draw(st.sampled_from([0.0, 1e-4, 1.0]))
    rng = np.random.default_rng(draw(seeds))
    basis, _ = np.linalg.qr(rng.standard_normal((m, m)))
    v, null = basis[:, :r], basis[:, r:]
    x = rng.standard_normal((n_states, r)) @ v.T
    y = rng.standard_normal((n_states, n_states)) @ x
    y += leak * rng.standard_normal((n_states, m - r)) @ null.T
    return pairs_from_arrays(x, y), leak == 0.0 or r == m


@PROFILE
@given(pairs_with_known_null_space())
def test_consistency_holds_exactly_when_x_c_zero_implies_y_c_zero(case):
    pairs, consistent = case
    assert linear_consistency(pairs).consistent == consistent


@st.composite
def stable_systems(draw):
    """(a, b, c) with n <= 4 states, p, q <= 2 and spectral radius in [0.5, 0.95]."""
    n, p, q = draw(st.integers(1, 4)), draw(st.integers(1, 2)), draw(st.integers(1, 2))
    rng = np.random.default_rng(draw(seeds))
    a = rng.standard_normal((n, n))
    a *= rng.uniform(0.5, 0.95) / max(abs(np.linalg.eigvals(a)))
    return a, rng.standard_normal((n, p)), rng.standard_normal((q, n))


@PROFILE
@given(stable_systems())
def test_era_is_similar_to_the_snapshot_decomposition(system):
    a, b, c = system
    n = a.shape[0]
    h, h_shift = build_hankel(markov_parameters(a, b, c, count=2 * n + 1), m_c=n, m_o=n)
    report = era_dmd_similarity(h, h_shift)
    assert report.max_eigenvalue_mismatch <= 1e-9
    assert report.max_map_residual <= 1e-9


@PROFILE
@given(stable_systems(), st.integers(min_value=-332, max_value=332))
def test_era_map_residual_ignores_the_scale_of_the_shifted_hankel(system, exponent):
    # s = 2^exponent spans about 1e-100...1e100; a power of two keeps
    # the roundoff pattern, so the relative residual may only drift at
    # roundoff, not shrink with s as an absolute residual would.
    a, b, c = system
    n = a.shape[0]
    h, h_shift = build_hankel(markov_parameters(a, b, c, count=2 * n + 1), m_c=n, m_o=n)
    base = era_dmd_similarity(h, h_shift).max_map_residual
    scaled = era_dmd_similarity(h, np.ldexp(h_shift, exponent)).max_map_residual
    assert base / 10 <= scaled <= 10 * base


@PROFILE
@given(stable_systems(), seeds)
def test_lim_propagator_is_the_reduced_operator(system, seed):
    a = system[0]
    n = a.shape[0]
    rng = np.random.default_rng(seed)
    z = np.empty((n, 3 * n + 4))
    z[:, 0] = rng.standard_normal(n)
    for k in range(z.shape[1] - 1):
        z[:, k + 1] = a @ z[:, k] + rng.standard_normal(n)
    centered, _ = subtract_mean(pairs_from_sequence(z))
    assert lim_dmd_equivalence(centered).equivalent


@PROFILE
@given(gaussian_sequences(), st.integers(min_value=-150, max_value=150))
def test_eigenvalues_ignore_the_data_scale(z, exponent):
    base = _four_route_eigenvalues(z)
    scaled = _four_route_eigenvalues(z * 10.0**exponent)
    for route, lam in base.items():
        assert scaled[route].shape == lam.shape, route
        if lam.size:
            assert _matched_gap(scaled[route], lam) <= 1e-10, route


@PROFILE
@given(dims, seeds, st.integers(min_value=-150, max_value=150))
def test_eig_dense_eigenvalues_scale_with_the_matrix(n, seed, exponent):
    # 10^exponent reaches far outside LAPACK geev's own scaling window.
    m = np.random.default_rng(seed).standard_normal((n, n))
    scale = 10.0**exponent
    got = eig_dense(m * scale).values / scale
    assert _matched_gap(got, eig_dense(m).values) <= 1e-12


@PROFILE
@given(gaussian_sequences(), seeds)
def test_eigenvalues_ignore_a_unitary_change_of_coordinates(z, seed):
    rng = np.random.default_rng(seed)
    n = z.shape[0]
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    base = _four_route_eigenvalues(z)
    rotated = _four_route_eigenvalues(q @ z)
    for route, lam in base.items():
        assert rotated[route].shape == lam.shape, route
        if lam.size:
            assert _matched_gap(rotated[route], lam) <= 1e-10, route


@PROFILE
@given(real_pairs(), st.sampled_from([1e155, 1e-170]), st.booleans())
def test_qr_modes_are_eigenvectors_of_the_explicit_operator_at_extreme_scales(
    pairs, scale, keep_zero
):
    a = pairs.y @ np.linalg.pinv(pairs.x)
    bound = 1e-9 * np.linalg.norm(a)
    scaled = pairs_from_arrays(pairs.x * scale, pairs.y * scale)
    dec = exact_dmd_qr(scaled, include_zero_modes=keep_zero)
    assert dec.n_modes == exact_dmd_qr(pairs, include_zero_modes=keep_zero).n_modes
    for lam, phi in zip(dec.eigenvalues, dec.exact_modes.T):
        phi = phi / np.linalg.norm(phi)
        assert np.linalg.norm(a @ phi - lam * phi) <= bound


@PROFILE
@given(real_pairs())
def test_qr_basis_is_u_completed_by_the_rest_of_y(pairs):
    dec = exact_dmd_qr(pairs)
    q, u, y = dec.left_basis, dec.svd_of_x.u, pairs.y
    assert np.abs(q.T @ q - np.eye(q.shape[1])).max() <= 1e-12
    assert np.array_equal(q[:, : u.shape[1]], u)
    assert np.linalg.norm(y - q @ (q.T @ y)) <= 1e-10 * np.linalg.norm(y)


@st.composite
def sequences(draw):
    """A single time series of any shape, tall or wide. Half of them
    follow a normal map with one zero eigenvalue, so that wide ones
    carry a null-space mode."""
    n = draw(dims)
    count = draw(st.integers(min_value=2, max_value=7))
    rng = np.random.default_rng(draw(seeds))
    if not draw(st.booleans()):
        return rng.standard_normal((n, count))
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lam = rng.uniform(0.3, 1.0, n) * rng.choice([-1.0, 1.0], n)
    lam[0] = 0.0
    z = np.empty((n, count))
    z[:, 0] = rng.standard_normal(n)
    for k in range(count - 1):
        z[:, k + 1] = q @ (lam * (q.T @ z[:, k]))
    return z


def _owner(a):
    """The array that owns the buffer behind ``a``."""
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


def _reached(obj):
    """The arrays ``obj`` reaches through its attributes, dataclasses,
    tuples and cached properties included, by the arrays owning them."""
    if isinstance(obj, np.ndarray):
        return {id(_owner(obj)): _owner(obj)}
    if isinstance(obj, tuple):
        items = obj
    elif hasattr(obj, "__dict__") and not isinstance(obj, type):
        items = vars(obj).values()
    else:
        return {}
    found = {}
    for item in items:
        found.update(_reached(item))
    return found


@PROFILE
@given(sequences(), st.booleans(), st.booleans())
def test_adjoint_modes_are_left_eigenvectors_of_the_explicit_operator(z, keep_zero, complex_data):
    """Both derived families on every route, with and without null-space
    modes, on real data and on complex data: the adjoint modes are left
    eigenvectors of A = y x^+, and the projected modes are u u* of the
    exact ones.

    The projection identity u* phi = w needs phi = b w / lambda, so it is
    checked only where dividing by lambda loses no more than roundoff. A
    null-space mode built from the image has u* phi = 0 instead.

    No mode family is stored at state size. On a compressed (tall) series
    the bases stay in the pairs' coordinates, so the only state-size
    buffer a decomposition reaches, through its fields or its frame, is
    the frame's q. On other pairs every state-size array is a basis the
    decomposition needs anyway, u or q (orthonormal) or b = y v / sigma,
    and real for real data, where the modes are complex; each is held
    once: the joint routes' u is the lead block of q, so they hold
    n (r + c) entries, and exact and projected hold u and b, n 2r.
    Each read of the exact modes gives the same bits, and for real data
    conjugate eigenvalues carry exactly conjugate exact modes, which the
    modes.csv writer relies on.

    The spectrum's mode norms are the 2-norms of the route's own modes,
    bit for bit, also after either rescaling (which keep the norms the
    exact route stores), though only the exact route stores them.
    """
    if complex_data:
        # A complex unitary change of state coordinates keeps the spectrum.
        n = z.shape[0]
        rng = np.random.default_rng(n)
        q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        z = q @ z
    pairs = pairs_from_sequence(z)
    a = pairs.y @ np.linalg.pinv(pairs.x)
    a_norm = np.linalg.norm(a)
    bound = 1e-9 * a_norm
    for dec in (
        exact_dmd(pairs, include_zero_modes=keep_zero),
        projected_dmd(pairs, include_zero_modes=keep_zero),
        exact_dmd_qr(pairs, include_zero_modes=keep_zero),
        exact_dmd_sequential(z, include_zero_modes=keep_zero),
    ):
        phi = dec.exact_modes
        assert phi.tobytes() == dec.exact_modes.tobytes(), dec.algorithm
        rescaled = [dec]
        for rescale in (lambda d: scale_amplitudes(d, pairs, method="gram"), scale_biorthogonal):
            try:
                rescaled.append(rescale(dec))
            except ValueError:  # zero eigenvalues, no modes, or a cluster
                pass
        norms = np.linalg.norm(dec.modes, axis=0)
        for scaled in rescaled:
            got = np.array([p.mode_norm for p in spectrum(scaled)], dtype=np.float64)
            assert got.tobytes() == norms.tobytes(), (dec.algorithm, scaled.scaling)
        psi_all = dec.adjoint_modes
        assert psi_all.shape == phi.shape, dec.algorithm
        for lam, psi in zip(dec.eigenvalues, psi_all.T):
            psi = psi / np.linalg.norm(psi)
            residual = np.linalg.norm(psi.conj() @ a - lam * psi.conj())
            assert residual <= bound, dec.algorithm
        u = dec.svd_of_x.u
        gap = np.linalg.norm(dec.projected_modes - u @ (u.conj().T @ phi), axis=0)
        far = np.abs(dec.eigenvalues) > 1e-6 * a_norm
        tol = 1e-10 * np.linalg.norm(phi, axis=0)
        assert np.all(gap[far] <= tol[far]), dec.algorithm

        n, frame = z.shape[0], dec._frame
        bases = (dec._left, dec._exact, *vars(dec._svd).values())
        state_size = [  # arrays with n rows where n exceeds the width of the small space
            a for a in bases
            if isinstance(a, np.ndarray) and a.ndim == 2 and a.shape[0] == n > dec.left_basis.shape[1]
        ]
        reached = _reached(dec).values()
        joint = dec.algorithm in ("qr", "sequential")
        b = (pairs.y @ dec.svd_of_x.v) / dec.svd_of_x.sigma[None, :]
        cols = dec.left_basis.shape[1] if joint else 2 * dec.svd_of_x.rank
        if dec.algorithm != "sequential":  # which runs on pairs of its own
            assert not any(np.shares_memory(a, pairs.x) or np.shares_memory(a, pairs.y) for a in reached)
        if frame.q is not None:  # a compressed series: q itself, and nothing else
            assert dec.algorithm == "sequential" or frame is pairs._coordinates, dec.algorithm
            big = [id(a) for a in reached if a.ndim == 2 and a.shape[0] == n]
            assert big == [id(_owner(frame.q))], dec.algorithm
        else:
            owners = {id(_owner(a)): _owner(a) for a in state_size}
            assert sum(a.nbytes for a in owners.values()) <= n * cols * u.itemsize, dec.algorithm
        for held in state_size:
            assert complex_data or held.dtype == np.float64, dec.algorithm
            width = held.shape[1]
            orthonormal = np.allclose(held.conj().T @ held, np.eye(width), rtol=0, atol=1e-10)
            assert orthonormal or (held.shape == b.shape and np.allclose(held, b)), dec.algorithm
        if not complex_data:
            lam = dec.eigenvalues
            for j in np.flatnonzero(lam.imag != 0):
                partners = np.flatnonzero(lam == lam[j].conj())
                assert any(np.array_equal(phi[:, k], phi[:, j].conj()) for k in partners)


@PROFILE
@given(sequences())
def test_qr_keeps_one_mode_per_direction_of_x_and_y(z):
    """Both joint-basis routes, QR and sequential."""
    pairs = pairs_from_sequence(z)
    rank = reduced_svd(np.concatenate([pairs.x, pairs.y], axis=1)).rank
    assert exact_dmd_qr(pairs, include_zero_modes=True).n_modes == rank
    assert exact_dmd_sequential(z, include_zero_modes=True).n_modes == rank


@st.composite
def tall_series(draw):
    """A time series with more states than snapshots (n > m + 1): Gaussian,
    rank-deficient (x has exact zero rows and rank below m), badly scaled
    (rows up to 2^8 apart, the whole at 1e-150 or 1e150) or complex."""
    count = draw(st.integers(min_value=2, max_value=7))
    n = count + draw(st.integers(min_value=1, max_value=6))
    kind = draw(st.sampled_from(["gaussian", "rank-deficient", "badly scaled", "complex"]))
    rng = np.random.default_rng(draw(seeds))
    z = rng.standard_normal((n, count))
    if kind == "rank-deficient":
        z[rng.permutation(n)[max(1, count - 2):]] = 0.0
    elif kind == "badly scaled":
        z *= np.ldexp(1.0, rng.integers(-4, 5, size=(n, 1)))
        z *= draw(st.sampled_from([1e-150, 1e150]))
    elif kind == "complex":
        z = z + 1j * rng.standard_normal((n, count))
    return z


def _explicit_fit(x, y):
    """The rank-r SVD of x at the default cut, and b = y v / sigma, all at state size."""
    u, s, vh = np.linalg.svd(x, full_matrices=False)
    r = int(np.sum(s > max(x.shape) * np.finfo(float).eps * s[0]))
    u, s, v = u[:, :r], s[:r], vh[:r].conj().T
    return u, s, v, (y @ v) / s


def _near(got, want, tol) -> bool:
    """Every entry of ``got`` lies within ``tol`` of some entry of ``want``."""
    return got.size == 0 or bool(np.abs(got[:, None] - want[None, :]).min(axis=1).max() <= tol)


@st.composite
def tall_matrices(draw):
    """An n x k matrix with n >= k + 1 rows, as the QR of a series of k
    snapshots sees it, k on both sides of the 32-column block: Gaussian,
    badly scaled (rows up to 2^30 apart, the whole at 1e-100 or 1e100) or complex."""
    k = draw(st.integers(min_value=2, max_value=70))
    n = k + draw(st.integers(min_value=1, max_value=40))
    kind = draw(st.sampled_from(["gaussian", "badly scaled", "complex"]))
    rng = np.random.default_rng(draw(seeds))
    z = rng.standard_normal((n, k))
    if kind == "badly scaled":
        z *= np.ldexp(1.0, rng.integers(-30, 31, size=(n, 1))) * draw(st.sampled_from([1e-100, 1e100]))
    elif kind == "complex":
        z = z + 1j * rng.standard_normal((n, k))
    return z


@PROFILE
@given(tall_matrices())
def test_the_series_qr_is_orthonormal_q_times_triangular_r(z):
    """z = q r with q formed from the reflectors: Householder QR is backward
    stable, so |q r - z| <= 10 k eps |z| and |q* q - I| <= 10 k eps for k
    columns (Frobenius norms; measured below 1 k eps and 2.1 k eps)."""
    k = z.shape[1]
    reflectors, tau, r = _qr(np.array(z, order="F"))
    q = _form_q(reflectors, tau)
    eps = np.finfo(np.float64).eps
    assert q.shape == z.shape and r.shape == (k, k) and q.dtype == r.dtype == z.dtype
    assert np.array_equal(r, np.triu(r))
    assert not (q.flags.writeable or r.flags.writeable)
    assert np.linalg.norm(q @ r - z) <= 10 * k * eps * np.linalg.norm(z)
    assert np.linalg.norm(q.conj().T @ q - np.eye(k)) <= 10 * k * eps


@PROFILE
@given(tall_series())
def test_a_compressed_series_matches_the_explicit_computation(z):
    """Every route on a tall series runs on the coordinates of one QR of its
    snapshots; checked against a state-size numpy fit with the bounds of
    test_four_routes_agree, test_exact_modes_are_eigenvectors_of_the_explicit_operator
    and the equivalence tolerance, and roundoff for the consistency measures."""
    pairs = pairs_from_sequence(z)
    x, y = pairs.x, pairs.y
    u, s, v, b = _explicit_fit(x, y)
    lam = np.linalg.eigvals(u.conj().T @ b)
    a = y @ np.linalg.pinv(x)
    decs = [exact_dmd(pairs), projected_dmd(pairs), exact_dmd_qr(pairs), exact_dmd_sequential(z)]
    assert pairs._coordinates.q is not None  # the compressed path ran
    top = max(float(np.abs(lam).max()), 1e-300)
    for dec in decs:
        assert dec.svd_of_x.rank == len(s), dec.algorithm
        assert _near(dec.eigenvalues, lam, 1e-9 * top), dec.algorithm
        assert _near(lam[np.abs(lam) > 1e-6 * top], dec.eigenvalues, 1e-9 * top), dec.algorithm
        for value, phi in zip(dec.eigenvalues, dec.exact_modes.T):
            phi = phi / np.linalg.norm(phi)
            assert np.linalg.norm(a @ phi - value * phi) <= 1e-9 * np.linalg.norm(a), dec.algorithm

    report = linear_consistency(pairs)
    y_norm = np.linalg.norm(y)
    assert abs(report.defect - np.linalg.norm(y - (y @ v) @ v.conj().T) / y_norm) <= 1e-12
    assert abs(report.residual - np.linalg.norm(b @ (u.conj().T @ x) - y) / y_norm) <= 1e-12

    if pairs.n_pairs < 2:  # a single centred pair is zero
        return
    centered, _ = subtract_mean(pairs)
    equivalence = lim_dmd_equivalence(centered)
    assert centered._coordinates.q is not None
    unit = np.ldexp(1.0, -np.frexp(np.abs(centered.x).max())[1])  # exact, so s**2 stays in range
    u, s, v, b = _explicit_fit(centered.x * unit, centered.y * unit)
    a_tilde = u.conj().T @ b
    green = (u.conj().T @ (centered.y * unit)) @ (u.conj().T @ (centered.x * unit)).conj().T / s**2
    assert equivalence.equivalent
    assert equivalence.max_abs_diff <= 1e-10 * np.linalg.norm(a_tilde)
    assert np.max(np.abs(green - a_tilde)) <= 1e-10 * np.linalg.norm(a_tilde)
    gap = 1e-9 * max(float(np.abs(np.linalg.eigvals(a_tilde)).max()), 1e-300)
    assert _near(np.linalg.eigvals(equivalence.green), np.linalg.eigvals(green), gap)


@st.composite
def impulse_responses(draw):
    """Real or complex (q, p) blocks, 1 <= q, p <= 3, with a stride of 1 to 3."""
    q, p = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    total = draw(st.integers(min_value=2, max_value=12))
    rng = np.random.default_rng(draw(seeds))
    blocks = rng.standard_normal((total, q, p))
    if draw(st.booleans()):
        blocks = blocks + 1j * rng.standard_normal((total, q, p))
    return blocks, draw(st.integers(1, 3))


@PROFILE
@given(impulse_responses(), st.booleans())
def test_markov_sequence_takes_the_strided_anchor_blocks(case, as_list):
    blocks, stride = case
    seq = markov_from_blocks(list(blocks) if as_list else blocks, stride=stride)
    anchors = range(0, len(blocks) - 1, stride)
    assert len(seq.params) == len(seq.shifted) == len(anchors)
    for k, j in enumerate(anchors):
        for got, want in ((seq.params[k], blocks[j]), (seq.shifted[k], blocks[j + 1])):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)


def _hankel_by_block_loop(blocks, m_c, m_o):
    q, p = blocks[0].shape
    out = np.empty(((m_o + 1) * q, (m_c + 1) * p), dtype=blocks[0].dtype)
    for i in range(m_o + 1):
        for j in range(m_c + 1):
            out[i * q : (i + 1) * q, j * p : (j + 1) * p] = blocks[i + j]
    return out


@PROFILE
@given(impulse_responses())
def test_hankel_pair_matches_a_block_loop_for_every_split(case):
    blocks, stride = case
    seq = markov_from_blocks(blocks, stride=stride)
    m = len(seq.params)
    for m_o in range(m):
        m_c = m - 1 - m_o
        h, h_shift = build_hankel(seq, m_c=m_c, m_o=m_o)
        for got, source in ((h, seq.params), (h_shift, seq.shifted)):
            want = _hankel_by_block_loop(source, m_c, m_o)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)


@PROFILE
@given(sequences(), st.booleans(), st.booleans())
def test_every_route_is_sorted_on_the_norms_it_reports(z, keep_zero, complex_data):
    """Each route orders its modes on norms taken in its own coordinates,
    which agree with the norms of the lifted modes (printed as
    ``mode_norm``) to their 12-digit keys, so sorting the decomposition
    again on ``mode_norms`` leaves it in place."""
    if complex_data:
        z = z * np.exp(1j * np.arange(z.shape[0]))[:, None]
    pairs = pairs_from_sequence(z)
    for dec in (
        exact_dmd(pairs, include_zero_modes=keep_zero),
        projected_dmd(pairs, include_zero_modes=keep_zero),
        exact_dmd_qr(pairs, include_zero_modes=keep_zero),
        exact_dmd_sequential(z, include_zero_modes=keep_zero),
    ):
        order = _canonical_order(dec.eigenvalues, dec.mode_norms)
        assert np.array_equal(order, np.arange(dec.n_modes)), dec.algorithm


_HOSTILE = ("3-D", "str", "nan", "inf", "empty", "ragged")


@st.composite
def hostile(draw, shape):
    """A Gaussian array of ``shape`` spoiled in one way from ``_HOSTILE``."""
    a = np.random.default_rng(draw(seeds)).standard_normal(shape)
    kind = draw(st.sampled_from(_HOSTILE))
    spot = tuple(draw(st.integers(0, size - 1)) for size in shape)
    if kind == "3-D":
        return a.reshape(shape + (1,) * (3 - len(shape))) * np.ones(draw(st.integers(1, 2)))
    if kind == "str":
        a = a.astype("U32")
        a[spot] = draw(st.sampled_from(["x", "", "nan", "1e400"]))
        return a
    if kind in ("nan", "inf"):
        a[spot] = np.nan if kind == "nan" else draw(st.sampled_from([np.inf, -np.inf]))
        return a
    if kind == "empty":
        return draw(st.sampled_from([[], np.empty(shape[:-1] + (0,)), np.empty((0,) + shape[1:])]))
    if len(shape) == 1:
        return [a.tolist(), [1.0, 2.0]]
    return [*a.T, np.append(a[:, 0], 1.0)]


def _refused_or_finite(call, *, refused=False):
    """``call()`` either raises a DmdkitError or ValueError that carries a
    message, or (unless ``refused``) returns only finite numbers; a
    warning counts as neither."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            out = call()
        except (DmdkitError, ValueError) as exc:
            assert str(exc), type(exc).__name__
            return
    assert not refused, out
    held = [out] if isinstance(out, np.ndarray) else [getattr(out, f.name) for f in fields(out)]
    for value in held:
        if isinstance(value, (np.ndarray, float)):
            assert np.all(np.isfinite(value))


@PROFILE
@given(st.data())
def test_hostile_input_is_refused_with_a_message(data):
    """3-D, str, nan/inf, empty and ragged input, and a fractional,
    infinite or negative step count, end in a refusal with a message at
    every public gate, never in another exception, a warning or a
    non-finite result. A directly built pair set refuses str and ragged
    input with a typed error. Snapshots and step counts are always
    refused; a state or coefficient vector may pass where it still reads
    as finite numbers of the right count (a 1-D state reshaped to 3-D,
    or numeric strings)."""
    n, count = data.draw(dims), data.draw(st.integers(min_value=2, max_value=6))
    z = data.draw(hostile((n, count)))
    _refused_or_finite(lambda: pairs_from_sequence(z), refused=True)
    _refused_or_finite(lambda: pairs_from_arrays(z, z), refused=True)
    _refused_or_finite(lambda: exact_dmd_sequential(z), refused=True)
    try:  # built directly, past the pair constructors' own gate
        direct = SnapshotPairs(x=z, y=z)
    except (DimensionError, ParseError) as exc:  # typed, never numpy's own refusal
        assert str(exc)
    else:  # no copy and no finiteness scan here: the routes refuse nan, inf and empty
        assert isinstance(z, np.ndarray) and z.dtype.kind == "f"
        for route in (exact_dmd, projected_dmd, exact_dmd_qr):
            _refused_or_finite(lambda: route(direct), refused=True)

    dec = exact_dmd(pairs_from_sequence(np.random.default_rng(n).standard_normal((n, count))))
    state = data.draw(hostile((n,)))
    _refused_or_finite(lambda: reconstruct(dec, state))
    steps = data.draw(st.one_of(st.floats(), st.integers(max_value=-1)))
    _refused_or_finite(lambda: propagate(dec, np.ones(dec.n_modes), steps), refused=True)
    if dec.n_modes:
        coefficients = data.draw(hostile((dec.n_modes,)))
        _refused_or_finite(lambda: propagate(dec, coefficients, 1))


_Z = np.random.default_rng(3).standard_normal((3, 12))
_IMPULSE = markov_from_blocks(0.5 ** np.arange(8.0))
_MODEL = (0.5 * np.eye(2), np.ones((2, 1)), np.ones((1, 2)))


@pytest.mark.parametrize("call, error, message", [
    (lambda: pairs_from_strided(_Z, 1.5), ValueError, "stride must be an integer"),
    (lambda: pairs_from_strided(_Z, 1, count=2.5), ValueError, "count must be an integer"),
    (lambda: markov_parameters(*_MODEL, count=3.0), ValueError, "count must be an integer"),
    (lambda: markov_parameters(*_MODEL, count=3, stride=1.5), ValueError, "stride must be"),
    (lambda: markov_from_blocks(0.5 ** np.arange(8.0), stride=1.5), ValueError, "stride must"),
    (lambda: markov_from_blocks(0.5 ** np.arange(8.0), count=2.5), ValueError, "count must"),
    (lambda: embed_sequence(_Z, 1.5), ValueError, "depth must be an integer"),
    (lambda: delay_embed(pairs_from_sequence(_Z), 1.5), ValueError, "depth must be an integer"),
    (lambda: build_hankel(_IMPULSE, m_o=1.5), ValueError, "m_o must be an integer"),
    (lambda: build_hankel(_IMPULSE, m_c=1.5), ValueError, "m_c must be an integer"),
    (lambda: era_realize(*build_hankel(_IMPULSE), 1.5, 1, 1), ValueError, "order must be an"),
    (lambda: era_realize(*build_hankel(_IMPULSE), None, 1.5, 1), ValueError, "p must be an"),
    (lambda: era_realize(*build_hankel(_IMPULSE), None, 1, 1.5), ValueError, "q must be an"),
    (lambda: markov_parameters(2.0, 1, 1, count=3), DimensionError, "square matrix"),
    (lambda: pairs_from_trajectories(5), DimensionError, "sequence of trajectories"),
], ids=[
    "stride", "strided count", "markov count", "markov stride", "blocks stride", "blocks count",
    "embed depth", "delay depth", "m_o", "m_c", "order", "p", "q", "scalar a", "scalar runs",
])
def test_integer_arguments_and_scalars_are_refused_with_a_type(call, error, message):
    """Every integer argument passes one rule, operator.index: a float,
    even an integral one, is refused, never truncated or left to numpy
    to fail on; a scalar where a matrix or a sequence belongs is a
    DimensionError."""
    with pytest.raises(error, match=message):
        call()


def test_numpy_integers_pass_the_integer_rule():
    assert np.array_equal(pairs_from_strided(_Z, np.int64(2), count=np.int32(3)).x,
                          pairs_from_strided(_Z, 2, count=3).x)
    assert embed_sequence(_Z, np.int64(3)).shape == (9, 10)
