"""Dtype contract and mode phase convention.

Real snapshots are decomposed in float64 up to the eigen-step; complex
snapshots stay complex128. Whatever the input, the public fields of a
decomposition are complex128, and every reduced vector carries the
documented phase: unit norm, with its largest-magnitude entry (lowest
index among ties) real and positive.
"""

import numpy as np
import pytest

from dmdkit import (
    build_hankel,
    era_realize,
    exact_dmd,
    exact_dmd_qr,
    exact_dmd_sequential,
    markov_from_blocks,
    markov_parameters,
    pairs_from_arrays,
    pairs_from_sequence,
    projected_dmd,
    reduced_operator,
    scale_amplitudes,
)
from dmdkit.dmd import _lift
from dmdkit.linalg import eig_dense, reduced_svd
from dmdkit.pairs import snapshot_matrix

_EPS = np.finfo(np.float64).eps
# Magnitudes this close to the largest one count as tied for the phase.
_TIE_RTOL = 1e-12


def _all_routes(z):
    pairs = pairs_from_sequence(z)
    return {
        "exact": exact_dmd(pairs),
        "projected": projected_dmd(pairs),
        "qr": exact_dmd_qr(pairs),
        "sequential": exact_dmd_sequential(z),
    }


def _real_sequence(seed, n=5, count=12):
    return np.random.default_rng(seed).standard_normal((n, count))


def _complex_sequence(seed, n=4, count=10):
    """Trajectory of a complex linear map with non-conjugate eigenvalues."""
    rng = np.random.default_rng(seed)
    lam = np.array([0.95 * np.exp(0.4j), 0.8 * np.exp(1.3j), 0.6j, -0.5])[:n]
    basis, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    a = basis @ np.diag(lam) @ basis.conj().T
    z = np.empty((n, count), dtype=np.complex128)
    z[:, 0] = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    for k in range(count - 1):
        z[:, k + 1] = a @ z[:, k]
    return z, lam


def _phase_reference(w):
    mags = np.abs(w)
    return int(np.flatnonzero(mags >= mags.max() * (1.0 - _TIE_RTOL))[0])


class TestPhaseConvention:
    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_every_route_fixes_the_reduced_vector_phase(self, kind):
        for seed in range(8):
            z = _real_sequence(seed) if kind == "real" else _complex_sequence(seed)[0]
            for name, dec in _all_routes(z).items():
                for j, w in enumerate(dec.reduced_vectors.T):
                    if np.linalg.norm(w) <= 1e3 * _EPS:
                        continue
                    assert abs(np.linalg.norm(w) - 1.0) < 1e-12, (name, j)
                    ref = w[_phase_reference(w)]
                    assert ref.real > 0, (name, seed, j)
                    assert abs(ref.imag) <= 1e-12 * ref.real, (name, seed, j)

    def test_tied_magnitudes_choose_the_lowest_index(self):
        # The swap map has reduced vectors with two equal-magnitude
        # entries; the first one is made real and positive.
        z = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        dec = exact_dmd(pairs_from_sequence(z))
        for w in dec.reduced_vectors.T:
            assert abs(abs(w[0]) - abs(w[1])) < 1e-15
            assert w[0].real > 0 and w[0].imag == 0.0

    def test_real_input_gives_exactly_conjugate_pairs(self):
        for seed in range(8):
            z = _real_sequence(100 + seed)
            for name, dec in _all_routes(z).items():
                lam = dec.eigenvalues
                assert np.any(lam.imag != 0), "test data should have complex eigenvalues"
                for j in np.flatnonzero(lam.imag != 0):
                    partner = np.flatnonzero(lam == lam[j].conj())
                    assert len(partner) == 1, (name, seed, j)
                    k = partner[0]
                    for family in (dec.exact_modes, dec.projected_modes,
                                   dec.reduced_vectors, dec.adjoint_modes):
                        assert np.array_equal(family[:, k], family[:, j].conj()), (name, j)


class TestLift:
    def test_matches_complex_matmul(self):
        rng = np.random.default_rng(9)
        basis = rng.standard_normal((7, 4))
        pair = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        # a real column, a conjugate pair, a repeated pair (a chain of
        # equal columns), and a lone complex column
        w = np.column_stack([
            rng.standard_normal(4) + 0j, pair, pair.conj(), pair, pair.conj(),
            rng.standard_normal(4) + 1j * rng.standard_normal(4),
        ])
        want = basis.astype(np.complex128) @ w
        got = _lift(basis, w)
        assert got.dtype == np.complex128
        assert np.allclose(got, want, rtol=0, atol=1e-14 * np.abs(want).max())
        assert np.array_equal(got[:, 2], got[:, 1].conj())
        assert np.array_equal(got[:, 4], got[:, 3].conj())
        assert np.allclose(_lift(basis, w[:, 5]), want[:, 5], rtol=0, atol=1e-14)

    def test_complex_basis_is_a_plain_product(self):
        rng = np.random.default_rng(10)
        basis = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
        w = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        assert np.array_equal(_lift(basis, w), basis @ w)


class TestDtypeContract:
    def test_real_data_is_factored_in_float64(self):
        pairs = pairs_from_sequence(_real_sequence(3))
        assert pairs.x.dtype == np.float64
        svd = reduced_svd(pairs.x)
        assert svd.u.dtype == svd.v.dtype == svd.sigma.dtype == np.float64
        op = reduced_operator(pairs)
        assert op.a_tilde.dtype == op.b.dtype == np.float64
        assert op.svd_of_x.u.dtype == np.float64

    def test_integer_snapshots_become_float64(self):
        assert snapshot_matrix(np.arange(6).reshape(2, 3)).dtype == np.float64

    def test_complex_data_stays_complex_and_keeps_its_spectrum(self):
        z, lam = _complex_sequence(5)
        pairs = pairs_from_sequence(z)
        assert pairs.x.dtype == np.complex128
        op = reduced_operator(pairs)
        assert op.a_tilde.dtype == op.svd_of_x.u.dtype == np.complex128
        for name, dec in _all_routes(z).items():
            got = dec.eigenvalues
            assert len(got) == len(lam), name
            diff = np.abs(got[:, None] - lam[None, :]).min(axis=0)
            assert diff.max() < 1e-10, name

    @pytest.mark.parametrize("kind", ["real", "real-spectrum", "complex"])
    def test_public_fields_are_complex128(self, kind):
        if kind == "real":
            z = _real_sequence(4)
        elif kind == "real-spectrum":
            # A real map with real eigenvalues: LAPACK returns real vectors.
            a = np.diag([0.9, 0.5, -0.3])
            z = np.empty((3, 6))
            z[:, 0] = [1.0, 1.0, 1.0]
            for k in range(5):
                z[:, k + 1] = a @ z[:, k]
        else:
            z = _complex_sequence(4)[0]
        pairs = pairs_from_sequence(z)
        for name, dec in _all_routes(z).items():
            scaled = scale_amplitudes(dec, pairs)
            for field in ("eigenvalues", "exact_modes", "projected_modes",
                          "reduced_vectors", "adjoint_modes", "amplitudes"):
                assert getattr(scaled, field).dtype == np.complex128, (name, field)

    def test_eig_dense_returns_complex_pairs_for_real_matrices(self):
        pairs = eig_dense(np.diag([2.0, 1.0]))
        for arr in (pairs.values, pairs.vectors, pairs.left_vectors):
            assert arr.dtype == np.complex128

    def test_real_markov_blocks_give_a_real_realization(self):
        a = np.array([[0.9, 0.2], [-0.2, 0.9]])
        seq = markov_parameters(a, np.eye(2)[:, :1], np.eye(2)[:1], count=9)
        h, h_shift = build_hankel(seq)
        assert h.dtype == h_shift.dtype == np.float64
        real = era_realize(h, h_shift, None, 1, 1)
        for arr in (real.a_r, real.b_r, real.c_r, real.d_r):
            assert arr.dtype == np.float64
        assert np.allclose(np.sort_complex(eig_dense(real.a_r).values),
                           np.sort_complex(np.linalg.eigvals(a)), atol=1e-10)

    def test_complex_markov_blocks_stay_complex(self):
        blocks = [0.8j ** k for k in range(9)]
        h, h_shift = build_hankel(markov_from_blocks(blocks))
        assert h.dtype == np.complex128
        real = era_realize(h, h_shift, None, 1, 1)
        assert real.a_r.dtype == np.complex128
        assert np.allclose(eig_dense(real.a_r).values, [0.8j], atol=1e-10)

    def test_mixed_real_and_complex_pairs_decompose_in_complex(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((4, 6))
        y = (0.5 + 0.5j) * x
        dec = exact_dmd(pairs_from_arrays(x, y))
        assert np.allclose(dec.eigenvalues, 0.5 + 0.5j, atol=1e-12)
