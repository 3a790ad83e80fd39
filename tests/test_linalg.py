"""Tests for the dense linear algebra layer."""

import numpy as np
import pytest

from dmdkit import (
    EigenPairs,
    RankZeroError,
    ReducedSvd,
    eig_dense,
    reduced_svd,
)
from dmdkit import linalg
from dmdkit.errors import DimensionError, EigensolverError
from dmdkit.linalg import _norm


def _cofactor_det(m):
    """Determinant by cofactor expansion, independent of LAPACK."""
    m = np.asarray(m)
    if m.shape[0] == 1:
        return m[0, 0]
    total = 0.0 + 0.0j
    for j in range(m.shape[0]):
        minor = np.delete(np.delete(m, 0, axis=0), j, axis=1)
        total += (-1) ** j * m[0, j] * _cofactor_det(minor)
    return total


class TestReducedSvd:
    def test_factors_are_orthonormal_and_reconstruct(self):
        for seed in range(12):
            rng = np.random.default_rng(seed)
            n = rng.integers(2, 9)
            m = rng.integers(2, 9)
            x = rng.standard_normal((n, m))
            svd = reduced_svd(x)
            r = svd.rank
            assert svd.u.shape == (n, r)
            assert svd.v.shape == (m, r)
            eye_r = np.eye(r)
            assert np.linalg.norm(svd.u.conj().T @ svd.u - eye_r) < 1e-12
            assert np.linalg.norm(svd.v.conj().T @ svd.v - eye_r) < 1e-12
            recon = (svd.u * svd.sigma) @ svd.v.conj().T
            assert np.linalg.norm(recon - x) < 1e-12 * np.linalg.norm(x)
            assert np.all(np.diff(svd.sigma) <= 0)
            assert np.all(svd.sigma > 0)

    def test_rank_one_outer_product(self):
        x = np.outer([1.0, 2.0], [1.0, 1.0, 1.0])
        svd = reduced_svd(x)
        assert svd.rank == 1
        assert abs(svd.sigma[0] - 3.872983346207417) < 1e-14  # sqrt(15)
        direction = svd.u[:, 0] * np.sqrt(5.0)
        assert np.allclose(np.abs(direction), [1.0, 2.0], atol=1e-12)

    def test_default_threshold_drops_tiny_singular_values(self):
        x = np.diag([1.0, 1e-20])
        svd = reduced_svd(x)
        assert svd.rank == 1

    def test_rtol_and_atol_replace_default(self):
        x = np.diag([1.0, 1e-6])
        assert reduced_svd(x).rank == 2
        assert reduced_svd(x, rtol=1e-5).rank == 1
        assert reduced_svd(x, atol=1e-5).rank == 1
        # the larger of the two thresholds wins
        assert reduced_svd(x, rtol=1e-5, atol=1e-12).rank == 1
        assert reduced_svd(x, rtol=1e-12, atol=1e-8).rank == 2

    def test_zero_matrix_raises(self):
        with pytest.raises(RankZeroError):
            reduced_svd(np.zeros((3, 4)))

    def test_rejects_one_dimensional_input(self):
        with pytest.raises(DimensionError):
            reduced_svd(np.ones(3))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            reduced_svd(np.array([[np.nan, 1.0]]))

    def test_result_type(self):
        svd = reduced_svd(np.eye(3))
        assert isinstance(svd, ReducedSvd)
        assert svd.truncation_tol > 0


class TestEigDense:
    def test_eigenvalues_kill_the_characteristic_polynomial(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            r = int(rng.integers(2, 7))
            m = rng.standard_normal((r, r))
            pairs = eig_dense(m)
            scale = np.linalg.norm(m) + 1.0
            for lam in pairs.values:
                val = abs(_cofactor_det(m - lam * np.eye(r)))
                assert val < 1e-12 * scale**r

    def test_right_residuals(self):
        for seed in range(10):
            rng = np.random.default_rng(50 + seed)
            m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
            pairs = eig_dense(m)
            norm = np.linalg.norm(m)
            for lam, w in zip(pairs.values, pairs.vectors.T):
                assert np.linalg.norm(m @ w - lam * w) < 1e-9 * norm

    def test_left_vectors_satisfy_row_equation(self):
        rng = np.random.default_rng(7)
        m = rng.standard_normal((5, 5))
        pairs = eig_dense(m)
        assert isinstance(pairs, EigenPairs)
        norm = np.linalg.norm(m)
        for lam, z in zip(pairs.values, pairs.left_vectors.T):
            row = z.conj().T @ m
            assert np.linalg.norm(row - lam * z.conj().T) < 1e-9 * norm

    def test_tight_tolerance_rejects(self, monkeypatch):
        # Roundoff residuals of an 8x8 matrix stand far above 1e-18 norm(m).
        monkeypatch.setattr(linalg, "_EIG_TOL", 1e-18)
        rng = np.random.default_rng(3)
        m = rng.standard_normal((8, 8))
        with pytest.raises(EigensolverError, match="right eigenpair residual"):
            eig_dense(m)

    @pytest.mark.parametrize("value", [1.0 / 3e300, 1e-200, 7e262, 3e300])
    def test_tiny_matrix_pairs_are_checked_relative_to_its_norm(self, value):
        # Some LAPACK builds return 6.7e-139 as the eigenvalue of [[3.3e-301]]:
        # geev's own rescale outside [6.7e-139, 1.5e138] loses its factor.
        pairs = eig_dense(np.array([[value]]))
        assert abs(pairs.values[0] - value) <= 1e-12 * value

    @pytest.mark.parametrize("scale", [1e-300, 1e-150, 1e150, 1e300])
    def test_matrix_outside_the_lapack_window_keeps_its_spectrum(self, scale):
        rng = np.random.default_rng(11)
        m = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        want = np.sort_complex(eig_dense(m).values)
        got = eig_dense(m * scale)
        assert np.abs(np.sort_complex(got.values) / scale - want).max() <= (
            1e-12 * np.abs(want).max()
        )
        # Eigenvectors do not depend on the scale of the matrix.
        for lam, w, z in zip(got.values / scale, got.vectors.T, got.left_vectors.T):
            assert np.linalg.norm(m @ w - lam * w) < 1e-9 * np.linalg.norm(m)
            assert np.linalg.norm(z.conj() @ m - lam * z.conj()) < 1e-9 * np.linalg.norm(m)


class TestNorm:
    @pytest.mark.parametrize("scale", [1e-320, 1e-300, 1e-170, 1e155, 1e300])
    def test_frobenius_norm_at_any_scale(self, scale):
        # The squares of every entry here leave the float64 range; the
        # largest entry of the 1e-320 case is itself subnormal.
        a = np.array([[3.0, 0.0], [0.0, -4.0]]) * scale
        assert _norm(a) == pytest.approx(np.hypot(a[0, 0], a[1, 1]), rel=1e-15)

    def test_equals_the_plain_norm_at_ordinary_scales(self):
        a = np.random.default_rng(0).standard_normal((7, 5)) + 1j
        assert _norm(a) == np.linalg.norm(a)
        assert _norm(np.zeros((2, 3))) == 0.0
