"""Tests for the statistical propagator view of the snapshot operator."""

import warnings

import numpy as np
import pytest

from dmdkit import (
    eig_dense,
    exact_dmd,
    lim_dmd_equivalence,
    lim_model,
    pairs_from_arrays,
    pairs_from_sequence,
    reduced_operator,
    subtract_mean,
)


def _centered_pairs(seed, n=4, m=20):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, m))
    x -= x.mean(axis=1, keepdims=True)
    mat = rng.standard_normal((n, n))
    y = mat @ x
    return pairs_from_arrays(x, y, dt=1.0), mat


class TestCenteringGuard:
    def test_uncentered_snapshots_refused(self):
        rng = np.random.default_rng(0)
        z = np.abs(rng.standard_normal((3, 15))) + 1.0
        pairs = pairs_from_sequence(z)
        with pytest.raises(ValueError, match="subtract_mean"):
            lim_model(pairs)

    def test_force_bypasses_the_guard(self):
        rng = np.random.default_rng(1)
        z = np.abs(rng.standard_normal((3, 15))) + 1.0
        pairs = pairs_from_sequence(z)
        model = lim_model(pairs, force=True)
        assert model.green.shape[0] == model.green.shape[1]

    def test_centered_data_accepted(self):
        pairs, _ = _centered_pairs(2)
        model = lim_model(pairs)
        assert model.eofs.shape[0] == 4

    @pytest.mark.parametrize("scale", [1e-170, 1e155])
    def test_uncentered_snapshots_refused_at_any_scale(self, scale):
        z = np.abs(np.random.default_rng(0).standard_normal((3, 15))) + 1.0
        with pytest.raises(ValueError, match="subtract_mean"):
            lim_model(pairs_from_sequence(z * scale))

    def test_guard_reads_the_mean_of_data_whose_sum_overflows(self):
        z = np.array([[1e308, 0.9e308, 1.1e308, 1.0e308]])
        with np.errstate(over="raise"):
            with pytest.raises(ValueError, match="subtract_mean"):
                lim_model(pairs_from_sequence(z))
            lim_model(subtract_mean(pairs_from_sequence(z))[0])

    def test_guard_reads_data_whose_norm_overflows(self):
        z = np.array([[1e308, 1.2e308, 1.1e308, 1.3e308]])  # norm(x) is beyond float64
        with np.errstate(over="raise"):
            with pytest.raises(ValueError, match="subtract_mean"):
                lim_model(pairs_from_sequence(z))

    def test_subtract_mean_output_passes(self):
        rng = np.random.default_rng(3)
        pairs = pairs_from_sequence(rng.standard_normal((3, 18)) + 7.0)
        centered, _ = subtract_mean(pairs)
        lim_model(centered)


class TestModelStructure:
    def test_covariance_eigenvalues_from_singular_values(self):
        pairs, _ = _centered_pairs(4)
        model = lim_model(pairs)
        op = reduced_operator(pairs)
        want = op.svd_of_x.sigma**2 / pairs.n_pairs
        assert np.allclose(np.diag(model.lambda_cov), want, atol=1e-14)
        off = model.lambda_cov - np.diag(np.diag(model.lambda_cov))
        assert np.abs(off).max() == 0.0

    def test_huge_data_fits_without_a_warning(self):
        # sigma**2 overflows at 1e155; nothing the fit returns needs it.
        pairs, _ = _centered_pairs(7)
        scaled = pairs_from_arrays(pairs.x * 1e155, pairs.y * 1e155)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = lim_model(scaled)
        assert np.abs(model.green - lim_model(pairs).green).max() < 1e-12 * np.abs(model.green).max()

    def test_eof_coefficients_reproduce_snapshots(self):
        pairs, _ = _centered_pairs(5)
        model = lim_model(pairs)
        assert np.linalg.norm(model.eofs @ model.x_hat - pairs.x) < 1e-10
        assert np.linalg.norm(model.eofs @ model.y_hat - pairs.y) < 1e-10

    def test_lag_comes_from_pair_spacing(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((3, 12))
        x -= x.mean(axis=1, keepdims=True)
        pairs = pairs_from_arrays(x, np.roll(x, -1, axis=1), dt=0.3)
        model = lim_model(pairs, force=True)
        assert model.tau == 0.3

    def test_full_rank_propagator_recovers_generator(self):
        for seed in range(8):
            pairs, mat = _centered_pairs(30 + seed)
            model = lim_model(pairs)
            u = model.eofs
            lifted = u @ model.green @ u.conj().T
            assert np.linalg.norm(lifted - mat) < 1e-9 * np.linalg.norm(mat)


class TestEquivalence:
    def test_propagator_equals_reduced_operator_entrywise(self):
        for seed in range(10):
            pairs, _ = _centered_pairs(50 + seed)
            rep = lim_dmd_equivalence(pairs)
            assert rep.equivalent
            assert rep.max_abs_diff <= rep.tol
            op = reduced_operator(pairs)
            assert np.abs(rep.green - op.a_tilde).max() < 1e-12 * np.linalg.norm(op.a_tilde)

    @pytest.mark.parametrize("scale", [1e-170, 1e-300, 1e150])
    def test_propagator_does_not_depend_on_data_scale(self, scale):
        # sigma**2 underflows at 1e-170, which turned the propagator into nan.
        pairs, _ = _centered_pairs(60)
        want = lim_model(pairs).green
        scaled = pairs_from_arrays(pairs.x * scale, pairs.y * scale)
        rep = lim_dmd_equivalence(scaled)
        assert rep.equivalent
        assert np.abs(rep.green - want).max() < 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("scale", [1e-170, 1e-200])
    def test_equivalent_at_any_operator_scale(self, scale):
        # The Frobenius norm of a tilde underflowed, so the bound read 0.0.
        pairs, _ = _centered_pairs(61, n=5, m=30)
        scaled = pairs_from_arrays(pairs.x, pairs.y * scale)
        rep = lim_dmd_equivalence(scaled)
        assert rep.equivalent
        want = 1e-10 * scale * np.linalg.norm(reduced_operator(pairs).a_tilde)
        assert rep.tol == pytest.approx(want)

    def test_propagator_spectrum_matches_decomposition(self):
        pairs, _ = _centered_pairs(8)
        model = lim_model(pairs)
        lam_g = np.sort_complex(eig_dense(model.green).values)
        lam_d = np.sort_complex(exact_dmd(pairs).eigenvalues)
        assert np.allclose(lam_g, lam_d, atol=1e-10)
