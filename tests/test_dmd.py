"""Tests for the four decomposition algorithms and their shared contracts."""

import dataclasses

import numpy as np
import pytest

from dmdkit import (
    exact_dmd,
    exact_dmd_qr,
    exact_dmd_sequential,
    gen_standing_wave,
    gen_two_timescale,
    linear_consistency,
    match_eigenvalues,
    pairs_from_arrays,
    pairs_from_sequence,
    pairs_from_strided,
    pairs_from_trajectories,
    projected_dmd,
    propagate,
    reconstruct,
    reduced_operator,
    spectrum,
    subtract_mean,
)
from dmdkit import dmd as dmd_module
from dmdkit import pairs as pairs_module
from dmdkit.errors import DimensionError
from dmdkit.pairs import _series


def _explicit_operator(pairs):
    return pairs.y @ np.linalg.pinv(pairs.x)


def _sorted_eigs(values):
    order = np.lexsort((np.round(values.imag, 9), np.round(values.real, 9)))
    return values[order]


def _same_bytes(a, b) -> bool:
    """Whether two results agree field by field, arrays bit for bit."""
    if dataclasses.is_dataclass(a):
        return all(_same_bytes(getattr(a, f.name), getattr(b, f.name))
                   for f in dataclasses.fields(a))
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    return type(a) is type(b) and a == b


def _random_pairs(rng, n=None, m=None):
    n = int(rng.integers(3, 9)) if n is None else n
    m = int(rng.integers(2, 11)) if m is None else m
    x = rng.standard_normal((n, m))
    y = rng.standard_normal((n, m))
    return pairs_from_arrays(x, y)


class TestExactDmd:
    def test_modes_are_eigenvectors_of_explicit_operator(self):
        for seed in range(30):
            rng = np.random.default_rng(seed)
            pairs = _random_pairs(rng)
            dec = exact_dmd(pairs)
            a = _explicit_operator(pairs)
            scale = np.linalg.norm(a)
            for lam, phi in zip(dec.eigenvalues, dec.exact_modes.T):
                assert np.linalg.norm(a @ phi - lam * phi) < 1e-10 * scale

    def test_eigenvalues_appear_in_explicit_spectrum(self):
        for seed in range(30):
            rng = np.random.default_rng(1000 + seed)
            pairs = _random_pairs(rng)
            dec = exact_dmd(pairs)
            eigs_a = np.linalg.eigvals(_explicit_operator(pairs))
            scale = max(1.0, np.abs(eigs_a).max())
            for lam in dec.eigenvalues:
                assert np.min(np.abs(eigs_a - lam)) < 1e-9 * scale

    def test_short_wide_snapshot_matrix(self):
        rng = np.random.default_rng(42)
        pairs = _random_pairs(rng, n=3, m=12)
        dec = exact_dmd(pairs)
        assert dec.n_modes == 3
        a = _explicit_operator(pairs)
        res = a @ dec.exact_modes - dec.exact_modes * dec.eigenvalues
        assert np.linalg.norm(res) < 1e-9 * np.linalg.norm(a)

    def test_reduced_vectors_and_projected_modes_have_unit_norm(self):
        rng = np.random.default_rng(3)
        dec = exact_dmd(_random_pairs(rng, n=6, m=5))
        assert np.allclose(np.linalg.norm(dec.reduced_vectors, axis=0), 1.0, atol=1e-12)
        assert np.allclose(np.linalg.norm(dec.projected_modes, axis=0), 1.0, atol=1e-12)
        assert dec.scaling == "unit-norm"
        # exact modes carry their natural lifted length instead
        assert not np.allclose(np.linalg.norm(dec.exact_modes, axis=0), 1.0, atol=1e-6)

    def test_projected_modes_are_orthogonal_projection_of_exact(self):
        for seed in range(15):
            rng = np.random.default_rng(2000 + seed)
            pairs = _random_pairs(rng)
            dec = exact_dmd(pairs)
            u = dec.svd_of_x.u
            proj = u @ (u.conj().T @ dec.exact_modes)
            diff = np.linalg.norm(dec.projected_modes - proj, axis=0)
            assert np.all(diff < 1e-10)

    def test_reduced_vectors_are_basis_coefficients_of_exact_modes(self):
        for seed in range(15):
            rng = np.random.default_rng(3000 + seed)
            pairs = _random_pairs(rng)
            dec = exact_dmd(pairs)
            u = dec.svd_of_x.u
            coeff = u.conj().T @ dec.exact_modes
            assert np.linalg.norm(coeff - dec.reduced_vectors) < 1e-10

    def test_conjugate_pairs_are_adjacent_negative_imag_first(self):
        # distinct decay rates keep the two pairs apart in the ordering keys
        z = gen_two_timescale(1.1, 0.2, 60, 9, n=6, decay_fast=-0.4, decay_slow=-0.05)
        dec = exact_dmd(pairs_from_sequence(z))
        assert dec.n_modes == 4
        lam = dec.eigenvalues
        assert abs(lam[0] - np.conj(lam[1])) < 1e-12
        assert abs(lam[2] - np.conj(lam[3])) < 1e-12
        assert lam[0].imag < 0 < lam[1].imag
        assert lam[2].imag < 0 < lam[3].imag


class TestProjectedDmd:
    def test_primary_modes_live_in_x_range(self):
        for seed in range(10):
            rng = np.random.default_rng(4000 + seed)
            pairs = _random_pairs(rng, n=8, m=4)
            dec = projected_dmd(pairs)
            assert dec.algorithm == "projected"
            u = dec.svd_of_x.u
            phi = dec.modes
            assert np.linalg.norm(phi - u @ (u.conj().T @ phi)) < 1e-10

    def test_eigenvalues_match_exact_algorithm(self):
        rng = np.random.default_rng(8)
        pairs = _random_pairs(rng, n=7, m=5)
        a = _sorted_eigs(exact_dmd(pairs).eigenvalues)
        b = _sorted_eigs(projected_dmd(pairs).eigenvalues)
        assert np.allclose(a, b, atol=1e-12)

    def test_modes_property_selects_projected_family(self):
        rng = np.random.default_rng(9)
        pairs = _random_pairs(rng, n=6, m=4)
        dec = projected_dmd(pairs)
        assert np.array_equal(dec.modes, dec.projected_modes)


class TestQrAlgorithm:
    def test_agrees_with_exact_dmd_on_sequences(self):
        # sequences with more pairs than states keep both bases at the same rank
        for seed in range(10):
            rng = np.random.default_rng(5000 + seed)
            z = rng.standard_normal((5, 11))
            pairs = pairs_from_sequence(z)
            d1 = exact_dmd(pairs)
            d2 = exact_dmd_qr(pairs)
            e1 = _sorted_eigs(d1.eigenvalues)
            e2 = _sorted_eigs(d2.eigenvalues)
            assert e1.shape == e2.shape
            assert np.allclose(e1, e2, atol=1e-10)

    def test_tall_data_adds_only_numerical_zeros(self):
        # with n > m the joint basis outranks X, so the surplus directions
        # show up as eigenvalues at numerical zero and nothing else moves
        rng = np.random.default_rng(5100)
        pairs = _random_pairs(rng, n=7, m=4)
        d1 = exact_dmd(pairs)
        d2 = exact_dmd_qr(pairs)
        scale = max(np.abs(d1.eigenvalues).max(), 1.0)
        keep1 = _sorted_eigs(d1.eigenvalues[np.abs(d1.eigenvalues) > 1e-9 * scale])
        keep2 = _sorted_eigs(d2.eigenvalues[np.abs(d2.eigenvalues) > 1e-9 * scale])
        assert keep1.shape == keep2.shape
        assert np.allclose(keep1, keep2, atol=1e-10)

    def test_modes_collinear_with_exact_dmd(self):
        rng = np.random.default_rng(17)
        z = rng.standard_normal((6, 13))
        pairs = pairs_from_sequence(z)
        d1 = exact_dmd(pairs)
        d2 = exact_dmd_qr(pairs)
        perm = match_eigenvalues(d1.eigenvalues, d2.eigenvalues)
        for i, j in enumerate(perm):
            u = d1.exact_modes[:, i]
            v = d2.exact_modes[:, j]
            inner = abs(np.vdot(u, v)) / (np.linalg.norm(u) * np.linalg.norm(v))
            assert inner > 1.0 - 1e-9

    def test_mode_residual_against_explicit_operator(self):
        for seed in range(10):
            rng = np.random.default_rng(6000 + seed)
            pairs = _random_pairs(rng)
            dec = exact_dmd_qr(pairs)
            a = _explicit_operator(pairs)
            res = a @ dec.exact_modes - dec.exact_modes * dec.eigenvalues
            assert np.linalg.norm(res) < 1e-9 * np.linalg.norm(a)

    def test_null_space_modes_of_inconsistent_pair(self):
        pairs = pairs_from_arrays(np.array([[1.0], [0.0]]), np.array([[0.0], [1.0]]))
        dec = exact_dmd_qr(pairs, include_zero_modes=True)
        assert dec.n_modes == 2
        assert np.all(np.abs(dec.eigenvalues) < 1e-12)
        a = np.array([[0.0, 0.0], [1.0, 0.0]])
        assert np.abs(a @ dec.exact_modes).max() < 1e-12


class TestSequentialAlgorithm:
    def test_matches_exact_dmd_on_generic_sequence(self):
        for seed in range(10):
            rng = np.random.default_rng(7000 + seed)
            z = rng.standard_normal((5, 9))
            d1 = exact_dmd(pairs_from_sequence(z))
            d2 = exact_dmd_sequential(z)
            e1 = _sorted_eigs(d1.eigenvalues)
            e2 = _sorted_eigs(d2.eigenvalues)
            assert np.allclose(e1, e2, atol=1e-10)
            assert d2.algorithm == "sequential"

    def test_last_snapshot_in_span_collapses_to_projected(self):
        rng = np.random.default_rng(21)
        z = rng.standard_normal((4, 7))
        z[:, -1] = z[:, :-1] @ rng.standard_normal(6)
        dec = exact_dmd_sequential(z)
        assert np.array_equal(dec.exact_modes, dec.projected_modes)

    def test_correction_lies_in_operator_null_space(self):
        rng = np.random.default_rng(22)
        z = rng.standard_normal((6, 5))
        dec = exact_dmd_sequential(z)
        pairs = pairs_from_sequence(z)
        a = _explicit_operator(pairs)
        corr = dec.exact_modes - dec.projected_modes
        assert np.linalg.norm(corr) > 1e-8        # genuinely out of span here
        assert np.linalg.norm(a @ corr) < 1e-10 * np.linalg.norm(a)

    def test_last_snapshot_cut_follows_the_rank_tolerance(self):
        # 1e-6 of the last snapshot lies outside range(x): a direction at
        # the default rank rule, below the cut at rtol=1e-4.
        rng = np.random.default_rng(24)
        z = rng.standard_normal((6, 5))
        q, _ = np.linalg.qr(z[:, :-1])
        out = rng.standard_normal(6)
        out -= q @ (q.T @ out)
        z[:, -1] = z[:, :-1] @ rng.standard_normal(4) + 1e-6 * out / np.linalg.norm(out)
        dec = exact_dmd_sequential(z)
        assert not np.allclose(dec.exact_modes, dec.projected_modes, rtol=0, atol=1e-9)
        cut = exact_dmd_sequential(z, rtol=1e-4)
        assert cut.svd_of_x.rank == 4
        assert np.array_equal(cut.exact_modes, cut.projected_modes)

    @pytest.mark.parametrize("scale", [1e155, 1e-170])
    def test_exact_modes_at_extreme_data_scales(self, scale):
        # The last snapshot sticks out of range(x), so the Gram-Schmidt
        # direction must survive the scale to give eigenvectors of A.
        z = np.random.default_rng(0).standard_normal((6, 4))
        a = _explicit_operator(pairs_from_sequence(z))
        dec = exact_dmd_sequential(z * scale)
        assert dec.n_modes == 3
        for lam, phi in zip(dec.eigenvalues, dec.exact_modes.T):
            assert np.linalg.norm(a @ phi - lam * phi) <= 1e-12 * np.linalg.norm(phi)

    @staticmethod
    def _one_series_pairs(build, z):
        if build == "sequence":
            return pairs_from_sequence(z)
        if build == "multi-run":
            return pairs_from_trajectories([z])
        if build == "centred":
            return subtract_mean(pairs_from_sequence(z), "pooled-mean")[0]
        # y[:, :-1] differs from x[:, 1:] only in the sign of its zeros.
        z[1, 1] = z[4, 1] = z[7, 1] = 0.0
        y = z[:, 1:].copy()
        y[:, :-1][y[:, :-1] == 0] = -0.0
        return pairs_from_arrays(z[:, :-1], y)

    @pytest.mark.parametrize("build", ["sequence", "multi-run", "centred", "paired, signed zeros"])
    @pytest.mark.parametrize("in_span", [False, True])
    def test_pairs_entry_equals_the_series_entry_bit_for_bit(self, build, in_span):
        z = np.random.default_rng(25).standard_normal((10, 7))
        if in_span:  # the last snapshot lies in range(x): no complement vector
            z[:, -1] = z[:, 2:-1] @ np.arange(1.0, 5.0)
        pairs = self._one_series_pairs(build, z)
        for kwargs in ({}, {"rtol": 1e-3, "include_zero_modes": True}):
            got = dmd_module._decompose("sequential", pairs, **kwargs)
            want = exact_dmd_sequential(_series(pairs), **kwargs)
            assert _same_bytes(got, want)

    def test_column_major_pairs_agree_with_the_series_entry_to_roundoff(self):
        # Strided pairs hold column-major copies, which BLAS multiplies
        # with another rounding than the row-major series it rebuilds.
        z = np.random.default_rng(25).standard_normal((10, 7))
        got = dmd_module._decompose("sequential", pairs_from_strided(z, 1))
        want = exact_dmd_sequential(z)
        assert np.allclose(got.eigenvalues, want.eigenvalues, rtol=0, atol=1e-14)
        assert np.allclose(got.exact_modes, want.exact_modes, rtol=0, atol=1e-13)

    def test_exact_modes_match_plain_exact_dmd(self):
        rng = np.random.default_rng(23)
        z = rng.standard_normal((6, 5))
        d1 = exact_dmd(pairs_from_sequence(z))
        d2 = exact_dmd_sequential(z)
        o1 = np.lexsort((d1.eigenvalues.imag, d1.eigenvalues.real))
        o2 = np.lexsort((d2.eigenvalues.imag, d2.eigenvalues.real))
        for i, j in zip(o1, o2):
            inner = abs(np.vdot(d1.exact_modes[:, i], d2.exact_modes[:, j]))
            assert inner > 1.0 - 1e-9


class TestZeroModes:
    def test_zero_eigenvalues_dropped_by_default(self):
        pairs = pairs_from_arrays(np.array([[1.0], [0.0]]), np.array([[0.0], [1.0]]))
        dec = exact_dmd(pairs)
        assert dec.n_modes == 0
        assert dec.modes.shape == (2, 0)

    def test_genuine_null_vector_from_image_construction(self):
        # y has a component outside range(x), so the candidate built from
        # the image stays nonzero and is a true null vector of y pinv(x).
        pairs = pairs_from_arrays(np.array([[1.0], [0.0]]), np.array([[0.0], [1.0]]))
        dec = exact_dmd(pairs, include_zero_modes=True)
        assert dec.n_modes == 1
        assert abs(dec.eigenvalues[0]) < 1e-14
        assert np.allclose(np.abs(dec.exact_modes[:, 0]), [0.0, 1.0], atol=1e-12)

    def test_degenerate_image_falls_back_to_basis_vector(self):
        # standing wave at a quarter turn: consecutive snapshots are
        # orthogonal, the reduced operator is pure roundoff, and the
        # image-based candidate collapses; the mode comes from the basis.
        q = np.array([1.0, 2.0, -0.5])
        z = gen_standing_wave(np.pi / 2, q, 12)
        pairs = pairs_from_sequence(z)
        assert exact_dmd(pairs, zero_tol=1e-12).n_modes == 0
        dec = exact_dmd(pairs, zero_tol=1e-12, include_zero_modes=True)
        assert dec.n_modes == 1
        mode = dec.exact_modes[:, 0]
        overlap = abs(np.vdot(mode, q / np.linalg.norm(q)))
        assert overlap > 1.0 - 1e-12

    @pytest.mark.parametrize("route", [exact_dmd, projected_dmd])
    @pytest.mark.parametrize("scale", [1.0, 1e-170, 1e155])
    def test_null_space_modes_at_any_data_scale(self, route, scale):
        # x = [e1 e2], y = [e2 e3]: A maps e1 -> e2 -> e3 -> 0, so both
        # eigenvalues are zero and both exact modes must satisfy A phi = 0.
        eye = np.eye(3)
        pairs = pairs_from_arrays(eye[:, :2] * scale, eye[:, 1:] * scale)
        dec = route(pairs, include_zero_modes=True)
        a = np.eye(3, k=-1)
        assert dec.n_modes == 2
        for phi in dec.exact_modes.T:
            assert np.linalg.norm(a @ phi) <= 1e-12 * np.linalg.norm(phi)

    @pytest.mark.parametrize("route", [exact_dmd, projected_dmd])
    @pytest.mark.parametrize("include, built", [(False, 0), (True, 3)])
    def test_null_space_modes_built_only_when_kept(self, monkeypatch, route, include, built):
        # y = x m with rank(m) = 5 leaves three zero eigenvalues out of 8.
        rng = np.random.default_rng(12)
        x = rng.standard_normal((300, 8))
        m = rng.standard_normal((8, 5)) @ rng.standard_normal((5, 8))
        calls = []
        real_zero_mode = dmd_module._exact_zero_mode
        monkeypatch.setattr(dmd_module, "_exact_zero_mode",
                            lambda *args: calls.append(1) or real_zero_mode(*args))
        dec = route(pairs_from_arrays(x, x @ m), include_zero_modes=include)
        assert dec.n_modes == 5 + built
        assert len(calls) == built


class TestConsistency:
    def test_consistent_data_passes(self):
        for seed in range(10):
            rng = np.random.default_rng(8000 + seed)
            x = rng.standard_normal((5, 8))
            m = rng.standard_normal((5, 5))
            pairs = pairs_from_arrays(x, m @ x)
            rep = linear_consistency(pairs)
            assert rep.consistent
            assert rep.defect < 1e-12
            assert rep.residual < 1e-12

    def test_orthogonal_shift_is_maximally_inconsistent(self):
        z = gen_standing_wave(np.pi / 2, np.array([1.0, 2.0, -0.5]), 12)
        rep = linear_consistency(pairs_from_sequence(z))
        assert not rep.consistent
        assert abs(rep.defect - 1.0) < 1e-12

    def test_defect_equals_least_squares_residual(self):
        for seed in range(10):
            rng = np.random.default_rng(9000 + seed)
            pairs = _random_pairs(rng, n=4, m=9)
            rep = linear_consistency(pairs)
            assert abs(rep.defect - rep.residual) < 1e-10

    def test_rank_reported(self):
        pairs = pairs_from_arrays(np.eye(3), np.eye(3))
        assert linear_consistency(pairs).rank == 3

    @pytest.mark.parametrize("scale", [1e-170, 1e155])
    def test_verdict_survives_tiny_and_huge_data(self, scale):
        # Squaring 1e-170 underflows and squaring 1e155 overflows; a
        # plain Frobenius norm read these as consistent and as nan.
        z = np.random.default_rng(0).standard_normal((6, 12))
        want = linear_consistency(pairs_from_sequence(z))
        rep = linear_consistency(pairs_from_sequence(z * scale))
        assert not want.consistent and not rep.consistent
        assert abs(rep.defect - want.defect) < 1e-12
        assert abs(rep.residual - want.residual) < 1e-12

    def test_all_zero_images_are_consistent(self):
        rep = linear_consistency(pairs_from_arrays(np.eye(3), np.zeros((3, 3))))
        assert rep.consistent and rep.defect == 0.0 and rep.residual == 0.0


def test_subnormal_eigenvalue_beside_a_unit_one_keeps_finite_modes():
    # w / lambda overflows for lambda = 1e-310 unless b takes a power
    # of two that brings lambda, not b, into the normal range.
    pairs = pairs_from_arrays(np.eye(2), np.diag([1.0, 1e-310]))
    dec = exact_dmd(pairs, zero_tol=0.0)
    assert np.array_equal(dec.eigenvalues, [1.0, 1e-310])
    assert np.allclose(dec.exact_modes, np.eye(2), rtol=0, atol=1e-15)
    assert np.array_equal(dec.mode_norms, [1.0, 1.0])


class TestModeExpansion:
    def test_reconstruct_then_propagate_reproduces_trajectory(self):
        rng = np.random.default_rng(31)
        mat = rng.standard_normal((4, 4))
        mat *= 0.9 / max(abs(np.linalg.eigvals(mat)))
        z = np.empty((4, 10))
        z[:, 0] = rng.standard_normal(4)
        for k in range(9):
            z[:, k + 1] = mat @ z[:, k]
        dec = exact_dmd(pairs_from_sequence(z))
        rec = reconstruct(dec, z[:, 0])
        assert rec.residual < 1e-8 * np.linalg.norm(z[:, 0])
        for k in range(10):
            step = propagate(dec, rec.coefficients, k)
            assert np.linalg.norm(step - z[:, k]) < 1e-7 * np.linalg.norm(z)

    def test_reconstruct_reports_out_of_span_residual(self):
        pairs = pairs_from_arrays(np.array([[1.0], [0.0]]), np.array([[2.0], [0.0]]))
        dec = exact_dmd(pairs)
        rec = reconstruct(dec, np.array([0.0, 3.0]))
        assert abs(rec.residual - 3.0) < 1e-12

    def test_propagate_coefficient_count_checked(self):
        rng = np.random.default_rng(33)
        dec = exact_dmd(_random_pairs(rng, n=4, m=4))
        with pytest.raises(DimensionError):
            propagate(dec, np.ones(dec.n_modes + 1), 2)


class TestSpectrum:
    def test_rotation_frequencies_and_growth(self):
        theta = np.pi / 4
        z = np.vstack([np.cos(theta * np.arange(9)), np.sin(theta * np.arange(9))])
        dec = exact_dmd(pairs_from_sequence(z))
        pts = spectrum(dec, dt=0.5)
        freqs = sorted(p.frequency for p in pts)
        assert abs(freqs[0] + 0.25) < 1e-12
        assert abs(freqs[1] - 0.25) < 1e-12
        for p in pts:
            assert abs(p.growth_continuous) < 1e-12
            assert abs(p.growth_discrete - 1.0) < 1e-12

    def test_mode_norms_of_a_lone_conjugate_pair_are_the_modes_norms(self):
        """numpy sums a lone column pairwise but each column of a wider
        array row by row, so a family of one conjugate pair, lifted as one
        lead column, must still give the bits of its two-column modes, at
        any number of states."""
        theta = np.arange(30) * np.pi / 5
        basis, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((100, 2)))
        z = basis @ (0.99 ** np.arange(30) * np.vstack([np.cos(theta), np.sin(theta)]))
        dec = exact_dmd(pairs_from_sequence(z))
        assert dec.n_modes == 2 and dec.eigenvalues[0] == dec.eigenvalues[1].conj()
        got = np.array([p.mode_norm for p in spectrum(dec)])
        assert got.tobytes() == np.linalg.norm(dec.modes, axis=0).tobytes()

    def test_weighted_norm_uses_eigenvalue_power(self):
        z = gen_two_timescale(1.0, 0.2, 50, 4, decay_fast=-0.5, decay_slow=-0.1)
        dec = exact_dmd(pairs_from_sequence(z))
        pts = spectrum(dec, dt=0.1, m_weight=3)
        for p in pts:
            want = p.mode_norm * abs(p.eigenvalue) ** 3
            assert abs(p.weighted_norm - want) < 1e-12

    def test_zero_eigenvalue_conventions(self):
        pairs = pairs_from_arrays(np.array([[1.0], [0.0]]), np.array([[0.0], [1.0]]))
        dec = exact_dmd(pairs, include_zero_modes=True)
        pt = spectrum(dec, dt=1.0)[0]
        assert pt.frequency == 0.0
        assert pt.growth_continuous == float("-inf")
        assert spectrum(dec, m_weight=2)[0].weighted_norm == 0.0
        assert spectrum(dec, m_weight=-1)[0].weighted_norm == float("inf")
        tiny = spectrum(dec, dt=1e-320)[0]  # no rate of lambda = 0 overflows
        assert (tiny.frequency, tiny.growth_continuous) == (0.0, float("-inf"))

    @pytest.mark.parametrize("lam", [0.245, -0.245, 4.0, 1j])
    def test_a_rate_that_overflows_float64_is_refused(self, lam):
        # At dt = 1e-320, log|lambda| / dt or arg(lambda) / (2 pi dt) leaves
        # the float64 range; it used to come back as an infinite rate.
        dec = exact_dmd(pairs_from_sequence(lam ** np.arange(4.0)))
        with pytest.raises(FloatingPointError, match="overflow"):
            spectrum(dec, dt=1e-320)
        pt = spectrum(dec, dt=1e-300)[0]
        assert np.isfinite(pt.frequency) and np.isfinite(pt.growth_continuous)

    def test_points_follow_decomposition_order(self):
        rng = np.random.default_rng(35)
        dec = exact_dmd(_random_pairs(rng, n=5, m=5))
        pts = spectrum(dec)
        for lam, p in zip(dec.eigenvalues, pts):
            assert p.eigenvalue == lam


class TestAdjoints:
    def test_adjoint_modes_biorthogonal_to_modes(self):
        for seed in range(8):
            rng = np.random.default_rng(10_000 + seed)
            pairs = _random_pairs(rng, n=6, m=6)
            dec = exact_dmd(pairs)
            gram = dec.adjoint_modes.conj().T @ dec.exact_modes
            off = gram - np.diag(np.diag(gram))
            assert np.abs(off).max() < 1e-8

    def test_adjoints_live_in_x_range(self):
        rng = np.random.default_rng(36)
        pairs = _random_pairs(rng, n=8, m=4)
        dec = exact_dmd(pairs)
        u = dec.svd_of_x.u
        psi = dec.adjoint_modes
        assert np.linalg.norm(psi - u @ (u.conj().T @ psi)) < 1e-10


def test_defective_operator_sets_warning():
    pairs = pairs_from_arrays(np.eye(2), np.array([[1.0, 1.0], [0.0, 1.0]]))
    dec = exact_dmd(pairs)
    assert any("defective" in w for w in dec.warnings)


@pytest.mark.parametrize("compressed", [False, True], ids=["own coordinates", "compressed series"])
def test_reduced_operator_contract(compressed):
    # On a tall series the operator is held in the coordinates of the QR
    # of its snapshots; u and b read at state size all the same.
    rng = np.random.default_rng(38)
    x = rng.standard_normal((6, 4))
    m = rng.standard_normal((6, 6))
    if compressed:  # z_{k+1} = m z_k: 5 snapshots in 6 states
        z = np.column_stack([np.linalg.matrix_power(m, k) @ x[:, 0] for k in range(5)])
        pairs = pairs_from_sequence(z)
    else:
        pairs = pairs_from_arrays(x, m @ x)
    op = reduced_operator(pairs)
    assert (pairs._coordinates.q is not None) == compressed
    u = op.svd_of_x.u
    assert u.shape == op.b.shape == (6, 4)
    assert op.a_tilde.dtype == op.b.dtype == u.dtype == np.float64
    assert np.abs(u.T @ u - np.eye(4)).max() < 1e-12
    want = u.conj().T @ m @ u
    assert np.linalg.norm(op.a_tilde - want) < 1e-10
    assert np.linalg.norm(op.b - m @ u) < 1e-10


def test_linear_consistency_on_a_compressed_series_lifts_nothing(monkeypatch):
    calls = []
    lift = pairs_module._Frame.lift

    def counted(*args, **kwargs):  # whatever the signature of the lift
        calls.append(args)
        return lift(*args, **kwargs)

    monkeypatch.setattr(pairs_module._Frame, "lift", counted)
    pairs = pairs_from_sequence(np.random.default_rng(41).standard_normal((60, 9)))
    report = linear_consistency(pairs)
    assert pairs._coordinates.q is not None  # the compressed path ran
    assert report.rank == 8 and report.consistent
    assert calls == []


@pytest.mark.parametrize("route", [exact_dmd, projected_dmd, exact_dmd_qr, exact_dmd_sequential])
def test_a_decomposition_of_a_compressed_series_lifts_nothing_until_read(monkeypatch, route):
    # The bases stay in the pairs' coordinates; each read of a state-size
    # family or basis lifts it by one call of the frame's lift.
    calls = []
    lift = pairs_module._Frame.lift

    def counted(*args, **kwargs):
        calls.append(args)
        return lift(*args, **kwargs)

    monkeypatch.setattr(pairs_module._Frame, "lift", counted)
    z = np.random.default_rng(42).standard_normal((60, 9))
    pairs = pairs_from_sequence(z)
    dec = route(z) if route is exact_dmd_sequential else route(pairs)
    assert calls == []
    assert pairs_module._frame(pairs).q is not None and dec.n_modes == 8  # compressed
    assert dec.exact_modes.shape == dec.left_basis.shape[:1] + (8,) == (60, 8)
    assert len(calls) == 2


@pytest.mark.parametrize("delta, in_range", [(1e-14, True), (1e-10, False)])
def test_a_compressed_series_builds_zero_modes_at_the_shape_of_the_data(delta, in_range):
    # z = [2 e1, e2, e2 / 2 + delta e3] in 200 states: A has lambda = 0 on
    # w = (e1 - e2) / sqrt(2), whose image A w = -delta e3 / sqrt(2) lies
    # outside range(x). The image counts as vanished when it is at most
    # max(n, m) eps |y| |v w / sigma|, with n = 200 the data's own rows,
    # not the 3 of the QR coordinates: about 5.6e-14 against 8.3e-16 for delta.
    z = np.eye(200)[:, :3] @ np.array([[2.0, 0.0, 0.0], [0.0, 1.0, 0.5], [0.0, 0.0, delta]])
    pairs = pairs_from_sequence(z)
    dec = exact_dmd(pairs, include_zero_modes=True)
    assert pairs._coordinates.q is not None  # the compressed path ran
    assert np.allclose(dec.eigenvalues, [0.5, 0.0], rtol=0, atol=1e-12)
    mode = dec.exact_modes[:3, 1]
    if in_range:  # u w, itself a lambda = 0 eigenvector of A to roundoff
        assert np.allclose(np.abs(mode), [np.sqrt(0.5), np.sqrt(0.5), 0.0], rtol=0, atol=1e-12)
    else:  # the image of w
        assert abs(mode[:2]).max() < 1e-20 and abs(mode[2]) > 0.0


def test_a_compressed_series_cuts_at_the_shape_of_the_data():
    # In the QR coordinates x is 3 x 2, but the rank rules read 200 x 2:
    # 1e-14 lies above 3 eps and 4 eps, below 200 eps. So the second
    # direction of x, and the part of z_2 and of y outside range(x), are cut.
    basis, _ = np.linalg.qr(np.random.default_rng(40).standard_normal((200, 3)))
    z = basis @ np.array([[1.0, 1.0, 1.0], [0.0, 1e-14, 0.0], [0.0, 0.0, 1e-14]])
    pairs = pairs_from_sequence(z)
    op = reduced_operator(pairs)
    assert pairs._coordinates.q is not None  # the compressed path ran
    assert op.svd_of_x.rank == 1
    assert op.svd_of_x.truncation_tol == pytest.approx(200 * np.finfo(float).eps * np.sqrt(2.0))
    assert linear_consistency(pairs).rank == 1
    assert exact_dmd_qr(pairs, include_zero_modes=True).n_modes == 1
    assert exact_dmd_sequential(z, include_zero_modes=True).n_modes == 1
