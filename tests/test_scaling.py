"""Tests for mode scaling conventions and amplitude fitting."""

from dataclasses import replace

import numpy as np
import pytest

from dmdkit import (
    DmdDecomposition,
    exact_dmd,
    exact_dmd_qr,
    gen_random_linear,
    pairs_from_arrays,
    pairs_from_sequence,
    projected_dmd,
    reconstruct,
    scale_amplitudes,
    scale_biorthogonal,
)


def _linear_sequence(seed, n=5, steps=12, radius=0.9):
    mat, z = gen_random_linear(n, steps, seed, spectral_radius=radius)
    return mat, z


class TestBiorthogonal:
    def test_gram_matrix_becomes_identity(self):
        for seed in range(8):
            _, z = _linear_sequence(seed)
            dec = exact_dmd(pairs_from_sequence(z))
            out = scale_biorthogonal(dec)
            gram = out.adjoint_modes.conj().T @ out.exact_modes
            assert np.abs(gram - np.eye(dec.n_modes)).max() < 1e-9
            assert out.scaling == "biorthogonal"

    def test_modes_keep_unit_norm(self):
        _, z = _linear_sequence(3)
        out = scale_biorthogonal(exact_dmd(pairs_from_sequence(z)))
        assert np.allclose(np.linalg.norm(out.exact_modes, axis=0), 1.0, atol=1e-12)

    @pytest.mark.parametrize("scale", [1.0, 1e-30, 1e-200, 1e200])
    def test_refuses_coincident_eigenvalues(self, scale):
        pairs = pairs_from_arrays(np.eye(3), scale * np.diag([0.5, 0.5, 0.9]))
        dec = exact_dmd(pairs)
        with pytest.raises(ValueError, match="coincide"):
            scale_biorthogonal(dec)

    @staticmethod
    def _first_close_pair(lam):
        """The refusal's reference: a loop over i < j in row-major order."""
        scale = float(np.max(np.abs(lam)))
        for i in range(len(lam)):
            for j in range(i + 1, len(lam)):
                if abs(lam[i] - lam[j]) <= 1e-9 * scale:
                    return i, j
        return None

    def _assert_refusal_matches_the_loop(self, dec, lam):
        dec = replace(dec, eigenvalues=lam)
        pair = self._first_close_pair(lam)
        if pair is None:
            scale_biorthogonal(dec)
            return
        with pytest.raises(ValueError) as refusal:
            scale_biorthogonal(dec)
        i, j = pair
        assert str(refusal.value).startswith(f"eigenvalues {lam[i]} and {lam[j]} coincide")

    @pytest.mark.parametrize("seed", range(20))
    def test_refusal_matches_the_pairwise_loop(self, seed):
        # Three planted pairs; the loop names the one it meets first.
        rng = np.random.default_rng(seed)
        lam = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        for _ in range(3):
            i, j = rng.choice(12, 2, replace=False)
            lam[j] = lam[i] + 1e-9 * rng.uniform(0.5, 2.0) * np.exp(2j * np.pi * rng.uniform())
        dec = exact_dmd(pairs_from_arrays(np.eye(12), np.diag(np.arange(1.0, 13.0))))
        self._assert_refusal_matches_the_loop(dec, lam)

    def test_refusal_matches_the_pairwise_loop_at_the_tolerance(self):
        # Gaps of exactly the tolerance in every direction; numpy's
        # vectorized complex abs rounds some of them across it.
        dec = exact_dmd(pairs_from_arrays(np.eye(3), np.diag([0.2, 0.5, 0.9])))
        for theta in np.linspace(0.0, 2.0 * np.pi, 400):
            self._assert_refusal_matches_the_loop(dec, np.array([1e-9 * np.exp(1j * theta), 0.0, 1.0]))

    @pytest.mark.parametrize("scale", [1e-30, 1e-200, 1e200])
    def test_distinct_eigenvalues_pass_at_any_spectrum_scale(self, scale):
        # An eps floor on the largest magnitude refused 0.9e-30 and 0.5e-30
        # as coincident.
        pairs = pairs_from_arrays(np.eye(3), scale * np.diag([0.2, 0.5, 0.9]))
        out = scale_biorthogonal(exact_dmd(pairs))
        gram = out.adjoint_modes.conj().T @ out.modes
        assert np.allclose(gram, np.eye(3), atol=1e-12)


class TestAmplitudes:
    @pytest.mark.parametrize("method", ["qr", "gram"])
    @pytest.mark.parametrize("scale", [1e155, 1e-170])
    def test_amplitudes_and_residual_at_extreme_data_scales(self, method, scale):
        # Truncating the rank leaves y_0 a residual well above roundoff.
        # y* y and the squares in its norm overflow at 1e155 and underflow
        # at 1e-170 unless they are taken on rescaled data.
        _, z = _linear_sequence(4, n=6, steps=12)

        def fit(data):
            pairs = pairs_from_sequence(data)
            return scale_amplitudes(exact_dmd(pairs, rtol=0.3), pairs, method=method)

        base, dec = fit(z), fit(z * scale)
        assert base.amplitude_residual > 1e-3 * np.linalg.norm(z[:, 1])
        assert np.abs(dec.amplitudes / scale - base.amplitudes).max() <= (
            1e-9 * np.abs(base.amplitudes).max()
        )
        assert dec.amplitude_residual / scale == pytest.approx(base.amplitude_residual, rel=1e-9)

    def test_hand_checked_swap_sequence(self):
        # snapshots e1, e2, e1: the map swaps the axes, eigenvalues +1 and -1,
        # modes (e1 +- e2)/sqrt(2), and the first image expands with equal
        # weights 1/sqrt(2) on both modes.
        z = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        pairs = pairs_from_sequence(z)
        dec = scale_amplitudes(exact_dmd(pairs), pairs, method="qr")
        assert np.allclose(dec.eigenvalues, [1.0, -1.0], atol=1e-12)
        root_half = 0.7071067811865476
        assert np.allclose(dec.amplitudes, [root_half, root_half], atol=1e-12)
        assert dec.amplitude_residual < 1e-12
        assert dec.scaling == "amplitude-qr"

    def test_first_image_convention_fits_y0(self):
        for seed in range(6):
            _, z = _linear_sequence(seed, n=4, steps=10)
            pairs = pairs_from_sequence(z)
            dec = scale_amplitudes(exact_dmd(pairs), pairs, method="qr")
            lhs = dec.exact_modes @ (dec.eigenvalues * dec.amplitudes)
            assert np.linalg.norm(lhs - z[:, 1]) < 1e-9 * np.linalg.norm(z[:, 1])

    def test_initial_state_convention_fits_x0(self):
        # x_0 is expanded by reconstruct, not by an amplitude fit.
        _, z = _linear_sequence(11, n=4, steps=10)
        dec = exact_dmd(pairs_from_sequence(z))
        lhs = dec.exact_modes @ reconstruct(dec, z[:, 0]).coefficients
        assert np.linalg.norm(lhs - z[:, 0]) < 1e-9 * np.linalg.norm(z[:, 0])

    def test_gram_matches_qr_on_well_conditioned_data(self, monkeypatch):
        for seed in range(6):
            _, z = _linear_sequence(seed, n=4, steps=12)
            pairs = pairs_from_sequence(z)
            base = exact_dmd(pairs)
            dq = scale_amplitudes(base, pairs, method="qr")
            with monkeypatch.context() as patch:  # the gram fit lifts no mode
                patch.setattr(DmdDecomposition, "exact_modes", property(pytest.fail))
                dg = scale_amplitudes(base, pairs, method="gram")
            assert np.allclose(dq.amplitudes, dg.amplitudes, atol=1e-8)
            assert dg.scaling == "amplitude-gram"

    @pytest.mark.parametrize("series", [
        (3e300, 1.0),
        (1.0, 3e300),
        (1.4144378726289916e-263, 1.0),
        (6.994930334734994e100, 3.547170413168011e204),
        (1e300, 1e-10),
    ])
    def test_gram_matches_qr_when_the_operator_is_far_from_unit_scale(self, series):
        # y* y, the product y (v / sigma) w or the right-hand side leaves
        # the float64 range unless y, that product and the target are each
        # rescaled on their own. At 1e300, 1e-10 the eigenvalue is
        # subnormal: numpy's complex quotient by it overflows, and so does
        # the factor that scales the gram solution back.
        pairs = pairs_from_sequence(np.array([series]))
        dec = exact_dmd(pairs)
        dq, dg = (scale_amplitudes(dec, pairs, method=method) for method in ("qr", "gram"))
        assert np.abs(dg.amplitudes - dq.amplitudes).max() <= 1e-12 * np.abs(dq.amplitudes).max()
        assert dg.amplitude_residual <= 1e-12 * series[1]

    def test_gram_residual_matches_explicit_evaluation(self):
        _, z = _linear_sequence(7, n=4, steps=12)
        pairs = pairs_from_sequence(z)
        dec = scale_amplitudes(exact_dmd(pairs), pairs, method="gram")
        explicit = np.linalg.norm(
            dec.exact_modes @ (dec.eigenvalues * dec.amplitudes) - z[:, 1]
        )
        assert abs(dec.amplitude_residual - explicit) < 1e-10

    @pytest.mark.parametrize("kind", ["real", "complex"])
    @pytest.mark.parametrize("route", [exact_dmd, projected_dmd, exact_dmd_qr])
    def test_qr_fit_on_a_compressed_series_is_the_state_size_fit(self, kind, route):
        # On a tall series the fit runs on the (m+1)-row exact modes in the
        # QR coordinates, against q* y_0. The state-size modes are q times
        # them, q orthonormal, so both solve one least-squares problem and
        # differ by roundoff amplified at most by cond(modes)^2: the bound
        # is 10 eps cond^2 |d|. The residual is taken at state size, so for
        # the y_0 of other pairs it keeps the part outside range(q).
        _, z = gen_random_linear(60, 12, 3, spectral_radius=0.95)
        _, other_z = gen_random_linear(60, 12, 4)
        if kind == "complex":
            g = np.random.default_rng(60).standard_normal((2, 60, 60))
            unitary, _ = np.linalg.qr(g[0] + 1j * g[1])
            z, other_z = unitary @ z, unitary @ other_z
        pairs = pairs_from_sequence(z)
        dec = route(pairs)
        q = pairs._coordinates.q
        assert q is not None and q.shape == (60, 12)  # the compressed path ran
        phi, lam = dec.exact_modes, dec.eigenvalues
        bound = 10 * np.finfo(float).eps * np.linalg.cond(phi) ** 2
        for source in (pairs, pairs_from_sequence(other_z)):
            y0 = source.y[:, 0]
            got = scale_amplitudes(dec, source, method="qr")
            want = np.linalg.lstsq(phi, y0, rcond=None)[0] / lam
            assert np.linalg.norm(got.amplitudes - want) <= bound * np.linalg.norm(want)
            explicit = np.linalg.norm(phi @ (lam * got.amplitudes) - y0)
            assert abs(got.amplitude_residual - explicit) <= 1e-13 * np.linalg.norm(y0)
            outside = np.linalg.norm(y0 - q @ (q.conj().T @ y0))
            assert got.amplitude_residual >= outside * (1 - 1e-12)
            assert (outside > 0.1 * np.linalg.norm(y0)) == (source is not pairs)

    def test_rejects_unordered_pairs(self):
        rng = np.random.default_rng(5)
        pairs = pairs_from_arrays(rng.standard_normal((3, 6)), rng.standard_normal((3, 6)))
        dec = exact_dmd(pairs)
        with pytest.raises(ValueError, match="time-ordered"):
            scale_amplitudes(dec, pairs)

    def test_rejects_zero_eigenvalues_where_undefined(self):
        z = np.zeros((2, 3))
        z[0, 0] = 1.0
        z[1, 1] = 1.0
        pairs = pairs_from_sequence(z)
        dec = exact_dmd(pairs, include_zero_modes=True)
        for method in ("qr", "gram"):
            with pytest.raises(ValueError, match="zero eigenvalue"):
                scale_amplitudes(dec, pairs, method=method)


class TestConditioning:
    def test_orthogonal_factorization_beats_normal_equations(self):
        # trajectory of a system whose eigenvector matrix is ill conditioned;
        # the normal-equations route squares that conditioning and loses digits
        n, m = 6, 40
        rng = np.random.default_rng(5)
        u_m, _ = np.linalg.qr(rng.standard_normal((n, n)))
        v_m, _ = np.linalg.qr(rng.standard_normal((n, n)))
        svals = np.logspace(0, -7, n)
        s_mat = u_m @ np.diag(svals) @ v_m.T
        lam_true = 0.8 + 0.15 * rng.random(n)
        m_sys = s_mat @ np.diag(lam_true) @ np.linalg.inv(s_mat)
        z = np.empty((n, m))
        z[:, 0] = s_mat @ rng.standard_normal(n)
        for k in range(m - 1):
            z[:, k + 1] = m_sys @ z[:, k]
        pairs = pairs_from_sequence(z)
        dec = exact_dmd(pairs)
        cond = np.linalg.cond(dec.exact_modes)
        assert cond > 1e6
        dq = scale_amplitudes(dec, pairs, method="qr")
        dg = scale_amplitudes(dec, pairs, method="gram")
        assert dq.amplitude_residual <= dg.amplitude_residual
        assert dq.amplitude_residual < 1e-12
        assert dg.amplitude_residual > 1e-10
