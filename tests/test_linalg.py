"""Tests for the dense linear algebra layer."""

import dataclasses
import sys
import threading

import numpy as np
import pytest

from dmdkit import (
    EigenPairs,
    RankZeroError,
    ReducedSvd,
    SnapshotPairs,
    build_hankel,
    eig_dense,
    era_dmd_similarity,
    era_realize,
    exact_dmd,
    exact_dmd_qr,
    lim_dmd_equivalence,
    lim_model,
    linear_consistency,
    markov_parameters,
    pairs_from_sequence,
    projected_dmd,
    reduced_svd,
    scale_amplitudes,
    subtract_mean,
)
from dmdkit import linalg
from dmdkit.dmd import _decompose, reduced_operator
from dmdkit.errors import DimensionError, EigensolverError
from dmdkit.era import _hankel_pair, _realize, _similarity
from dmdkit.linalg import _norm
from dmdkit.pairs import _frame, _Frame


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

    def test_a_largest_singular_value_beyond_float64_is_an_overflow(self):
        with pytest.raises(FloatingPointError, match="overflow: the largest singular value"):
            reduced_svd(np.array([[1e308, 1.2e308, 1.1e308]]))

    def test_result_type(self):
        svd = reduced_svd(np.eye(3))
        assert isinstance(svd, ReducedSvd)
        assert svd.truncation_tol > 0


def _coordinates_of(x):
    """The coordinates of pairs (x, x), which, with unequal columns, are no series: their x is x."""
    return _frame(SnapshotPairs(x=x, y=x))


class TestSharedFactorizations:
    """A run is one ``linalg._held_in`` block: the calls that read one pairs object's coordinates."""

    def test_calls_outside_a_run_factor_every_time(self, lapack_svds, lapack_qrs):
        z = np.random.default_rng(0).standard_normal((6, 5))
        reduced_svd(z)
        reduced_svd(z)
        pairs = pairs_from_sequence(z)
        linear_consistency(pairs)
        exact_dmd(pairs)  # calls on one pairs object share one QR of the series, and its x's SVD
        assert lapack_qrs == [(6, 5)]
        assert lapack_svds == [(6, 5), (6, 5), (5, 4)]

    def test_a_run_factors_each_matrix_once_and_cuts_per_call(self, lapack_svds):
        frame = _coordinates_of(np.diag([1.0, 1e-6, 1e-12]))
        with linalg._held_in(frame):
            ranks = [reduced_svd(frame.x).rank, reduced_svd(frame.x, rtol=1e-9).rank,
                     reduced_svd(frame.x, atol=1e-3).rank]
        assert ranks == [3, 2, 1]
        assert lapack_svds == [(3, 3)]
        reduced_svd(frame.x)  # the run is over: nothing is bound
        assert lapack_svds == [(3, 3), (3, 3)]
        with linalg._held_in(frame):  # the coordinates still hold their factors for the next run
            reduced_svd(frame.x)
        assert len(lapack_svds) == 2

    def test_shared_factors_equal_fresh_ones_bit_for_bit(self):
        x = np.random.default_rng(1).standard_normal((7, 4)) + 1j
        fresh = reduced_svd(x)
        frame = _coordinates_of(x)
        with linalg._held_in(frame):
            reduced_svd(frame.x, rtol=0.5)
            shared = reduced_svd(frame.x)
        for field in ("u", "sigma", "v", "rank", "truncation_tol"):
            assert np.array_equal(getattr(shared, field), getattr(fresh, field)), field

    def test_only_the_coordinates_own_x_reads_their_factors(self, lapack_svds):
        frame = _coordinates_of(np.random.default_rng(2).standard_normal((4, 4)))
        copy = frame.x.copy()  # equal bit for bit, in dtype and shape too
        with linalg._held_in(frame):
            got = [reduced_svd(a) for a in (frame.x, frame.x, copy, frame.x[:], frame.x)]
        assert lapack_svds == [(4, 4)] * 3  # the coordinates' x once, the copy and the view anew
        assert all(np.array_equal(svd.u, got[0].u) for svd in got)

    def test_held_factors_are_read_only_inside_a_run(self):
        x = np.random.default_rng(4).standard_normal((5, 3))
        assert not reduced_svd(x).u.flags.writeable  # outside a run too: one rule
        frame = _coordinates_of(x)
        with linalg._held_in(frame):
            svd = reduced_svd(frame.x)
            with pytest.raises(ValueError, match="read-only"):
                svd.u[0, 0] = 1.0
            with pytest.raises(ValueError, match="read-only"):
                svd.v[0, 0] = 1.0
        assert not any(a.flags.writeable for a in frame.factors)

    def test_a_failing_run_keeps_what_it_holds(self, lapack_svds):
        pairs = SnapshotPairs(x=np.zeros((2, 2)), y=np.eye(2))
        with pytest.raises(RankZeroError):
            reduced_operator(pairs)
        assert linalg._HELD.get() is None  # the coordinates are unbound
        with pytest.raises(RankZeroError):
            reduced_operator(pairs)
        assert lapack_svds == [(2, 2)]  # and still hold the factors of x

    def test_runs_in_threads_hold_their_own_factors(self, lapack_svds):
        x = np.random.default_rng(7).standard_normal((40, 12))
        want = reduced_svd(x)
        results, errors = [], []

        def run():
            try:
                frame = _coordinates_of(x)
                with linalg._held_in(frame):
                    got = [reduced_svd(frame.x, rtol=rtol) for rtol in (None, 1e-3, None, 1e-1)]
                results.append(got[0].sigma.tolist() == want.sigma.tolist()
                               and np.array_equal(got[2].u, want.u)
                               and linalg._HELD.get() is None)
            except Exception as exc:  # re-raised in the main thread below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run) for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors, errors
        assert results == [True] * 6
        assert len(lapack_svds) == 1 + 6  # each thread's coordinates factor x once

    @staticmethod
    def _assert_same_report(a, b):
        for field in dataclasses.fields(a):
            got, want = getattr(a, field.name), getattr(b, field.name)
            assert np.array_equal(got, want), field.name

    def test_era_report_is_the_same_alone_and_on_a_shared_pair(self, lapack_svds):
        a = np.diag([0.9, 0.5, -0.3])
        seq = markov_parameters(a, [[1.0], [1.0], [1.0]], [[1.0, 0.5, 0.25]], count=9)
        h, h_shift = build_hankel(seq)
        alone = era_dmd_similarity(h, h_shift)  # its pair of H is factored once
        assert lapack_svds == [h.shape]
        era_realize(h, h_shift, None, 1, 1)  # builds its own pair of H
        assert lapack_svds == [h.shape] * 2
        hankel = _hankel_pair(h, h_shift)
        _realize(hankel, None, 1, 1, None, None)
        shared = _similarity(hankel, None, None)
        assert lapack_svds == [h.shape] * 3
        self._assert_same_report(shared, alone)

    def test_lim_report_is_the_same_on_shared_and_fresh_pairs(self, lapack_svds):
        z = np.random.default_rng(6).standard_normal((4, 30))
        pairs, _ = subtract_mean(pairs_from_sequence(z))
        lim_model(pairs)
        shared = lim_dmd_equivalence(pairs)
        assert len(lapack_svds) == 1
        fresh = lim_dmd_equivalence(dataclasses.replace(pairs))  # a copy holds nothing
        assert len(lapack_svds) == 2
        self._assert_same_report(shared, fresh)


def _same_bytes(a, b) -> bool:
    """Whether two results agree field by field, arrays bit for bit.

    A compressed frame holds its basis as reflectors until a state-size
    read forms q in their place; where one frame has formed q and the
    other has not, both are compared as q.
    """
    if isinstance(a, _Frame) and (a.tau is None) != (b.tau is None):
        a.q, b.q  # reading q forms it on the side that still holds reflectors
    if dataclasses.is_dataclass(a):
        return all(_same_bytes(getattr(a, f.name), getattr(b, f.name))
                   for f in dataclasses.fields(a))
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    return type(a) is type(b) and a == b


def _library_chain(pairs):
    """The route calls of one library session, each on the pairs ``pairs()`` returns."""
    dec = exact_dmd(pairs())
    return [linear_consistency(pairs()), dec, projected_dmd(pairs()), exact_dmd_qr(pairs()),
            scale_amplitudes(dec, pairs(), method="gram")]


class TestPairsShareOneFactorization:
    """Library calls on one pairs object factor its x once."""

    def test_route_calls_on_one_pairs_factor_x_once(self, lapack_svds, lapack_qrs):
        z = np.random.default_rng(8).standard_normal((30, 12))
        pairs = pairs_from_sequence(z)
        got = _library_chain(lambda: pairs)
        assert lapack_qrs == [(30, 12)]  # the tall series, once
        assert lapack_svds == [(12, 11), (12, 11)]  # its x, then the QR complement, in coordinates
        want = _library_chain(lambda: pairs_from_sequence(z))  # a fresh pairs object per call
        assert len(lapack_svds) == 2 + 5
        assert len(lapack_qrs) == 1 + 5  # the gram amplitudes' fresh pairs too
        for shared, fresh in zip(got, want):
            assert _same_bytes(shared, fresh)

    def test_lifts_on_shared_coordinates_equal_fresh_ones_bit_for_bit(self):
        # Different cuts give u and b at different ranks, held in the pairs'
        # coordinates and lifted on each read; each route lifts its bases once.
        rng = np.random.default_rng(14)
        z = rng.standard_normal((40, 9)) * np.logspace(0, -8, 9)
        pairs = pairs_from_sequence(z)

        def chain(pairs):
            return [reduced_operator(pairs(), rtol=1e-4), exact_dmd_qr(pairs()),
                    _decompose("sequential", pairs()), exact_dmd(pairs()),
                    reduced_operator(pairs(), rtol=1e-4)]

        got, want = chain(lambda: pairs), chain(lambda: pairs_from_sequence(z))
        assert got[0].svd_of_x.rank < got[3].svd_of_x.rank
        for op in (0, 4):  # the public fields of the operators
            for name in ("a_tilde", "b", "svd_of_x"):
                assert _same_bytes(getattr(got[op], name), getattr(want[op], name)), name
        for dec in (1, 2, 3):
            assert _same_bytes(got[dec], want[dec])
            assert _same_bytes(got[dec].modes, want[dec].modes)

    def test_fresh_pairs_from_the_same_series_factor_again(self, lapack_svds, lapack_qrs):
        z = np.random.default_rng(9).standard_normal((8, 6))
        for _ in range(2):
            exact_dmd(pairs_from_sequence(z))
            projected_dmd(pairs_from_sequence(z))
        assert lapack_qrs == [(8, 6)] * 4
        assert lapack_svds == [(6, 5)] * 4

    @pytest.mark.parametrize("write", [
        lambda pairs: pairs.x.__setitem__((0, 1), 1.0),
        lambda pairs: pairs.y.__setitem__((0, -1), 1.0),
        lambda pairs: pairs.x.setflags(write=True),
        lambda pairs: pairs.y.setflags(write=True),
    ], ids=["into x", "into y", "x made writeable", "y made writeable"])
    def test_writes_into_the_pairs_are_refused(self, write):
        z = np.random.default_rng(10).standard_normal((7, 6))
        pairs = pairs_from_sequence(z)
        want = exact_dmd(pairs)
        with pytest.raises(ValueError):
            write(pairs)
        assert not pairs.x.flags.writeable and not pairs.y.flags.writeable
        assert _same_bytes(exact_dmd(pairs), want)

    @pytest.mark.parametrize("layout", ["view of the series", "own arrays"])
    def test_a_later_write_into_the_source_leaves_every_answer_unchanged(
        self, lapack_svds, lapack_qrs, layout
    ):
        z = np.random.default_rng(13).standard_normal((9, 6))
        x, y = z[:, :-1].copy(), z[:, 1:].copy()
        pairs = pairs_from_sequence(z) if layout == "view of the series" else SnapshotPairs(x=x, y=y)
        want = _library_chain(lambda: pairs_from_sequence(z.copy()))
        for source in (z, x, y):  # the pairs own copies of x and y, so none of this reaches them
            source[0, :] = 1.0
        got = _library_chain(lambda: pairs)
        assert lapack_qrs == [(9, 6)] * (5 + 1)  # still a tall series, factored once
        assert len(lapack_svds) == 5 + 2
        for shared, fresh in zip(got, want):
            assert _same_bytes(shared, fresh)

    def test_copies_leave_the_coordinates_alone(self):
        pairs = pairs_from_sequence(np.random.default_rng(11).standard_normal((5, 9)))
        exact_dmd(pairs)
        held = pairs._coordinates
        assert held is not None
        centered, _ = subtract_mean(pairs)
        assert centered._coordinates is None and dataclasses.replace(pairs)._coordinates is None
        assert "_coordinates" not in repr(pairs)
        exact_dmd(centered)  # the copy builds its own
        assert centered._coordinates is not None and pairs._coordinates is held

    def test_a_tall_series_whose_snapshot_norm_overflows_holds_nothing(self):
        pairs = pairs_from_sequence(np.full((4, 3), 1e308))
        with pytest.raises(FloatingPointError, match="overflow: the norm of a snapshot"):
            exact_dmd(pairs)
        assert pairs._coordinates is None

    @pytest.mark.parametrize("width", [3, 40], ids=["one block", "two blocks"])
    @pytest.mark.parametrize("unit", [1.0, 1j], ids=["real", "complex"])
    def test_the_series_qr_refuses_a_column_whose_norm_overflows(self, width, unit):
        # The norm of the middle column, 1.2e308 sqrt(n), leaves float64;
        # the CLI reports this as exit 6 (test_cli).
        z = np.random.default_rng(13).standard_normal((width + 4, width)) * unit
        z[:, width // 2] = 1.2e308 * unit
        with pytest.raises(FloatingPointError, match="overflow: the norm of a snapshot"):
            linalg._qr(np.array(z, order="F"))

    def test_threads_on_one_shared_pairs_agree_bit_for_bit(self):
        z = np.random.default_rng(12).standard_normal((60, 20))
        pairs = pairs_from_sequence(z)
        want = exact_dmd(pairs_from_sequence(z))
        results, errors = [], []

        def run():
            try:
                results.append(exact_dmd(pairs))
            except Exception as exc:  # re-raised in the main thread below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run) for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors, errors
        assert len(results) == 6 and all(_same_bytes(got, want) for got in results)
        assert pairs._coordinates is not None


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
