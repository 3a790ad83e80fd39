"""Tests for Hankel realization and its link to the snapshot decomposition."""

import numpy as np
import pytest

from dmdkit import (
    MarkovSequence,
    build_hankel,
    era_dmd_similarity,
    era_realize,
    markov_from_blocks,
    markov_parameters,
    match_eigenvalues,
)
from dmdkit.errors import DimensionError


def _random_stable_system(rng, n, p=1, q=1, radius=0.9):
    a = rng.standard_normal((n, n))
    a *= radius / max(abs(np.linalg.eigvals(a)))
    b = rng.standard_normal((n, p))
    c = rng.standard_normal((q, n))
    return a, b, c


class TestMarkovParameters:
    def test_match_direct_matrix_powers(self):
        rng = np.random.default_rng(0)
        a, b, c = _random_stable_system(rng, 3, p=2, q=2)
        seq = markov_parameters(a, b, c, count=6)
        for k, block in enumerate(seq.params):
            assert np.allclose(block, c @ np.linalg.matrix_power(a, k) @ b, atol=1e-12)
        for k, block in enumerate(seq.shifted):
            assert np.allclose(
                block, c @ np.linalg.matrix_power(a, k + 1) @ b, atol=1e-12
            )

    def test_one_dimensional_b_and_c_are_promoted(self):
        a = np.diag([0.9, -0.4])
        seq = markov_parameters(a, np.ones(2), np.ones(2), count=4)
        assert seq.params[0].shape == (1, 1)
        assert np.allclose(seq.params[0], [[2.0]])
        assert np.allclose(seq.params[1], [[0.5]])

    def test_stride_skips_intermediate_powers(self):
        rng = np.random.default_rng(1)
        a, b, c = _random_stable_system(rng, 3)
        plain = markov_parameters(a, b, c, count=9)
        strided = markov_parameters(a, b, c, count=4, stride=2)
        for k in range(4):
            assert np.allclose(strided.params[k], plain.params[2 * k], atol=1e-12)
            assert np.allclose(strided.shifted[k], plain.params[2 * k + 1], atol=1e-12)

    def test_markov_from_blocks_stride(self):
        blocks = [np.array([[float(k)]]) for k in range(8)]
        seq = markov_from_blocks(blocks, stride=2)
        assert [b[0, 0] for b in seq.params] == [0.0, 2.0, 4.0, 6.0]
        assert [b[0, 0] for b in seq.shifted] == [1.0, 3.0, 5.0, 7.0]

    def test_vector_blocks_are_single_rows(self):
        seq = markov_from_blocks([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        assert seq.params[0].shape == (1, 2)
        assert np.array_equal(seq.shifted[1], [[5.0, 6.0]])

    @pytest.mark.parametrize("blocks", [
        [np.ones((2, 2)), np.ones((2, 3))],
        [np.ones((1, 2)), 1.0, 1.0],
        np.ones((3, 2, 2, 2)),
    ])
    def test_blocks_of_mixed_shapes_are_refused(self, blocks):
        with pytest.raises(DimensionError):
            markov_from_blocks(blocks)


class TestHankel:
    def test_scalar_geometric_sequence(self):
        # four raw blocks give three usable parameters: 1, 1/2, 1/4
        blocks = [np.array([[v]]) for v in (1.0, 0.5, 0.25, 0.125)]
        seq = markov_from_blocks(blocks)
        h, h_shift = build_hankel(seq, m_c=1, m_o=1)
        assert np.allclose(h, [[1.0, 0.5], [0.5, 0.25]])
        assert np.allclose(h_shift, [[0.5, 0.25], [0.25, 0.125]])

    def test_balanced_default_split(self):
        blocks = [np.array([[float(k)]]) for k in range(7)]
        seq = markov_from_blocks(blocks)
        h, _ = build_hankel(seq)
        # 6 parameters split as m_o=2, m_c=3, so (m_o+1) x (m_c+1) blocks
        assert h.shape == (3, 4)

    def test_strict_budget_enforced(self):
        # 6 raw blocks leave 5 parameters, so the split must satisfy
        # m_c + m_o == 4: anything bigger or smaller is refused
        blocks = [np.array([[float(k)]]) for k in range(6)]
        seq = markov_from_blocks(blocks)
        h, h_shift = build_hankel(seq, m_c=2, m_o=2)
        assert h.shape == (3, 3)
        with pytest.raises(DimensionError):
            build_hankel(seq, m_c=3, m_o=3)
        with pytest.raises(DimensionError):
            build_hankel(seq, m_c=1, m_o=2)

    @pytest.mark.parametrize("given, derived", [("m_c", "m_o"), ("m_o", "m_c")])
    def test_a_split_leaving_the_derived_one_negative_names_it(self, given, derived):
        seq = markov_from_blocks([np.array([[float(k)]]) for k in range(6)])
        with pytest.raises(ValueError, match=(
            rf"got m_c = {7 if given == 'm_c' else -3} and m_o = {-3 if given == 'm_c' else 7} "
            rf"\({derived} derived from m_c \+ m_o = len\(params\) - 1 = 4\)$"
        )):
            build_hankel(seq, **{given: 7})
        with pytest.raises(ValueError, match=r"must be nonnegative, got m_c = -1 and m_o = -2$"):
            build_hankel(seq, m_c=-1, m_o=-2)

    @pytest.mark.parametrize("shapes", [[(2, 2), (2, 3)], [(2, 2), (3, 2)], [(2,), (2,)]])
    def test_blocks_of_mixed_or_flat_shapes_are_refused(self, shapes):
        blocks = tuple(np.ones(shapes[k % 2]) for k in range(3))
        seq = MarkovSequence(params=blocks, shifted=blocks)
        with pytest.raises(DimensionError, match="one shape"):
            build_hankel(seq)

    def test_block_layout(self):
        rng = np.random.default_rng(2)
        a, b, c = _random_stable_system(rng, 3, p=2, q=3)
        seq = markov_parameters(a, b, c, count=5)
        h, h_shift = build_hankel(seq, m_c=2, m_o=2)
        assert h.shape == (9, 6)

        def blk(power):
            return c @ np.linalg.matrix_power(a, power) @ b

        for i in range(3):
            for j in range(3):
                got = h[3 * i : 3 * (i + 1), 2 * j : 2 * (j + 1)]
                assert np.allclose(got, blk(i + j), atol=1e-12)
                got_s = h_shift[3 * i : 3 * (i + 1), 2 * j : 2 * (j + 1)]
                assert np.allclose(got_s, blk(i + j + 1), atol=1e-12)


class TestRealization:
    def test_scalar_oracle_first_order(self):
        h = np.array([[1.0, 0.5], [0.5, 0.25]])
        h_shift = np.array([[0.5, 0.25], [0.25, 0.125]])
        real = era_realize(h, h_shift, 1, 1, 1)
        assert real.order == 1
        assert abs(real.a_r[0, 0] - 0.5) < 1e-12
        assert abs(real.b_r[0, 0] * real.c_r[0, 0] - 1.0) < 1e-12
        assert real.d_r.shape == (1, 1)
        assert abs(real.d_r[0, 0]) == 0.0
        assert abs(real.singular_values[0] - 1.25) < 1e-12

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_input_is_refused(self, value):
        h = np.array([[1.0, 0.5], [0.5, 0.25]])
        h_shift = 0.5 * h
        h_shift[0, -1] = value
        with pytest.raises(ValueError, match="non-finite"):
            era_realize(h, h_shift, 1, 1, 1)

    def test_order_bounds(self):
        h = np.array([[1.0, 0.5], [0.5, 0.25]])
        h_shift = 0.5 * h
        with pytest.raises(ValueError):
            era_realize(h, h_shift, 2, 1, 1)
        with pytest.raises(ValueError):
            era_realize(h, h_shift, 0, 1, 1)

    def test_impulse_response_reproduced(self):
        for seed in range(8):
            rng = np.random.default_rng(100 + seed)
            n = int(rng.integers(2, 5))
            a, b, c = _random_stable_system(rng, n, p=2, q=2)
            seq = markov_parameters(a, b, c, count=2 * n + 1)
            h, h_shift = build_hankel(seq, m_c=n, m_o=n)
            real = era_realize(h, h_shift, n, 2, 2)
            for k in range(2 * n):
                want = c @ np.linalg.matrix_power(a, k) @ b
                got = real.c_r @ np.linalg.matrix_power(real.a_r, k) @ real.b_r
                assert np.linalg.norm(got - want) < 1e-9 * max(1.0, np.linalg.norm(want))

    def test_full_order_default(self):
        rng = np.random.default_rng(3)
        a, b, c = _random_stable_system(rng, 3)
        seq = markov_parameters(a, b, c, count=9)
        h, h_shift = build_hankel(seq, m_c=4, m_o=4)
        real = era_realize(h, h_shift, None, 1, 1)
        assert real.order == 3

    def test_recovers_oscillation_from_scalar_samples(self):
        theta = 0.7
        blocks = [np.array([[np.cos(k * theta)]]) for k in range(9)]
        seq = markov_from_blocks(blocks)
        h, h_shift = build_hankel(seq)
        real = era_realize(h, h_shift, None, 1, 1)
        assert real.order == 2
        poles = np.linalg.eigvals(real.a_r)
        want = np.exp(1j * theta)
        assert min(abs(poles - want)) < 1e-9
        assert min(abs(poles - np.conj(want))) < 1e-9


class TestEigenvalueMatching:
    def test_permutation_recovered(self):
        left = np.array([1.0 + 0j, 2.0, 3.0])
        right = np.array([3.0 + 0j, 1.0, 2.0])
        perm = match_eigenvalues(left, right)
        assert np.allclose(right[perm], left)

    def test_size_mismatch_raises(self):
        with pytest.raises(DimensionError):
            match_eigenvalues(np.ones(2, dtype=complex), np.ones(3, dtype=complex))


class TestSimilarityToSnapshotDecomposition:
    def test_same_nonzero_spectrum_and_vector_map(self):
        for seed in range(8):
            rng = np.random.default_rng(200 + seed)
            n = int(rng.integers(2, 5))
            a, b, c = _random_stable_system(rng, n, p=2, q=2)
            seq = markov_parameters(a, b, c, count=2 * n + 1)
            h, h_shift = build_hankel(seq, m_c=n, m_o=n)
            rep = era_dmd_similarity(h, h_shift)
            assert rep.order == n
            assert rep.max_eigenvalue_mismatch < 1e-9
            assert rep.max_map_residual < 1e-9
            want = np.linalg.eigvals(a)
            got = rep.era_eigenvalues
            perm = match_eigenvalues(want, got)
            assert np.abs(got[perm] - want).max() < 1e-8

    def test_recovers_true_poles(self):
        rng = np.random.default_rng(9)
        a, b, c = _random_stable_system(rng, 3)
        seq = markov_parameters(a, b, c, count=9)
        h, h_shift = build_hankel(seq)
        real = era_realize(h, h_shift, None, 1, 1)
        want = np.linalg.eigvals(a)
        got = np.linalg.eigvals(real.a_r)
        perm = match_eigenvalues(want, got)
        assert np.abs(got[perm] - want).max() < 1e-9
