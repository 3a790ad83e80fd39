"""Tests for snapshot-pair construction and rearrangement."""

import tracemalloc

import numpy as np
import pytest

from dmdkit import (
    SnapshotPairs,
    delay_embed,
    embed_sequence,
    exact_dmd,
    exact_dmd_qr,
    exact_dmd_sequential,
    pairs_from_arrays,
    pairs_from_sequence,
    pairs_from_strided,
    pairs_from_trajectories,
    scale_amplitudes,
    snapshot_matrix,
    subtract_mean,
)
from dmdkit.errors import DimensionError, ParseError
from dmdkit.dmd import _decompose
from dmdkit.pairs import _series


def test_snapshot_matrix_accepts_list_of_vectors():
    mat = snapshot_matrix([[1.0, 0.0], [0.0, 1.0], [2.0, 3.0]])
    assert mat.shape == (2, 3)
    assert np.allclose(mat[:, 2], [2.0, 3.0])


def test_snapshot_matrix_accepts_scalar_sequence():
    mat = snapshot_matrix([1.0, 0.5, 0.25])
    assert mat.shape == (1, 3)


@pytest.mark.parametrize(
    "z", [np.zeros((2, 3, 4)), [np.zeros((2, 2)), np.zeros((2, 2))]], ids=["3-D", "2-D snapshots"]
)
def test_snapshots_with_more_than_one_dimension_are_refused(z):
    # Column-stacking the blocks once turned a 2x3x4 array into 3x7 pairs.
    with pytest.raises(DimensionError, match="scalars or 1-D vectors"):
        pairs_from_sequence(z)


@pytest.mark.parametrize("z", [[], (), np.empty(0)], ids=["list", "tuple", "0-length array"])
def test_no_snapshots_at_all_is_empty_not_ragged(z):
    with pytest.raises(DimensionError, match="snapshots is empty"):
        pairs_from_sequence(z)


@pytest.mark.parametrize("z", [3.0, np.array(2.0), None], ids=["float", "0-d array", "None"])
def test_a_scalar_is_not_a_sequence_of_snapshots(z):
    with pytest.raises(DimensionError, match="must be a sequence of snapshots"):
        pairs_from_sequence(z)


def test_ragged_snapshots_are_still_inconsistent_lengths():
    with pytest.raises(DimensionError, match="inconsistent lengths"):
        pairs_from_sequence([[1.0, 2.0], [3.0]])


def test_pairs_built_directly_take_array_likes_and_own_read_only_copies():
    pairs = SnapshotPairs(x=[[1.0]], y=[[1.0]])
    assert isinstance(pairs.x, np.ndarray) and pairs.x.shape == (1, 1)
    assert exact_dmd(pairs).eigenvalues.tolist() == [1.0]
    z = np.arange(12.0).reshape(3, 4)
    x, y = z[:, :-1], z[:, 1:]
    own = SnapshotPairs(x=x, y=y)
    for got, source in ((own.x, x), (own.y, y)):
        assert np.array_equal(got, source) and got.dtype == source.dtype
        assert got.flags.c_contiguous and not got.flags.writeable
        assert not np.shares_memory(got, z)
    z[:] = -1.0
    assert own.x[0].tolist() == [0.0, 1.0, 2.0] and own.y[0].tolist() == [1.0, 2.0, 3.0]


@pytest.mark.parametrize("build", [
    lambda z, runs, pairs: subtract_mean(pairs)[0],
    lambda z, runs, pairs: subtract_mean(pairs, "pooled-mean")[0],
    lambda z, runs, pairs: pairs_from_trajectories(runs),
    lambda z, runs, pairs: pairs_from_strided(z, 2),
], ids=["x-mean", "pooled-mean", "trajectories", "strided"])
def test_pairs_built_from_new_arrays_hold_them_uncopied(build):
    # The constructors that build x and y themselves hand them to the pairs
    # uncopied, so building costs no more memory than the pairs then hold.
    z = np.random.default_rng(8).standard_normal((1000, 201))
    runs = [z[:, :101].copy(), z[:, 101:].copy()]
    pairs = pairs_from_sequence(z)
    build(z[:, :4], [r[:, :4] for r in runs], pairs_from_sequence(z[:, :4]))  # first-use costs
    tracemalloc.start()
    try:
        built = build(z, runs, pairs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    for a in (built.x, built.y):
        assert a.flags.c_contiguous and not a.flags.writeable
        assert not np.shares_memory(a, z) and not any(np.shares_memory(a, r) for r in runs)
    assert peak <= 1.1 * (built.x.nbytes + built.y.nbytes)


@pytest.mark.parametrize("x, y, message", [
    ([1.0, 2.0], [[1.0, 2.0]], "x must be 2-D, got shape \\(2,\\)"),
    ([[1.0, 2.0]], 3.0, "y must be 2-D, got shape \\(\\)"),
    (np.ones((2, 2, 1)), np.ones((2, 2, 1)), "x must be 2-D"),
    (np.ones((2, 0)), np.ones((2, 0)), "at least one column"),
    (np.ones((2, 2)), np.ones((2, 3)), "equal shapes"),
])
def test_pairs_built_directly_refuse_bad_shapes(x, y, message):
    with pytest.raises(DimensionError, match=message):
        SnapshotPairs(x=x, y=y)


def test_non_numeric_snapshots_are_a_parse_error():
    with pytest.raises(ParseError, match="must hold numbers"):
        snapshot_matrix(np.array([["1.0", "2.0"], ["3.0", "x"]]))


def test_pairs_from_arrays_basic():
    x = np.eye(3)
    y = 2.0 * np.eye(3)
    pairs = pairs_from_arrays(x, y, dt=0.5)
    assert isinstance(pairs, SnapshotPairs)
    assert pairs.n_states == 3
    assert pairs.n_pairs == 3
    assert pairs.dt == 0.5
    with pytest.raises(ValueError, match="time-ordered"):
        _series(pairs)  # y_0 = 2 e_1 is not x_1 = e_2


def test_pairs_from_arrays_shape_mismatch():
    with pytest.raises(DimensionError):
        pairs_from_arrays(np.eye(3)[:, :2], np.eye(3))


def test_pairs_from_sequence_scalar_halving():
    pairs = pairs_from_sequence([1.0, 0.5, 0.25], dt=2.0)
    assert np.array_equal(_series(pairs), [[1.0, 0.5, 0.25]])
    assert np.allclose(pairs.x, [[1.0, 0.5]])
    assert np.allclose(pairs.y, [[0.5, 0.25]])
    assert pairs.dt == 2.0


def test_pairs_from_sequence_needs_two_snapshots():
    with pytest.raises(DimensionError):
        pairs_from_sequence(np.ones((3, 1)))


def test_pairs_from_strided_anchor_layout():
    z = np.arange(10.0)[None, :]
    pairs = pairs_from_strided(z, 3)
    with pytest.raises(ValueError, match="time-ordered"):
        _series(pairs)  # images 1, 4 are not the next anchors 3, 6
    assert np.allclose(pairs.x, [[0.0, 3.0, 6.0]])
    assert np.allclose(pairs.y, [[1.0, 4.0, 7.0]])


def test_pairs_from_strided_count_clamp():
    z = np.arange(10.0)[None, :]
    pairs = pairs_from_strided(z, 3, count=2)
    assert pairs.n_pairs == 2
    with pytest.raises(DimensionError):
        pairs_from_strided(z, 3, count=4)


def test_pairs_from_strided_unit_stride_matches_sequence():
    rng = np.random.default_rng(0)
    z = rng.standard_normal((4, 9))
    a = pairs_from_strided(z, 1)
    b = pairs_from_sequence(z)
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.y, b.y)


def test_pairs_from_trajectories_concatenates_runs():
    rng = np.random.default_rng(1)
    runs = [rng.standard_normal((3, 5)), rng.standard_normal((3, 4))]
    pairs = pairs_from_trajectories(runs)
    with pytest.raises(ValueError, match="time-ordered"):
        _series(pairs)  # the last image of run 0 is not the first state of run 1
    assert pairs.n_pairs == (5 - 1) + (4 - 1)
    assert np.array_equal(pairs.x[:, :4], runs[0][:, :4])
    assert np.array_equal(pairs.y[:, 4:], runs[1][:, 1:])


@pytest.mark.parametrize("runs, message", [
    ([np.ones((3, 5)), np.ones((3, 1))], "trajectory 1 needs at least 2 snapshots"),
    ([np.ones((3, 5)), np.ones((2, 4))], "trajectory 1 has 2 states, expected 3"),
    (np.arange(15.0).reshape(3, 5), r"a list of trajectories, not one array; pass \[z\]"),
])
def test_pairs_from_trajectories_rejects_mismatched_runs(runs, message):
    with pytest.raises(DimensionError, match=message):
        pairs_from_trajectories(runs)


def test_one_pairs_object_compares_its_columns_once(monkeypatch):
    """Whether pairs form one series is answered once per pairs object,
    for the sequential route's check and the QR of a tall series alike."""
    calls = []
    array_equal = np.array_equal
    monkeypatch.setattr(np, "array_equal", lambda a, b: calls.append(1) or array_equal(a, b))
    z = np.random.default_rng(0).standard_normal((20, 6))
    exact_dmd_sequential(z)
    assert len(calls) == 1
    pairs = pairs_from_sequence(z)
    for dec in (exact_dmd(pairs), exact_dmd_qr(pairs), _decompose("sequential", pairs)):
        scale_amplitudes(dec, pairs)
    delay_embed(pairs, 2)
    assert len(calls) == 2


def test_embed_sequence_stacks_consecutive_snapshots():
    z = np.arange(6.0)[None, :]
    emb = embed_sequence(z, 3)
    assert emb.shape == (3, 4)
    for k in range(4):
        assert np.allclose(emb[:, k], [k, k + 1, k + 2])


def test_delay_embed_structure():
    rng = np.random.default_rng(2)
    z = rng.standard_normal((2, 8))
    pairs = pairs_from_sequence(z, dt=0.1)
    emb = delay_embed(pairs, 2)
    assert np.array_equal(_series(emb), embed_sequence(z, 2))
    assert emb.n_states == 4
    assert emb.n_pairs == 6
    assert np.allclose(emb.x[:2], z[:, :6])
    assert np.allclose(emb.x[2:], z[:, 1:7])
    assert np.allclose(emb.y[:2], z[:, 1:7])
    assert emb.dt == 0.1


def test_delay_embed_depth_one_is_identity():
    pairs = pairs_from_sequence(np.random.default_rng(3).standard_normal((2, 5)))
    out = delay_embed(pairs, 1)
    assert np.array_equal(out.x, pairs.x)
    assert np.array_equal(out.y, pairs.y)


def test_delay_embed_rejects_generic_pairs():
    pairs = pairs_from_arrays(np.eye(3), np.eye(3))
    with pytest.raises(ValueError):
        delay_embed(pairs, 2)


@pytest.mark.parametrize("build", [
    lambda z: pairs_from_strided(z, 1),
    lambda z: pairs_from_arrays(z[:, :-1], z[:, 1:]),
    lambda z: pairs_from_trajectories([z]),
], ids=["strided", "shifted arrays", "one run"])
def test_time_order_is_read_from_the_data(build):
    z = np.random.default_rng(6).standard_normal((3, 12))
    pairs, reference = build(z), pairs_from_sequence(z)
    emb, want = delay_embed(pairs, 3), delay_embed(reference, 3)
    assert np.array_equal(emb.x, want.x) and np.array_equal(emb.y, want.y)
    got, want = (scale_amplitudes(exact_dmd(p), p) for p in (pairs, reference))
    np.testing.assert_allclose(got.amplitudes, want.amplitudes, rtol=1e-12)


@pytest.mark.parametrize("mode", ["x-mean", "pooled-mean"])
def test_centred_pairs_stay_time_ordered(mode):
    z = np.random.default_rng(7).standard_normal((3, 12)) + 4.0
    centred, mean = subtract_mean(pairs_from_arrays(z[:, :-1], z[:, 1:]), mode)
    assert np.array_equal(_series(centred), z - mean[:, None])
    emb = delay_embed(centred, 2)
    assert np.array_equal(emb.x, embed_sequence(z - mean[:, None], 2)[:, :-1])
    assert scale_amplitudes(exact_dmd(centred), centred).amplitudes is not None


def test_pairs_that_are_not_one_series_are_refused():
    rng = np.random.default_rng(8)
    unrelated = pairs_from_arrays(rng.standard_normal((3, 6)), rng.standard_normal((3, 6)))
    two_runs = pairs_from_trajectories([rng.standard_normal((3, 5)), rng.standard_normal((3, 4))])
    for pairs in (unrelated, two_runs):
        with pytest.raises(ValueError, match="time-ordered"):
            delay_embed(pairs, 2)
        with pytest.raises(ValueError, match="time-ordered"):
            scale_amplitudes(exact_dmd(pairs), pairs)
        with pytest.raises(ValueError, match="time-ordered"):
            _decompose("sequential", pairs)


def test_subtract_mean_x_mode():
    rng = np.random.default_rng(4)
    z = rng.standard_normal((3, 10)) + 5.0
    pairs = pairs_from_sequence(z)
    centered, mean = subtract_mean(pairs)
    assert np.allclose(mean, pairs.x.mean(axis=1).real)
    assert np.allclose(centered.x.mean(axis=1), 0.0, atol=1e-12)
    assert np.allclose(centered.x + mean[:, None], pairs.x)
    assert np.allclose(centered.y + mean[:, None], pairs.y)


def test_subtract_mean_pooled_mode():
    rng = np.random.default_rng(5)
    pairs = pairs_from_sequence(rng.standard_normal((2, 7)) - 3.0)
    centered, mean = subtract_mean(pairs, mode="pooled-mean")
    pooled = np.hstack([pairs.x, pairs.y]).mean(axis=1).real
    assert np.allclose(mean, pooled)
    stacked = np.hstack([centered.x, centered.y])
    assert np.allclose(stacked.mean(axis=1), 0.0, atol=1e-12)


# Finite snapshots whose column sum leaves the float64 range; their mean does not.
_FAR_SERIES = np.array([[1e308, 1.2e308, 1.1e308, 1.3e308]])


@pytest.mark.parametrize("mode, want", [("x-mean", 1.1e308), ("pooled-mean", 1.15e308)])
def test_subtract_mean_of_data_whose_sum_overflows(mode, want):
    with np.errstate(over="raise"):
        centered, mean = subtract_mean(pairs_from_sequence(_FAR_SERIES), mode)
    assert mean == pytest.approx([want], rel=1e-15)
    assert np.all(np.isfinite(centered.x)) and np.all(np.isfinite(centered.y))
    assert np.array_equal(_series(centered), _FAR_SERIES - mean[:, None])


@pytest.mark.parametrize("scale", [1e-300, 1.0, 1e300])
def test_subtract_mean_equals_numpys_mean_where_that_is_finite(scale):
    z = np.random.default_rng(6).standard_normal((4, 9)) * scale
    pairs = pairs_from_sequence(z)
    assert subtract_mean(pairs)[1].tobytes() == pairs.x.mean(axis=1).tobytes()
    pooled = np.hstack([pairs.x, pairs.y]).mean(axis=1)
    assert subtract_mean(pairs, "pooled-mean")[1].tobytes() == pooled.tobytes()


def test_validation_rejects_nan():
    with pytest.raises(ValueError):
        pairs_from_arrays(np.array([[np.nan]]), np.array([[1.0]]))
