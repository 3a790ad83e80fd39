"""Snapshot-pair assembly.

All decompositions consume a :class:`SnapshotPairs`: two equal-shaped
matrices x and y whose k-th columns are related by one application of
the (unknown) map under study. The constructors here cover the usual
ways such pairs arise: a single time series, a strided subsample of a
finer series, several independent runs, or pre-matched matrices. The
strided rule also picks the Markov blocks of :mod:`dmdkit.era`.

Pairs carry no record of how they were built. Whether they form one
time-ordered series, y_k = x_{k+1}, is read from the data itself
whenever it matters (delay embedding, amplitude fitting), so pairs from
any constructor, centred or not, qualify when their columns line up.

Columns are snapshots everywhere in this package.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DimensionError
from .linalg import _as_matrix, _column_mean, _numeric_2d

__all__ = [
    "SnapshotPairs",
    "snapshot_matrix",
    "pairs_from_arrays",
    "pairs_from_sequence",
    "pairs_from_strided",
    "pairs_from_trajectories",
    "embed_sequence",
    "delay_embed",
    "subtract_mean",
]

def snapshot_matrix(z, name: str = "snapshots") -> np.ndarray:
    """Coerce a snapshot collection to an (n, count) matrix.

    Accepts a 2-D array (columns already snapshots), a sequence of 1-D
    vectors, or a sequence of scalars (treated as 1-D states); a
    snapshot with more than one dimension is refused. Complex data
    comes back complex128 and everything else float64, so real
    snapshots are decomposed in real arithmetic.
    """
    if isinstance(z, np.ndarray) and z.ndim == 2:
        mat = z
    else:
        try:
            columns = iter(z)
        except TypeError:  # a scalar or a 0-d array
            raise DimensionError(f"{name} must be a sequence of snapshots, not {z!r}") from None
        try:
            snapshots = [np.atleast_1d(np.asarray(c)) for c in columns]
            if not snapshots:
                raise DimensionError(f"{name} is empty")
            if any(c.ndim > 1 for c in snapshots):
                raise DimensionError(f"{name}: snapshots must be scalars or 1-D vectors")
            mat = np.column_stack(snapshots)
        except ValueError as exc:
            raise DimensionError(f"{name}: snapshots have inconsistent lengths") from exc
    mat = _as_matrix(mat, name)
    if mat.size == 0:
        raise DimensionError(f"{name} is empty")
    return mat


@dataclass(frozen=True)
class SnapshotPairs:
    """Matched snapshot matrices x, y with y_k the image of x_k.

    Nothing else is recorded: whether the pairs form one time series
    is read from x and y where it matters.

    Attributes:
        x: (n, m) matrix of pre-images.
        y: (n, m) matrix of images, same shape as x.
        dt: time advanced by one application of the map, if known;
            finite and positive when given.
    """

    x: np.ndarray
    y: np.ndarray
    dt: float | None = None
    # The latest factors of x, shared by the library calls on these pairs.
    _factors_of_x: list = field(default_factory=list, init=False, compare=False, repr=False)

    def __post_init__(self):
        for name in ("x", "y"):  # an ndarray, views included, is kept as it is
            object.__setattr__(self, name, _numeric_2d(getattr(self, name), name))
        if self.x.shape != self.y.shape:
            raise DimensionError(
                f"x and y must have equal shapes, got {self.x.shape} and {self.y.shape}"
            )
        if self.x.shape[1] < 1:
            raise DimensionError("pairs need at least one column")
        if self.dt is not None and not (np.isfinite(self.dt) and self.dt > 0):
            raise ValueError("dt must be finite and positive when given")

    @property
    def n_states(self) -> int:
        return self.x.shape[0]

    @property
    def n_pairs(self) -> int:
        return self.x.shape[1]


def pairs_from_arrays(x, y, *, dt: float | None = None) -> SnapshotPairs:
    """Wrap pre-matched matrices as pairs."""
    return SnapshotPairs(x=snapshot_matrix(x, "x"), y=snapshot_matrix(y, "y"), dt=dt)


def pairs_from_sequence(z, *, dt: float | None = None) -> SnapshotPairs:
    """Pairs (z_k, z_{k+1}) from one time series of >= 2 snapshots."""
    mat = snapshot_matrix(z)
    if mat.shape[1] < 2:
        raise DimensionError("a sequence needs at least 2 snapshots")
    return SnapshotPairs(x=mat[:, :-1], y=mat[:, 1:], dt=dt)


def pairs_from_strided(z, stride: int, *, count: int | None = None, dt: float | None = None) -> SnapshotPairs:
    """Pairs (z_{kP}, z_{kP+1}) subsampled from a finer series.

    ``stride`` is P, the coarse spacing between pair anchors; each pair
    still spans a single fine step, so the one-step map is what gets
    estimated. ``count`` limits the number of pairs (default: as many as
    the series allows). ``dt`` remains the fine timestep.
    """
    mat = snapshot_matrix(z)
    total = mat.shape[1]
    if stride < 1:
        raise ValueError("stride must be >= 1")
    max_count = (total - 2) // stride + 1 if total >= 2 else 0
    if max_count < 1:
        raise DimensionError(
            f"series of {total} snapshots has no room for stride {stride}"
        )
    m = max_count if count is None else int(count)
    if m < 1 or m > max_count:
        raise DimensionError(
            f"count {m} outside 1..{max_count} for {total} snapshots at stride {stride}"
        )
    anchors = stride * np.arange(m)
    return SnapshotPairs(x=mat[:, anchors], y=mat[:, anchors + 1], dt=dt)


def pairs_from_trajectories(runs: list | tuple, *, dt: float | None = None) -> SnapshotPairs:
    """Concatenate the sequential pairs of several independent runs.

    Each run is an (n, count_j) snapshot matrix with count_j >= 2; the
    state dimension n must agree across runs, which share the timestep.
    """
    trajectories = [snapshot_matrix(t, f"trajectory {j}") for j, t in enumerate(runs)]
    if not trajectories:
        raise DimensionError("no trajectories given")
    n = trajectories[0].shape[0]
    for j, traj in enumerate(trajectories):
        if traj.shape[1] < 2:
            raise DimensionError(f"trajectory {j} needs at least 2 snapshots")
        if traj.shape[0] != n:
            raise DimensionError(f"trajectory {j} has {traj.shape[0]} states, expected {n}")
    return SnapshotPairs(
        x=np.concatenate([traj[:, :-1] for traj in trajectories], axis=1),
        y=np.concatenate([traj[:, 1:] for traj in trajectories], axis=1),
        dt=dt,
    )


def embed_sequence(z, depth: int) -> np.ndarray:
    """Stack ``depth`` consecutive snapshots into each embedded column.

    Column k of the result is [z_k; z_{k+1}; ...; z_{k+depth-1}], so a
    series of L snapshots embeds into L - depth + 1 columns of dimension
    n * depth.
    """
    mat = snapshot_matrix(z)
    if depth < 1:
        raise ValueError("depth must be >= 1")
    total = mat.shape[1]
    if total - depth + 1 < 2:
        raise DimensionError(
            f"series of {total} snapshots is too short for depth {depth}"
        )
    blocks = [mat[:, k : total - depth + 1 + k] for k in range(depth)]
    return np.concatenate(blocks, axis=0)


def _require_series(pairs: SnapshotPairs) -> None:
    """Raise ValueError unless the pairs form one time series.

    Pairs form one series when each image is the next pre-image,
    x[:, 1:] == y[:, :-1] exactly.
    """
    if not np.array_equal(pairs.x[:, 1:], pairs.y[:, :-1]):
        raise ValueError(
            "pairs are not one time-ordered series: x[:, 1:] differs from y[:, :-1]"
        )


def _series(pairs: SnapshotPairs) -> np.ndarray:
    """The time series z with x = z[:, :-1] and y = z[:, 1:] (see :func:`_require_series`)."""
    _require_series(pairs)
    return np.concatenate([pairs.x, pairs.y[:, -1:]], axis=1)


def delay_embed(pairs: SnapshotPairs, depth: int) -> SnapshotPairs:
    """Delay-embed time-ordered pairs with the given stacking depth.

    The underlying series is recovered from the pairs, which must form
    one (x[:, 1:] == y[:, :-1] exactly), embedded, and re-paired; the
    column count shrinks by depth - 1. depth=1 returns the input
    unchanged.
    """
    if depth == 1:
        return pairs
    return pairs_from_sequence(embed_sequence(_series(pairs), depth), dt=pairs.dt)


def subtract_mean(pairs: SnapshotPairs, mode: str = "x-mean") -> tuple[SnapshotPairs, np.ndarray]:
    """Remove a constant offset from both snapshot matrices.

    mode "x-mean" uses the column mean of x; "pooled-mean" averages the
    columns of x and y together. Returns the centered pairs and the mean
    that was removed (add it back to undo).
    """
    if mode == "x-mean":
        mean = _column_mean(pairs.x)
    elif mode == "pooled-mean":
        mean = _column_mean(np.concatenate([pairs.x, pairs.y], axis=1))
    else:
        raise ValueError(f"unknown mean mode {mode!r}")
    return (
        replace(pairs, x=pairs.x - mean[:, None], y=pairs.y - mean[:, None]),
        mean,
    )
