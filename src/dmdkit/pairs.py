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

Pairs own read-only, C-ordered copies of x and y. Their data never
changes, so the coordinates every library call on them runs in, and
the factors of those coordinates, are built once, on first use, and
held as plain attributes (see :func:`_frame`); pairs from any
constructor share one memory layout, so they give the same bits.

Columns are snapshots everywhere in this package.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .errors import DimensionError
from .linalg import _as_matrix, _column_mean, _factor, _numeric_2d, _qr, _working_dtype

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

    The pairs hold their own read-only, C-ordered copies of x and y, so
    a later write into the arrays they were built from does not reach
    them, and a write into ``pairs.x`` or ``pairs.y`` is refused: pairs
    for changed data are new pairs. Nothing else is recorded: whether
    the pairs form one time series is read from x and y where it matters.

    Attributes:
        x: (n, m) matrix of pre-images.
        y: (n, m) matrix of images, same shape as x.
        dt: time advanced by one application of the map, if known;
            finite and positive when given.
    """

    x: np.ndarray
    y: np.ndarray
    dt: float | None = None
    # The coordinates of x and y (see _frame), shared by the library calls on these pairs.
    _coordinates: _Frame | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        for name in ("x", "y"):
            own = np.array(_numeric_2d(getattr(self, name), name), order="C")
            own.flags.writeable = False
            object.__setattr__(self, name, own.view())  # numpy lets only the owner be made writeable
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


@dataclass(frozen=True)
class _Frame:
    """Pairs in the coordinates of an orthonormal basis q: x = q @ self.x, y = q @ self.y.

    ``q`` is None where x and y are their own coordinates. ``shape`` is
    the data's own (n, m), at which rank rules are taken. The pairs'
    data never changes, so the factors of x and the lifts are held with
    no key.
    """

    q: np.ndarray | None
    x: np.ndarray
    y: np.ndarray
    shape: tuple[int, int]
    lifts: dict = field(default_factory=dict)  # rank r -> q @ [u b], see lift

    @cached_property
    def factors(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The SVD of ``self.x``, factored on first use (see :func:`~dmdkit.linalg._held_in`)."""
        return _factor(self.x)

    def lift(self, u: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``q @ u`` and ``q @ b`` by one read-only product; u and b themselves if q is None.

        u and b are the rank-r basis of x's factors and y v / sigma, both
        fixed by r, so the product is held per rank.
        """
        if self.q is None:
            return u, b
        r = u.shape[1]
        if r not in self.lifts:
            lifted = self.q @ np.concatenate([u, b], axis=1)
            lifted.flags.writeable = False
            self.lifts[r] = lifted[:, :r], lifted[:, r:]
        return self.lifts[r]


def _frame(pairs: SnapshotPairs, *, compress: bool = True) -> _Frame:
    """The coordinates every request on ``pairs`` runs in, built on first use.

    A tall series (n > m + 1 states, and x[:, 1:] == y[:, :-1]) lies in
    the span of its m + 1 snapshots z = [x, y[:, -1]]. It is factored
    once as a thin QR, z = q r, and runs on r[:, :-1] and r[:, 1:]. Any
    other pairs, and pairs first held with ``compress=False``, are their
    own coordinates. Threads sharing the pairs may each build them, and
    each leaves valid coordinates.
    """
    if pairs._coordinates is not None:
        return pairs._coordinates
    n, m = pairs.x.shape
    if compress and n > m + 1 and np.array_equal(pairs.x[:, 1:], pairs.y[:, :-1]):
        z = np.empty((n, m + 1), _working_dtype(pairs.x, pairs.y), order="F")  # LAPACK's layout
        z[:, :-1], z[:, -1] = pairs.x, pairs.y[:, -1]
        if not np.all(np.isfinite(z)):
            raise ValueError("the series contains non-finite entries")
        q, r = _qr(z)
        frame = _Frame(q, r[:, :-1], r[:, 1:], (n, m))
    else:
        frame = _Frame(None, pairs.x, pairs.y, (n, m))
    object.__setattr__(pairs, "_coordinates", frame)
    return frame


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
