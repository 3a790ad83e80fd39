"""Reference signal generators used by the tests and the CLI.

Randomness always flows through ``numpy.random.default_rng(seed)``
(PCG64), so every generator is bit-reproducible for a fixed seed across
runs and platforms. Snapshots come out columns-first, matching the rest
of the package; scalar processes come out as plain 1-D arrays.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "gen_ar1",
    "gen_standing_wave",
    "gen_planar_rotation",
    "gen_random_linear",
    "gen_two_timescale",
]


def _unit_steps(steps: int) -> np.ndarray:
    """Step indices 0..steps-1; every generator refuses fewer than 2 steps."""
    if steps < 2:
        raise ValueError("steps must be >= 2 (need at least one pair)")
    return np.arange(steps, dtype=np.float64)


def _nonzero_vector(q) -> np.ndarray:
    vec = np.asarray(q, dtype=np.float64).reshape(-1)
    if vec.size == 0 or not np.all(np.isfinite(vec)):
        raise ValueError("q must be a finite nonempty vector")
    if np.linalg.norm(vec) == 0.0:
        raise ValueError("q must be nonzero")
    return vec


def gen_ar1(lam: float, sigma2: float, steps: int, seed: int, *, z0: float = 0.0) -> np.ndarray:
    """Scalar AR(1) path z_{k+1} = lam z_k + noise, noise ~ N(0, sigma2).

    Returns ``steps`` snapshots starting at ``z0`` (0 by default, the
    stationary mean). sigma2 = 0 gives the deterministic decay.
    """
    if sigma2 < 0:
        raise ValueError("sigma2 must be nonnegative")
    _unit_steps(steps)
    rng = np.random.default_rng(seed)
    noise = np.sqrt(sigma2) * rng.standard_normal(steps - 1)
    z = np.empty(steps, dtype=np.float64)
    z[0] = z0
    for j in range(steps - 1):
        z[j + 1] = lam * z[j] + noise[j]
    return z


def gen_standing_wave(theta: float, q, steps: int) -> np.ndarray:
    """Snapshots z_k = cos(k theta) q, a fixed shape with oscillating sign.

    Rank-one data: no linear map on the snapshots alone explains it
    unless theta is a multiple of pi, which is exactly what makes it
    the canonical hard case for single-rank fits.
    """
    vec = _nonzero_vector(q)
    k = _unit_steps(steps)
    return np.outer(vec, np.cos(k * theta))


def gen_planar_rotation(theta: float, q, steps: int) -> np.ndarray:
    """Trajectory of the planar rotation whose top block is the standing wave.

    The state stacks u_k = cos(k theta) q over v_k = sin(k theta) q,
    the exact solution of (u, v) rotating by theta per step from
    (q, 0). Observing both blocks restores linearity; observing only u
    reproduces :func:`gen_standing_wave` bit for bit.
    """
    vec = _nonzero_vector(q)
    k = _unit_steps(steps)
    upper = np.outer(vec, np.cos(k * theta))
    lower = np.outer(vec, np.sin(k * theta))
    return np.concatenate([upper, lower], axis=0)


def gen_random_linear(
    n: int, steps: int, seed: int, *, spectral_radius: float = 0.9
) -> tuple[np.ndarray, np.ndarray]:
    """Random linear system and one of its trajectories.

    Draws a Gaussian matrix, rescales it so its largest eigenvalue
    magnitude equals ``spectral_radius``, and iterates from a Gaussian
    start. Returns (matrix, snapshots) with ``steps`` columns.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not spectral_radius > 0:
        raise ValueError("spectral_radius must be positive")
    _unit_steps(steps)
    rng = np.random.default_rng(seed)
    mat = rng.standard_normal((n, n))
    radius = float(np.max(np.abs(np.linalg.eigvals(mat))))
    if radius == 0.0:
        mat = np.eye(n)
        radius = 1.0
    mat = mat * (spectral_radius / radius)
    z = np.empty((n, steps), dtype=np.float64)
    z[:, 0] = rng.standard_normal(n)
    for j in range(steps - 1):
        z[:, j + 1] = mat @ z[:, j]
    return mat, z


def gen_two_timescale(
    f_fast: float,
    f_slow: float,
    steps: int,
    seed: int,
    *,
    decay_fast: float = 0.0,
    decay_slow: float = 0.0,
    n: int = 8,
    dt: float = 0.1,
    amplitudes: tuple[float, float] = (1.0, 1.0),
) -> np.ndarray:
    """Superposition of two damped oscillations on random fixed shapes.

    Component i contributes amplitudes[i] * exp(decay_i t) times a
    rotation at frequency f_i (cycles per unit time) between two random
    vectors, so the data is the exact trajectory of a linear system
    with eigenvalues exp((decay_i +- 2 pi i f_i) dt). Set one amplitude
    to zero for a single-frequency signal.

    Refuses frequencies at or beyond the sampling limit 1/(2 dt): they
    would alias onto slower ones and the recovered spectrum would be a
    lie rather than an approximation.
    """
    if not (f_fast > f_slow > 0):
        raise ValueError("need f_fast > f_slow > 0")
    if not dt > 0:
        raise ValueError("dt must be positive")
    if f_fast >= 0.5 / dt:
        raise ValueError(
            "f_fast = {:g} is at or beyond the Nyquist frequency {:g} for "
            "dt = {:g}; sample faster or lower the frequency".format(
                f_fast, 0.5 / dt, dt
            )
        )
    if n < 1:
        raise ValueError("n must be >= 1")
    t = _unit_steps(steps) * dt
    rng = np.random.default_rng(seed)
    z = np.zeros((n, steps), dtype=np.float64)
    for freq, decay, amp in (
        (f_fast, decay_fast, amplitudes[0]),
        (f_slow, decay_slow, amplitudes[1]),
    ):
        a_vec = rng.standard_normal(n)
        b_vec = rng.standard_normal(n)
        envelope = amp * np.exp(decay * t)
        phase = 2.0 * np.pi * freq * t
        z += np.outer(a_vec, envelope * np.cos(phase))
        z += np.outer(b_vec, envelope * np.sin(phase))
    return z
