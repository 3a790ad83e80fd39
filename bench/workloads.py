"""The benchmark's workloads: seeded inputs, a reference, one op, its check.

Each workload builds its inputs from ``numpy.random.default_rng(seed)``,
so dmdkit only ever sees finished arrays or CSV files. At set-up it also
computes a reference with plain numpy/scipy (never dmdkit) that every
op's outputs are checked against. An *op* is one unit of user work.

Workloads
    cli_readme  one ``dmdkit dmd`` run on a snapshot CSV
                (800 states x 161 snapshots, full rank 160)
    lib_tall    the library routes on a tall in-memory trajectory
                (6000 states x 51 snapshots); no CSV at all
    crosscheck  ``dmdkit era`` on a 4x4-block impulse response, then
                ``dmdkit lim`` on a stochastically forced rank-60 system

``tiny=True`` shrinks every shape for the smoke test; the call pattern,
and so every call count, is the same as at full size.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import scipy.linalg
import scipy.optimize

from dmdkit import cli, dmd, pairs, scaling

# Eigenvalue agreement, as a multiple of max(1, max |lambda_ref|). Measured
# disagreement at full size is ~5e-11 (cli_readme), ~1e-12 (lib_tall) and
# ~5e-15 (crosscheck).
EIG_TOL = 1e-8
# Largest accepted `dmd_eigenvalue_mismatch` in the era report.
ERA_MISMATCH_TOL = 1e-8
# Default rank cutoff of dmdkit's reduced SVD, restated for the reference.
_EPS = float(np.finfo(np.float64).eps)

# Full shapes keep one op well under a second, so a run holds dozens of
# ops and its median does not hang on a few of them.
_SHAPES = {
    "cli_readme": {
        "full": dict(n=800, snapshots=161, order=160),
        "tiny": dict(n=40, snapshots=31, order=30),
    },
    "lib_tall": {
        "full": dict(n=6000, snapshots=51, order=50),
        "tiny": dict(n=200, snapshots=11, order=10),
    },
    "crosscheck": {
        "full": dict(era_order=40, io=4, blocks=151, lim_n=1000, lim_snapshots=201, lim_order=30),
        "tiny": dict(era_order=8, io=4, blocks=31, lim_n=100, lim_snapshots=41, lim_order=6),
    },
}


class CheckFailed(Exception):
    """An op's output disagrees with the reference."""


def stable_system(rng, order: int, rmin: float, rmax: float):
    """Real (order x order) matrix whose eigenvalues are conjugate pairs
    with moduli in [rmin, rmax), in a random orthonormal basis (so the
    eigenvector basis is well conditioned). Returns (matrix, eigenvalues).
    """
    half = order // 2
    mags = rng.uniform(rmin, rmax, half)
    angles = rng.uniform(0.05, np.pi - 0.05, half)
    c, s = mags * np.cos(angles), mags * np.sin(angles)
    blocks = np.zeros((order, order))
    i = 2 * np.arange(half)
    blocks[i, i], blocks[i, i + 1], blocks[i + 1, i], blocks[i + 1, i + 1] = c, -s, s, c
    basis, _ = np.linalg.qr(rng.standard_normal((order, order)))
    lam = mags * np.exp(1j * angles)
    return basis @ blocks @ basis.T, np.concatenate([lam, lam.conj()])


def trajectory(rng, a, snapshots: int, forcing: float = 0.0) -> np.ndarray:
    """Iterate s_{k+1} = a s_k + forcing * xi_k from a Gaussian start."""
    s = np.empty((a.shape[0], snapshots))
    s[:, 0] = rng.standard_normal(a.shape[0])
    kicks = forcing * rng.standard_normal((a.shape[0], snapshots - 1))
    for k in range(snapshots - 1):
        s[:, k + 1] = a @ s[:, k] + kicks[:, k]
    return s


def embed(rng, s: np.ndarray, n: int, noise: float = 0.0) -> np.ndarray:
    """Map low-dimensional states into n states through orthonormal columns."""
    basis, _ = np.linalg.qr(rng.standard_normal((n, s.shape[0])))
    z = basis @ s
    if noise:
        z += noise * rng.standard_normal(z.shape)
    return z


def write_csv(path: str, mat: np.ndarray) -> int:
    """Snapshot CSV with repr floats, which dmdkit parses back bit for bit."""
    text = "\n".join(",".join(map(repr, row)) for row in mat.tolist()) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return os.path.getsize(path)


def reference_eigenvalues(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Eigenvalues of the reduced operator u* y v / sigma, in float64,
    truncated at dmdkit's documented default cutoff max(n, m) eps sigma_1."""
    u, s, vh = np.linalg.svd(x, full_matrices=False)
    r = int(np.sum(s > max(x.shape) * _EPS * s[0]))
    a_tilde = (u[:, :r].T @ y @ vh[:r].T) / s[:r]
    return scipy.linalg.eigvals(a_tilde)


def reference_consistent(x: np.ndarray, y: np.ndarray, tol: float = 1e-10) -> bool:
    """Whether y lies in the row space of x (dmdkit's default tol)."""
    _, s, vh = np.linalg.svd(x, full_matrices=False)
    v = vh[: int(np.sum(s > max(x.shape) * _EPS * s[0]))].T
    return float(np.linalg.norm(y - (y @ v) @ v.T)) <= tol * float(np.linalg.norm(y))


def eig_mismatch(got, want) -> float:
    """Largest |difference| under the optimal one-to-one matching."""
    got, want = np.asarray(got), np.asarray(want)
    if got.shape != want.shape:
        raise CheckFailed(f"{got.size} eigenvalues, reference has {want.size}")
    cost = np.abs(got[:, None] - want[None, :])
    rows, cols = scipy.optimize.linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


def require_match(what: str, got, want) -> None:
    bound = EIG_TOL * max(1.0, float(np.max(np.abs(want))))
    diff = eig_mismatch(got, want)
    if not diff <= bound:
        raise CheckFailed(f"{what}: eigenvalue mismatch {diff:.3e} > {bound:.3e}")


def read_eigenvalues(path: str) -> np.ndarray:
    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return rows[:, 0] + 1j * rows[:, 1]


def read_report(path: str) -> dict[str, str]:
    with open(path, encoding="utf-8") as fh:
        return dict(ln.rstrip("\n").split(": ", 1) for ln in fh if ": " in ln)


def digest_dir(path: str, digest) -> int:
    """Feed every file under ``path`` (sorted) into ``digest``; return bytes."""
    total = 0
    for name in sorted(os.listdir(path)):
        digest.update(name.encode())
        with open(os.path.join(path, name), "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                digest.update(chunk)
                total += len(chunk)
    return total


class CliReadme:
    """One ``dmdkit dmd --scaling amplitude-qr`` run on a full-rank CSV."""

    def __init__(self, seed: int, workdir: str, tiny: bool = False):
        shape = _SHAPES["cli_readme"]["tiny" if tiny else "full"]
        rng = np.random.default_rng(seed)
        a, _ = stable_system(rng, shape["order"], 0.995, 0.9999)
        z = embed(rng, trajectory(rng, a, shape["snapshots"]), shape["n"], noise=1e-6)
        self.n = shape["n"]
        self.csv = os.path.join(workdir, "z.csv")
        self.out = os.path.join(workdir, "out")
        self.working_set_bytes = z.nbytes + write_csv(self.csv, z)
        x, y = z[:, :-1], z[:, 1:]
        self.ref_eigs = reference_eigenvalues(x, y)
        self.ref_consistent = reference_consistent(x, y)

    def op(self):
        return cli.main([
            "dmd", "--input", self.csv, "--dt", "0.1",
            "--scaling", "amplitude-qr", "--output-dir", self.out,
        ])

    def check(self, code) -> tuple[str, int]:
        if code != 0:
            raise CheckFailed(f"dmdkit dmd exited with {code}")
        lam = read_eigenvalues(os.path.join(self.out, "eigenvalues.csv"))
        require_match("eigenvalues.csv", lam, self.ref_eigs)
        with open(os.path.join(self.out, "modes.csv"), "rb") as fh:
            header = fh.readline().count(b",") + 1
            rows = sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b""))
        if header != len(lam) or rows != 2 * self.n:
            raise CheckFailed(
                f"modes.csv has {header} columns x {rows} rows, expected "
                f"{len(lam)} x {2 * self.n}"
            )
        verdict = read_report(os.path.join(self.out, "report.txt"))["linearly_consistent"]
        if verdict != ("yes" if self.ref_consistent else "no"):
            raise CheckFailed(f"report.txt says linearly_consistent: {verdict}")
        digest = hashlib.sha256()
        size = digest_dir(self.out, digest)
        return digest.hexdigest(), size


class LibTall:
    """All four routes plus diagnostics on a tall in-memory trajectory."""

    def __init__(self, seed: int, workdir: str, tiny: bool = False):
        shape = _SHAPES["lib_tall"]["tiny" if tiny else "full"]
        rng = np.random.default_rng(seed)
        a, _ = stable_system(rng, shape["order"], 0.98, 0.9999)
        self.z = embed(rng, trajectory(rng, a, shape["snapshots"]), shape["n"], noise=1e-6)
        self.working_set_bytes = self.z.nbytes
        x, y = self.z[:, :-1], self.z[:, 1:]
        self.ref_eigs = reference_eigenvalues(x, y)
        self.ref_consistent = reference_consistent(x, y)

    def op(self):
        p = pairs.pairs_from_sequence(self.z, dt=0.1)
        report = dmd.linear_consistency(p)
        routes = {
            "exact": dmd.exact_dmd(p),
            "projected": dmd.projected_dmd(p),
            "qr": dmd.exact_dmd_qr(p),
            "sequential": dmd.exact_dmd_sequential(self.z, dt=0.1),
        }
        scaled = scaling.scale_amplitudes(routes["exact"], p, method="gram")
        return report, routes, scaled, dmd.spectrum(scaled, dt=0.1)

    def check(self, result) -> tuple[str, int]:
        report, routes, scaled, points = result
        if report.consistent != self.ref_consistent:
            raise CheckFailed(f"linear_consistency says {report.consistent}")
        digest = hashlib.sha256()
        for name, dec in routes.items():
            require_match(name, dec.eigenvalues, self.ref_eigs)
            require_match(f"{name} vs exact", dec.eigenvalues, routes["exact"].eigenvalues)
            digest.update(dec.eigenvalues.tobytes() + dec.modes.tobytes())
        if len(points) != scaled.n_modes or not np.all(np.isfinite(scaled.amplitudes)):
            raise CheckFailed("spectrum or amplitudes incomplete")
        digest.update(scaled.amplitudes.tobytes())
        return digest.hexdigest(), 0


class Crosscheck:
    """``dmdkit era`` on impulse-response blocks, then ``dmdkit lim``."""

    def __init__(self, seed: int, workdir: str, tiny: bool = False):
        shape = _SHAPES["crosscheck"]["tiny" if tiny else "full"]
        rng = np.random.default_rng(seed)
        io = shape["io"]
        a, self.true_poles = stable_system(rng, shape["era_order"], 0.95, 0.995)
        b = rng.standard_normal((shape["era_order"], io))
        c = rng.standard_normal((io, shape["era_order"]))
        blocks, g = [], b
        for _ in range(shape["blocks"]):
            blocks.append((c @ g).reshape(-1, order="F"))
            g = a @ g
        markov = np.array(blocks).T
        a_lim, _ = stable_system(rng, shape["lim_order"], 0.8, 0.98)
        z = embed(rng, trajectory(rng, a_lim, shape["lim_snapshots"], forcing=1.0), shape["lim_n"])
        self.io = io
        self.markov_csv = os.path.join(workdir, "markov.csv")
        self.lim_csv = os.path.join(workdir, "lim.csv")
        self.era_out = os.path.join(workdir, "era")
        self.lim_out = os.path.join(workdir, "lim")
        self.working_set_bytes = (
            markov.nbytes + z.nbytes
            + write_csv(self.markov_csv, markov) + write_csv(self.lim_csv, z)
        )
        x = z[:, :-1]
        mean = x.mean(axis=1, keepdims=True)
        self.ref_lim_eigs = reference_eigenvalues(x - mean, z[:, 1:] - mean)

    def op(self):
        io = str(self.io)
        era = cli.main([
            "era", "--input", self.markov_csv, "--p", io, "--q", io,
            "--output-dir", self.era_out,
        ])
        lim = cli.main([
            "lim", "--input", self.lim_csv, "--mean", "x", "--output-dir", self.lim_out,
        ])
        return era, lim

    def check(self, codes) -> tuple[str, int]:
        if codes != (0, 0):
            raise CheckFailed(f"dmdkit era/lim exited with {codes}")
        era = read_report(os.path.join(self.era_out, "report.txt"))
        mismatch = float(era["dmd_eigenvalue_mismatch"])
        if not mismatch <= ERA_MISMATCH_TOL:
            raise CheckFailed(f"era dmd_eigenvalue_mismatch {mismatch:.3e}")
        require_match("poles.csv", read_eigenvalues(os.path.join(self.era_out, "poles.csv")),
                      self.true_poles)
        lim = read_report(os.path.join(self.lim_out, "report.txt"))
        if lim["equivalent"] != "yes":
            raise CheckFailed(f"lim report says equivalent: {lim['equivalent']}")
        require_match("lim eigenvalues.csv",
                      read_eigenvalues(os.path.join(self.lim_out, "eigenvalues.csv")),
                      self.ref_lim_eigs)
        digest = hashlib.sha256()
        size = digest_dir(self.era_out, digest) + digest_dir(self.lim_out, digest)
        return digest.hexdigest(), size


WORKLOADS = {"cli_readme": CliReadme, "lib_tall": LibTall, "crosscheck": Crosscheck}
