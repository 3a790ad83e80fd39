"""Batch front end: decompose, realize, regress, generate, check.

Subcommands
    dmd    snapshots -> eigenvalues.csv, modes.csv, report.txt
    era    Markov parameters -> poles.csv, realization CSVs, report.txt
    lim    snapshots -> green.csv, eigenvalues.csv, report.txt
    gen    reference signals -> snapshots CSV
    check  linear-consistency report for a pairing

File conventions
    Snapshot CSV: one state entry per row, one snapshot per column,
    optional single header row (skipped with --header). Values are
    written with repr(), so parsing a written file reproduces the exact
    float64 bits; identical config + inputs + seed give byte-identical
    outputs on the same numpy, scipy and BLAS build at the same BLAS
    thread count (another thread count may round products differently).
    Complex matrices (modes.csv, green.csv, realization blocks): rows
    interleave real and imaginary parts per state entry, row 2i holding
    Re(entry i) and row 2i+1 holding Im(entry i).

Exit codes
    0 success, 2 usage or conflicting flags, 3 input parse failure,
    4 dimension mismatch, 5 rank-zero data, 6 domain refusal
    (inconsistent request the library rejected, including nan/inf
    input values, a result that overflows float64, a non-finite --dt
    or --m-weight, a nan --rank-rtol, --rank-atol or --zero-tol, a
    --stride, --delay, --p or --q below 1, and pairs that are not one
    time series where --delay, --algorithm sequential or an amplitude
    scaling needs one), 1 unexpected error.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import era as era_mod
from . import generators as gen_mod
from . import lim as lim_mod
from .dmd import _decompose, _rates, linear_consistency, spectrum
from .errors import (
    ConfigError,
    DimensionError,
    DmdkitError,
    ParseError,
    RankZeroError,
)
from .linalg import _followers, _index, eig_dense
from .pairs import (
    delay_embed,
    pairs_from_arrays,
    pairs_from_sequence,
    pairs_from_strided,
    pairs_from_trajectories,
    subtract_mean,
)
from .scaling import scale_amplitudes

__all__ = ["main", "build_parser"]


def _fmt(x: float) -> str:
    return repr(float(x))


def read_matrix(path: str, header: bool = False) -> np.ndarray:
    """Parse a snapshot CSV into a float64 matrix (rows = state entries).

    Blank lines are ignored and the header, when requested, is the first
    non-blank line. ``np.loadtxt`` parses the table; when it refuses
    one, the rows are re-scanned one by one, so the error names the
    offending row (and tokens only Python's ``float`` accepts still
    parse, as they always did).
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [ln.strip() for ln in fh]
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    lines = [ln for ln in lines if ln]
    if header:
        lines = lines[1:]
    if not lines:
        raise ParseError(f"{path}: no data rows")
    try:
        return np.loadtxt(lines, delimiter=",", comments=None, ndmin=2, dtype=np.float64)
    except ValueError:
        pass
    rows = []
    width = None
    for idx, ln in enumerate(lines):
        tokens = ln.split(",")
        if width is None:
            width = len(tokens)
        elif len(tokens) != width:
            raise ParseError(
                f"{path}: row {idx + 1} has {len(tokens)} fields, expected {width}"
            )
        try:
            rows.append([float(tok) for tok in tokens])
        except ValueError as exc:
            raise ParseError(f"{path}: row {idx + 1} is not numeric: {exc}") from exc
    return np.array(rows, dtype=np.float64)


def _write_rows(path: str, rows, header: list[str] | None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        if header is not None:
            fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def write_real_matrix(path: str, mat: np.ndarray, header: list[str] | None = None) -> None:
    _write_rows(path, (map(repr, row) for row in np.atleast_2d(mat).tolist()), header)


def write_complex_matrix(path: str, mat: np.ndarray, header: list[str] | None = None) -> None:
    """Write a complex matrix with interleaved Re/Im rows per entry.

    A column whose bits conjugate the column before it reuses that leader's
    text, sign-flipped in the Im rows: repr(-x) is "-" + repr(x), or
    repr(x)[1:] for negative x, for every float but nan, so no nan Im leads.
    """
    z = np.ascontiguousarray(np.atleast_2d(mat), dtype=np.complex128)
    bits, conj_bits = z.view(np.int64), z.conj().view(np.int64)  # (Re, Im) per entry
    same = (bits[:, 2:] == conj_bits[:, :-2]).all(axis=0).reshape(-1, 2).all(axis=1)
    conj_next = np.zeros(z.shape[1], dtype=bool)
    conj_next[:-1] = same & ~np.isnan(z.imag[:, :-1]).any(axis=0)
    follower = _followers(conj_next)
    cols = list(zip((np.cumsum(~follower) - 1).tolist(), follower.tolist()))

    def rows():
        for re_row, im_row in zip(z.real[:, ~follower].tolist(), z.imag[:, ~follower].tolist()):
            re_txt, im_txt = list(map(repr, re_row)), list(map(repr, im_row))
            neg_txt = [t[1:] if t[0] == "-" else "-" + t for t in im_txt]
            yield [re_txt[i] for i, _ in cols]
            yield [(neg_txt if f else im_txt)[i] for i, f in cols]

    _write_rows(path, rows(), header)


def _write_report(path: str, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _tol_str(value: float | None) -> str:
    return "default" if value is None else _fmt(value)


def _build_pairs(config: argparse.Namespace):
    """Read the inputs as snapshot pairs, delay-embedded, then centred.

    Only the flag combinations are checked here. The --stride and
    --delay values and the time order that --delay needs are left to
    :mod:`dmdkit.pairs`.
    """
    if config.pairing == "strided":
        if config.stride is None:
            raise ConfigError("--pairing strided requires --stride")
    elif config.stride is not None:
        raise ConfigError("--stride only applies to --pairing strided")
    n_inputs = len(config.inputs)
    if config.pairing == "paired":
        if n_inputs != 2:
            raise ConfigError("--pairing paired takes exactly two inputs (x, y)")
    elif config.pairing != "multi-run" and n_inputs != 1:
        raise ConfigError(f"--pairing {config.pairing} takes exactly one input")
    if not n_inputs:
        raise ConfigError("at least one --input is required")
    arrays = [read_matrix(p, config.header) for p in config.inputs]
    if config.pairing == "sequential":
        pairs = pairs_from_sequence(arrays[0], dt=config.dt)
    elif config.pairing == "strided":
        pairs = pairs_from_strided(arrays[0], config.stride, dt=config.dt)
    elif config.pairing == "paired":
        pairs = pairs_from_arrays(arrays[0], arrays[1], dt=config.dt)
    else:
        pairs = pairs_from_trajectories(arrays, dt=config.dt)
    pairs = delay_embed(pairs, config.delay)
    if config.mean == "none":
        return pairs
    return subtract_mean(pairs, "x-mean" if config.mean == "x" else "pooled-mean")[0]


def _sorted_eigenvalues(mat: np.ndarray) -> np.ndarray:
    """Eigenvalues of a small matrix, descending |lambda| then ascending arg."""
    lam = eig_dense(mat).values
    return lam[np.lexsort((np.angle(lam), -np.abs(lam)))]


def _write_eigenvalue_table(path: str, lam: np.ndarray, columns: dict) -> None:
    """One row per eigenvalue: re, im, magnitude, then the named ``columns``.

    The magnitude is taken one value at a time, as :func:`spectrum` does;
    numpy's vectorised complex abs can differ from it in the last bit.
    """
    magnitude = [abs(v) for v in lam]
    table = np.column_stack([lam.real, lam.imag, magnitude, *columns.values()])
    write_real_matrix(path, table, header=["re", "im", "magnitude", *columns])


def _run_dmd(config: argparse.Namespace) -> None:
    pairs = _build_pairs(config)
    consistency = linear_consistency(
        pairs, rtol=config.rank_rtol, atol=config.rank_atol
    )
    dec = _decompose(config.algorithm, pairs, config.rank_rtol, config.rank_atol,
                     config.zero_tol, config.include_zero_modes)
    if config.scaling != "unit-norm":  # every decomposition is unit-norm
        dec = scale_amplitudes(dec, pairs, method=config.scaling.split("-")[1])
    points = spectrum(dec, dt=config.dt, m_weight=config.m_weight)

    columns = {
        name: [getattr(pt, name) for pt in points]
        for name in ("frequency", "growth_continuous", "mode_norm", "weighted_norm")
    }
    if dec.amplitudes is not None:
        columns.update(amplitude_re=dec.amplitudes.real, amplitude_im=dec.amplitudes.imag)
    os.makedirs(config.output_dir, exist_ok=True)
    _write_eigenvalue_table(
        os.path.join(config.output_dir, "eigenvalues.csv"), dec.eigenvalues, columns
    )
    write_complex_matrix(
        os.path.join(config.output_dir, "modes.csv"),
        dec.modes,
        header=[f"mode_{j + 1}" for j in range(dec.n_modes)],
    )
    lines = [
        "command: dmd",
        f"inputs: {', '.join(config.inputs)}",
        f"pairing: {config.pairing}",
        f"delay: {config.delay}",
        f"mean: {config.mean}",
        f"algorithm: {config.algorithm}",
        f"scaling: {dec.scaling}",
        f"state_dimension: {pairs.n_states}",
        f"pair_count: {pairs.n_pairs}",
        f"rank: {dec._svd.rank}",
        f"rank_truncation_tol: {_fmt(dec._svd.truncation_tol)}",
        f"rank_rtol: {_tol_str(config.rank_rtol)}",
        f"rank_atol: {_tol_str(config.rank_atol)}",
        f"zero_tol: {_tol_str(config.zero_tol)}",
        f"modes: {dec.n_modes}",
        f"dt: {_fmt(config.dt)}",
        f"m_weight: {_fmt(config.m_weight)}",
        f"consistency_defect: {_fmt(consistency.defect)}",
        f"consistency_residual: {_fmt(consistency.residual)}",
        f"linearly_consistent: {'yes' if consistency.consistent else 'no'}",
        f"consistency_tol: {_fmt(consistency.tol)}",
    ]
    if dec.amplitude_residual is not None:
        lines.append(f"amplitude_residual: {_fmt(dec.amplitude_residual)}")
    if dec.warnings:
        for w in dec.warnings:
            lines.append(f"warning: {w}")
    else:
        lines.append("warnings: none")
    _write_report(os.path.join(config.output_dir, "report.txt"), lines)


def _run_check(config: argparse.Namespace) -> None:
    pairs = _build_pairs(config)
    report = linear_consistency(pairs, rtol=config.rank_rtol, atol=config.rank_atol)
    lines = [
        "command: check",
        f"inputs: {', '.join(config.inputs)}",
        f"pairing: {config.pairing}",
        f"delay: {config.delay}",
        f"state_dimension: {pairs.n_states}",
        f"pair_count: {pairs.n_pairs}",
        f"rank: {report.rank}",
        f"consistency_defect: {_fmt(report.defect)}",
        f"consistency_residual: {_fmt(report.residual)}",
        f"linearly_consistent: {'yes' if report.consistent else 'no'}",
        f"consistency_tol: {_fmt(report.tol)}",
    ]
    if not report.consistent and pairs._is_series:  # --delay needs pairs in one time series
        lines.append(
            "hint: no linear map sends each x_k to y_k; part of y falls outside "
            "what x can predict. Stacking consecutive snapshots usually repairs "
            "this; try --delay 2."
        )
    for ln in lines:
        print(ln)
    os.makedirs(config.output_dir, exist_ok=True)
    _write_report(os.path.join(config.output_dir, "report.txt"), lines)


def _run_era(config: argparse.Namespace) -> None:
    if len(config.inputs) != 1:
        raise ConfigError("era takes exactly one --input (Markov CSV)")
    raw = read_matrix(config.inputs[0], config.header)
    q, p = _index(config.q, "q", 1), _index(config.p, "p", 1)
    if q * p == 1 and raw.shape[0] > 1 and raw.shape[1] == 1:
        raw = raw.T  # scalar sequence written one value per line
    if raw.shape[0] != q * p:
        raise DimensionError(
            f"Markov CSV has {raw.shape[0]} rows, expected q*p = {q * p} "
            "(one column-major vectorized block per column)"
        )
    blocks = raw.T.reshape(-1, p, q).transpose(0, 2, 1)  # column-major blocks
    seq = era_mod.markov_from_blocks(blocks, stride=config.stride)
    hankel = era_mod._hankel_pair(*era_mod.build_hankel(seq, m_c=config.mc, m_o=config.mo))
    real = era_mod._realize(hankel, config.order, p, q, config.rank_rtol, config.rank_atol)
    report = era_mod._similarity(hankel, config.rank_rtol, config.rank_atol)

    os.makedirs(config.output_dir, exist_ok=True)
    poles = _sorted_eigenvalues(real.a_r)
    _write_eigenvalue_table(os.path.join(config.output_dir, "poles.csv"), poles, {})
    write_complex_matrix(os.path.join(config.output_dir, "a_r.csv"), real.a_r)
    write_complex_matrix(os.path.join(config.output_dir, "b_r.csv"), real.b_r)
    write_complex_matrix(os.path.join(config.output_dir, "c_r.csv"), real.c_r)
    write_complex_matrix(os.path.join(config.output_dir, "d_r.csv"), real.d_r)
    lines = [
        "command: era",
        f"inputs: {', '.join(config.inputs)}",
        f"block_rows_q: {q}",
        f"block_cols_p: {p}",
        f"stride: {config.stride}",
        f"markov_count: {len(seq.params)}",
        f"hankel_shape: {hankel.x.shape[0]}x{hankel.x.shape[1]}",
        f"order: {real.order}",
        f"hankel_rank: {report.order}",
        f"poles: {len(poles)}",
        f"dmd_eigenvalue_mismatch: {_fmt(report.max_eigenvalue_mismatch)}",
        f"eigenvector_map_residual: {_fmt(report.max_map_residual)}",
    ]
    _write_report(os.path.join(config.output_dir, "report.txt"), lines)


def _run_lim(config: argparse.Namespace) -> None:
    pairs = _build_pairs(config)
    model = lim_mod.lim_model(
        pairs, force=config.force, rtol=config.rank_rtol, atol=config.rank_atol
    )
    equiv = lim_mod.lim_dmd_equivalence(
        pairs, force=config.force, rtol=config.rank_rtol, atol=config.rank_atol
    )

    lam = _sorted_eigenvalues(model.green)
    frequency, growth = zip(*(_rates(v, config.dt) for v in lam))
    os.makedirs(config.output_dir, exist_ok=True)
    write_complex_matrix(os.path.join(config.output_dir, "green.csv"), model.green)
    _write_eigenvalue_table(
        os.path.join(config.output_dir, "eigenvalues.csv"), lam,
        {"frequency": frequency, "growth_continuous": growth},
    )
    lines = [
        "command: lim",
        f"inputs: {', '.join(config.inputs)}",
        f"pairing: {config.pairing}",
        f"mean: {config.mean}",
        f"force: {'yes' if config.force else 'no'}",
        f"state_dimension: {pairs.n_states}",
        f"pair_count: {pairs.n_pairs}",
        f"eof_count: {model.eofs.shape[1]}",
        f"lag_tau: {_fmt(config.dt)}",
        f"propagator_vs_reduced_operator_max_abs_diff: {_fmt(equiv.max_abs_diff)}",
        f"equivalence_tol: {_fmt(equiv.tol)}",
        f"equivalent: {'yes' if equiv.equivalent else 'no'}",
    ]
    _write_report(os.path.join(config.output_dir, "report.txt"), lines)


def _run_gen(config: argparse.Namespace) -> None:
    out_dir = os.path.dirname(config.output)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    kind = config.kind
    if kind == "ar1":
        z = gen_mod.gen_ar1(
            config.decay, config.sigma2, config.steps, config.seed, z0=config.z0
        )
        data = z[None, :]
    elif kind in ("standing-wave", "planar-rotation"):
        q = np.random.default_rng(config.seed).standard_normal(config.dim)
        fn = (
            gen_mod.gen_standing_wave
            if kind == "standing-wave"
            else gen_mod.gen_planar_rotation
        )
        data = fn(config.theta, q, config.steps)
    elif kind == "random-linear":
        mat, data = gen_mod.gen_random_linear(
            config.dim, config.steps, config.seed,
            spectral_radius=config.spectral_radius,
        )
        write_real_matrix(os.path.join(out_dir or ".", "system_matrix.csv"), mat)
    else:  # two-timescale
        data = gen_mod.gen_two_timescale(
            config.f_fast,
            config.f_slow,
            config.steps,
            config.seed,
            decay_fast=config.decay_fast,
            decay_slow=config.decay_slow,
            n=config.dim,
            dt=config.dt,
            amplitudes=(config.amp_fast, config.amp_slow),
        )
    write_real_matrix(config.output, data)


def _add_common_io(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--input", action="append", default=[], dest="inputs",
                     help="input CSV; repeat for multi-run or paired data")
    sub.add_argument("--output-dir", default=".", help="directory for output files")
    sub.add_argument("--header", action="store_true",
                     help="inputs carry one header row to skip")
    sub.add_argument("--rank-rtol", type=float, default=None)
    sub.add_argument("--rank-atol", type=float, default=None)


def _add_pairing(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--pairing", default="sequential",
                     choices=["sequential", "strided", "paired", "multi-run"])
    sub.add_argument("--stride", type=int, default=None,
                     help="coarse anchor spacing P for --pairing strided")
    sub.add_argument("--delay", type=int, default=1,
                     help="stack this many consecutive snapshots per column")
    sub.add_argument("--mean", default="none", choices=["none", "x", "pooled"],
                     help="subtract the column mean before decomposing")
    sub.add_argument("--dt", type=float, default=1.0,
                     help="time advanced per snapshot pair")


def _model_order(text: str) -> int | None:
    """--order value: an integer, or None for "full" (the numerical rank)."""
    if text == "full":
        return None
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError('must be an integer or "full"') from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dmdkit",
        description="Modal decompositions of snapshot data, plus system "
                    "realization and linear inverse modeling on the same pairs.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_dmd = subs.add_parser("dmd", help="decompose snapshot pairs")
    _add_common_io(p_dmd)
    _add_pairing(p_dmd)
    p_dmd.add_argument("--algorithm", default="exact",
                       choices=["exact", "projected", "qr", "sequential"])
    p_dmd.add_argument("--scaling", default="unit-norm",
                       choices=["unit-norm", "amplitude-qr", "amplitude-gram"])
    p_dmd.add_argument("--zero-tol", type=float, default=None)
    p_dmd.add_argument("--include-zero-modes", action="store_true")
    p_dmd.add_argument("--m-weight", type=float, default=0.0,
                       help="weight mode norms by |lambda|^m_weight")
    p_dmd.set_defaults(run=_run_dmd)

    p_era = subs.add_parser("era", help="realize a state-space model from Markov data")
    _add_common_io(p_era)
    p_era.add_argument("--p", type=int, default=1, help="inputs per Markov block")
    p_era.add_argument("--q", type=int, default=1, help="outputs per Markov block")
    p_era.add_argument("--stride", type=int, default=1,
                       help="subsample the impulse sequence at this spacing")
    p_era.add_argument("--mc", type=int, default=None,
                       help="Hankel block columns minus one")
    p_era.add_argument("--mo", type=int, default=None,
                       help="Hankel block rows minus one")
    p_era.add_argument("--order", type=_model_order, default="full",
                       help='model order, or "full" for the numerical rank')
    p_era.set_defaults(run=_run_era)

    p_lim = subs.add_parser("lim", help="fit the EOF-coefficient lag propagator")
    _add_common_io(p_lim)
    _add_pairing(p_lim)
    p_lim.set_defaults(mean="x", run=_run_lim)
    p_lim.add_argument("--force", action="store_true",
                       help="skip the mean-subtraction check")

    p_gen = subs.add_parser("gen", help="write a reference signal as snapshot CSV")
    p_gen.add_argument("--kind", required=True,
                       choices=["ar1", "standing-wave", "planar-rotation",
                                "random-linear", "two-timescale"])
    p_gen.add_argument("--output", default="snapshots.csv")
    p_gen.add_argument("--steps", type=int, default=100)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--decay", type=float, default=0.5,
                       help="ar1: the autoregressive coefficient")
    p_gen.add_argument("--sigma2", type=float, default=1.0,
                       help="ar1: noise variance")
    p_gen.add_argument("--z0", type=float, default=0.0, help="ar1: initial state")
    p_gen.add_argument("--theta", type=float, default=float(np.pi) / 4.0,
                       help="standing-wave/planar-rotation: phase advance per step")
    p_gen.add_argument("--dim", type=int, default=4,
                       help="state dimension (shape vector size)")
    p_gen.add_argument("--spectral-radius", type=float, default=0.9,
                       help="random-linear: |lambda| bound")
    p_gen.add_argument("--f-fast", type=float, default=1.0)
    p_gen.add_argument("--f-slow", type=float, default=0.1)
    p_gen.add_argument("--decay-fast", type=float, default=0.0)
    p_gen.add_argument("--decay-slow", type=float, default=0.0)
    p_gen.add_argument("--amp-fast", type=float, default=1.0)
    p_gen.add_argument("--amp-slow", type=float, default=1.0)
    p_gen.add_argument("--dt", type=float, default=0.1,
                       help="two-timescale: sampling interval")
    p_gen.set_defaults(run=_run_gen)

    p_chk = subs.add_parser("check", help="report whether the pairing is linearly consistent")
    _add_common_io(p_chk)
    _add_pairing(p_chk)
    p_chk.set_defaults(run=_run_check)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with np.errstate(over="raise"):
            args.run(args)
        return 0
    except ConfigError as exc:
        print(f"error[usage]: {exc}", file=sys.stderr)
        return 2
    except ParseError as exc:
        print(f"error[parse]: {exc}", file=sys.stderr)
        return 3
    except DimensionError as exc:
        print(f"error[dimension]: {exc}", file=sys.stderr)
        return 4
    except RankZeroError as exc:
        print(f"error[rank-zero]: {exc}", file=sys.stderr)
        return 5
    except (DmdkitError, ValueError, FloatingPointError) as exc:
        print(f"error[domain]: {exc}", file=sys.stderr)
        return 6
    except Exception as exc:  # pragma: no cover - safety net
        print(f"error[internal]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
