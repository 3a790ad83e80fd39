"""End-to-end tests for the command line interface."""

import contextlib
import io
import os
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmdkit import linalg
from dmdkit.cli import _write_eigenvalue_table, main, read_matrix, write_complex_matrix
from dmdkit.cli import write_real_matrix
from dmdkit.dmd import exact_dmd, exact_dmd_qr, exact_dmd_sequential, projected_dmd, spectrum
from dmdkit.errors import ParseError
from dmdkit.pairs import pairs_from_sequence, pairs_from_strided, pairs_from_trajectories


def _read_table(path):
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    return header, [[float(v) for v in row] for row in rows]


def _read_report(path):
    out = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if ":" in line:
                key, val = line.split(":", 1)
                out[key.strip()] = val.strip()
    return out


class TestMatrixIo:
    def test_real_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        mat = rng.standard_normal((4, 7)) * 10.0 ** rng.integers(-8, 8, size=(4, 7))
        path = str(tmp_path / "m.csv")
        write_real_matrix(path, mat)
        back = read_matrix(path)
        assert np.array_equal(back, mat)

    def test_header_skipped_on_request(self, tmp_path):
        path = str(tmp_path / "h.csv")
        write_real_matrix(path, np.eye(2), header=["a", "b"])
        assert read_matrix(path, header=True).shape == (2, 2)
        with pytest.raises(ParseError):
            read_matrix(path)

    def test_ragged_rows_rejected(self, tmp_path):
        path = str(tmp_path / "bad.csv")
        path_obj = tmp_path / "bad.csv"
        path_obj.write_text("1.0,2.0\n3.0\n")
        with pytest.raises(ParseError, match="row 2"):
            read_matrix(path)

    def test_round_trip_is_bit_exact_on_extreme_values(self, tmp_path):
        tiny = np.finfo(np.float64).smallest_subnormal
        mat = np.array([
            [tiny, -tiny, 2.2250738585072009e-308, np.finfo(np.float64).tiny],
            [-0.0, 0.0, np.finfo(np.float64).max, -np.finfo(np.float64).max],
            [0.1, 1.0 / 3.0, 2.0 / 3.0, 1.2345678901234567e-5],
        ])
        rng = np.random.default_rng(5)
        bits = rng.integers(0, 2**63, size=(3, 4), dtype=np.uint64)
        random = bits.view(np.float64)
        mat = np.vstack([mat, np.where(np.isfinite(random), random, 1.5)])
        path = str(tmp_path / "extreme.csv")
        write_real_matrix(path, mat)
        back = read_matrix(path)
        assert np.array_equal(back.view(np.uint64), mat.view(np.uint64))

    def test_header_is_the_first_non_blank_line(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("\n\nre,im\n\n1.5,2.5\n")
        assert np.array_equal(read_matrix(str(path), header=True), [[1.5, 2.5]])

    def test_ragged_row_is_named_after_header_and_blank_lines(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n\n3,4\n5,6,7\n")
        with pytest.raises(ParseError, match="row 3 has 3 fields, expected 2"):
            read_matrix(str(path), header=True)

    def test_non_numeric_token_names_its_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2\n3,oops\n")
        with pytest.raises(ParseError, match="row 2 is not numeric"):
            read_matrix(str(path))

    @pytest.mark.parametrize("name, text, header", [
        ("empty", "", False),
        ("blank-lines-only", "\n  \n", False),
        ("header-only", "a,b\n\n", True),
        ("ragged", "1,2\n3\n", False),
        ("non-numeric", "1,2\nx,4\n", False),
        ("empty-field", "1,,2\n", False),
        ("comment-line", "# written by hand\n1,2\n", False),
    ])
    def test_malformed_input_is_a_parse_error(self, tmp_path, name, text, header):
        path = tmp_path / f"{name}.csv"
        path.write_text(text)
        with pytest.raises(ParseError):
            read_matrix(str(path), header=header)
        argv = ["dmd", "--input", str(path)] + (["--header"] if header else [])
        assert main(argv) == 3

    def test_missing_file_is_a_parse_error(self, tmp_path):
        with pytest.raises(ParseError, match="cannot read"):
            read_matrix(str(tmp_path / "absent.csv"))

    def test_complex_matrix_interleaves_rows(self, tmp_path):
        mat = np.array([[1.0 + 2.0j, 3.0 - 4.0j]])
        path = str(tmp_path / "c.csv")
        write_complex_matrix(path, mat)
        raw = read_matrix(path)
        assert raw.shape == (2, 2)
        assert np.array_equal(raw[0], [1.0, 3.0])   # real row
        assert np.array_equal(raw[1], [2.0, -4.0])  # imaginary row


def _reference_complex_text(mat, header=None):
    """The interleaved Re/Im CSV written with one repr per entry."""
    mat = np.atleast_2d(mat)
    lines = [] if header is None else [",".join(header)]
    for re_row, im_row in zip(mat.real.tolist(), mat.imag.tolist()):
        lines += [",".join(map(repr, re_row)), ",".join(map(repr, im_row))]
    return "".join(line + "\n" for line in lines)


def _pair_columns(*cols):
    return np.column_stack([np.asarray(c, dtype=complex) for c in cols])


_A = np.array([0.3 - 1.25j, -2.0 + 0.5j, 1e-300 - 7.0j])
_R = np.array([1.5, -0.25, 3.0]) + 0j
_NEG_ZERO = complex(-0.0, 0.0)
_WRITER_CASES = {
    "conjugate-pairs": _pair_columns(_A, _A.conj(), _R, _A[::-1], _A[::-1].conj()),
    "alternating-chain": _pair_columns(_A, _A.conj(), _A, _A.conj(), _A),
    "identical-real-columns": _pair_columns(_R, _R, _R),
    "self-conjugate-column": _pair_columns(_R, _R.conj(), _R.conj()),
    # Columns 1 and 2 are conjugate under == but not bit for bit, which a
    # writer testing with == misprints; column 3 is the bitwise conjugate of 2.
    "signed-zeros": _pair_columns(
        [_NEG_ZERO, complex(0.0, -0.0), 1.0 + 2.0j],
        [complex(0.0, -0.0), _NEG_ZERO, 1.0 - 2.0j],
        [complex(0.0, 0.0), complex(-0.0, -0.0), 1.0 + 2.0j],
    ),
    "inf-nan-subnormal": _pair_columns(
        [complex(np.inf, -np.inf), complex(5e-324, 5e-324), complex(-np.inf, np.inf)],
        [complex(np.inf, np.inf), complex(5e-324, -5e-324), complex(-np.inf, -np.inf)],
        [complex(np.nan, 1.0), complex(-5e-324, np.nan), 2.0j],
        [complex(np.nan, -1.0), complex(-5e-324, -np.nan), complex(0.0, -2.0)],
    ),
    "repr-switch-points": _pair_columns(
        [1e16 + 1e-5j, -1e-5 - 1e16j, 9999999999999998.0 + 0.0001j],
        [1e16 - 1e-5j, -1e-5 + 1e16j, 9999999999999998.0 - 0.0001j],
    ),
    "one-column": _pair_columns(_A),
    "zero-columns": np.zeros((3, 0), dtype=complex),
}


class TestComplexWriter:
    @pytest.mark.parametrize("with_header", [False, True])
    @pytest.mark.parametrize("name", sorted(_WRITER_CASES))
    def test_bytes_equal_one_repr_per_entry(self, tmp_path, name, with_header):
        mat = _WRITER_CASES[name]
        header = [f"mode_{j + 1}" for j in range(mat.shape[1])] if with_header else None
        path = tmp_path / "m.csv"
        write_complex_matrix(str(path), mat, header)
        assert path.read_bytes() == _reference_complex_text(mat, header).encode("utf-8")


class TestGenerateCommand:
    def test_writes_snapshot_file(self, tmp_path):
        out = str(tmp_path / "z.csv")
        code = main(["gen", "--kind", "ar1", "--steps", "40", "--seed", "3",
                     "--decay", "0.5", "--sigma2", "2.0", "--output", out])
        assert code == 0
        assert read_matrix(out).shape == (1, 40)

    def test_random_linear_emits_system_matrix(self, tmp_path):
        out = str(tmp_path / "z.csv")
        code = main(["gen", "--kind", "random-linear", "--dim", "4", "--steps", "12",
                     "--seed", "1", "--output", out])
        assert code == 0
        mat = read_matrix(str(tmp_path / "system_matrix.csv"))
        z = read_matrix(out)
        assert mat.shape == (4, 4)
        for k in range(z.shape[1] - 1):
            assert np.allclose(mat @ z[:, k], z[:, k + 1], atol=1e-12)

    def test_random_linear_creates_the_output_directory(self, tmp_path):
        out = tmp_path / "new_dir" / "z.csv"
        code = main(["gen", "--kind", "random-linear", "--dim", "4", "--steps", "12",
                     "--seed", "1", "--output", str(out)])
        assert code == 0
        assert read_matrix(str(out)).shape == (4, 12)
        assert read_matrix(str(out.parent / "system_matrix.csv")).shape == (4, 4)

    def test_reruns_are_byte_identical(self, tmp_path):
        a = str(tmp_path / "a.csv")
        b = str(tmp_path / "b.csv")
        argv = ["gen", "--kind", "two-timescale", "--steps", "50", "--seed", "8",
                "--f-fast", "1.1", "--f-slow", "0.2"]
        assert main(argv + ["--output", a]) == 0
        assert main(argv + ["--output", b]) == 0
        assert Path(a).read_bytes() == Path(b).read_bytes()


def _series_csv(tmp_path):
    """A two-timescale series: 8 states, 60 snapshots, rank 4."""
    src = str(tmp_path / "z.csv")
    main(["gen", "--kind", "two-timescale", "--steps", "60", "--seed", "5",
          "--f-fast", "1.2", "--f-slow", "0.3", "--decay-fast", "-0.1",
          "--dim", "8", "--output", src])
    return src


def _wide_or_tall_csv(tmp_path, series):
    """The README's two-timescale series (8 x 60), or a tall random-linear one (40 x 12)."""
    src = str(tmp_path / "z.csv")
    main(["gen", "--output", src, *(
        ["--kind", "two-timescale", "--steps", "60", "--seed", "5", "--dim", "8"]
        if series == "wide" else ["--kind", "random-linear", "--dim", "40", "--steps", "12"])])
    return src


class TestDmdCommand:
    def test_end_to_end_files_and_values(self, tmp_path):
        src = _series_csv(tmp_path)
        outdir = str(tmp_path / "out")
        code = main(["dmd", "--input", src, "--output-dir", outdir,
                     "--dt", "0.1", "--scaling", "amplitude-qr"])
        assert code == 0
        header, rows = _read_table(os.path.join(outdir, "eigenvalues.csv"))
        assert header[:2] == ["re", "im"]
        assert "amplitude_re" in header
        assert len(rows) == 4
        freqs = sorted(abs(r[header.index("frequency")]) for r in rows)
        assert abs(freqs[0] - 0.3) < 1e-9
        assert abs(freqs[3] - 1.2) < 1e-9
        report = _read_report(os.path.join(outdir, "report.txt"))
        assert report["rank"] == "4"
        assert report["linearly_consistent"] == "yes"
        assert float(report["amplitude_residual"]) < 1e-10
        modes = read_matrix(os.path.join(outdir, "modes.csv"), header=True)
        assert modes.shape == (16, 4)   # 8 states, re/im rows interleaved

    def test_rerun_is_byte_identical(self, tmp_path):
        src = _series_csv(tmp_path)
        d1 = str(tmp_path / "o1")
        d2 = str(tmp_path / "o2")
        for d in (d1, d2):
            assert main(["dmd", "--input", src, "--output-dir", d]) == 0
        for name in ("eigenvalues.csv", "modes.csv", "report.txt"):
            assert Path(d1, name).read_bytes() == Path(d2, name).read_bytes()

    def test_unit_norm_scaling_is_the_default(self, tmp_path):
        src = _series_csv(tmp_path)
        plain = tmp_path / "plain"
        unit = tmp_path / "unit"
        assert main(["dmd", "--input", src, "--output-dir", str(plain)]) == 0
        assert main(["dmd", "--input", src, "--output-dir", str(unit),
                     "--scaling", "unit-norm"]) == 0
        for name in ("eigenvalues.csv", "modes.csv", "report.txt"):
            assert (plain / name).read_bytes() == (unit / name).read_bytes()

    def test_scaling_none_is_a_usage_error(self, tmp_path):
        src = _series_csv(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["dmd", "--input", src, "--output-dir", str(tmp_path / "out"),
                  "--scaling", "none"])
        assert exc.value.code == 2

    def test_scaling_biorthogonal_is_a_usage_error(self, tmp_path):
        # It rescaled only the adjoint modes, which dmd never writes.
        src = _series_csv(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["dmd", "--input", src, "--output-dir", str(tmp_path / "out"),
                  "--scaling", "biorthogonal"])
        assert exc.value.code == 2

    def test_algorithm_and_pairing_flags(self, tmp_path):
        src = _series_csv(tmp_path)
        outdir = str(tmp_path / "seq")
        code = main(["dmd", "--input", src, "--output-dir", outdir,
                     "--algorithm", "sequential"])
        assert code == 0
        report = _read_report(os.path.join(outdir, "report.txt"))
        assert report["algorithm"] == "sequential"

    def test_delay_flag_repairs_standing_wave(self, tmp_path):
        src = str(tmp_path / "wave.csv")
        main(["gen", "--kind", "standing-wave", "--theta", "0.7853981633974483",
              "--dim", "3", "--steps", "33", "--seed", "2", "--output", src])
        outdir = str(tmp_path / "emb")
        code = main(["dmd", "--input", src, "--output-dir", outdir, "--delay", "2"])
        assert code == 0
        header, rows = _read_table(os.path.join(outdir, "eigenvalues.csv"))
        lam = np.array([complex(r[0], r[1]) for r in rows])
        want = np.exp(1j * np.pi / 4)
        assert min(abs(lam - want)) < 1e-8
        assert min(abs(lam - np.conj(want))) < 1e-8


def _eigenvalue_columns(outdir):
    """Eigenvalues and, when written, amplitudes from eigenvalues.csv."""
    header, rows = _read_table(os.path.join(outdir, "eigenvalues.csv"))
    rows = np.array(rows)
    lam = rows[:, 0] + 1j * rows[:, 1]
    if "amplitude_re" not in header:
        return lam, None
    return lam, rows[:, header.index("amplitude_re")] + 1j * rows[:, header.index("amplitude_im")]


def _same_bytes(dir_a, dir_b, names=("eigenvalues.csv", "modes.csv")):
    return all(Path(dir_a, n).read_bytes() == Path(dir_b, n).read_bytes() for n in names)


class TestPairingReadFromData:
    """Time order is read from the pairs, whichever --pairing built them."""

    def test_strided_stride_one_takes_an_amplitude_scaling(self, tmp_path):
        src = _series_csv(tmp_path)
        seq, strided = str(tmp_path / "seq"), str(tmp_path / "strided")
        assert main(["dmd", "--input", src, "--output-dir", seq,
                     "--scaling", "amplitude-qr"]) == 0
        assert main(["dmd", "--input", src, "--output-dir", strided,
                     "--pairing", "strided", "--stride", "1",
                     "--scaling", "amplitude-qr"]) == 0
        for want, got in zip(_eigenvalue_columns(seq), _eigenvalue_columns(strided)):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("flags", [
        [], ["--algorithm", "projected", "--scaling", "amplitude-qr"],
        ["--algorithm", "qr", "--include-zero-modes"], ["--algorithm", "sequential"],
        ["--scaling", "amplitude-gram"],
    ], ids=" ".join)
    def test_stride_one_pairs_of_a_tall_series_write_the_sequential_bytes(self, tmp_path, flags):
        # A tall series is decomposed in the coordinates of one QR of its
        # snapshots, so the layout of the strided pairs reaches no product.
        src = str(tmp_path / "tall.csv")
        main(["gen", "--kind", "random-linear", "--dim", "40", "--steps", "12", "--output", src])
        seq, strided = tmp_path / "seq", tmp_path / "strided"
        assert main(["dmd", "--input", src, "--output-dir", str(seq), *flags]) == 0
        assert main(["dmd", "--input", src, "--output-dir", str(strided), *flags,
                     "--pairing", "strided", "--stride", "1"]) == 0
        for name in ("eigenvalues.csv", "modes.csv"):
            assert (seq / name).read_bytes() == (strided / name).read_bytes(), name
        report = [(seq / "report.txt").read_text().splitlines(),
                  (strided / "report.txt").read_text().splitlines()]
        assert [ln for ln in report[0] if not ln.startswith("pairing:")] == [
            ln for ln in report[1] if not ln.startswith("pairing:")]

    @pytest.mark.parametrize("series, argv", [
        ("wide", ["dmd"]), ("wide", ["dmd", "--mean", "x"]),
        ("wide", ["dmd", "--mean", "pooled", "--scaling", "amplitude-gram"]),
        ("tall", ["dmd", "--mean", "x"]), ("tall", ["lim"]),
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else v)
    def test_stride_one_pairs_write_the_sequential_bytes(self, tmp_path, series, argv):
        # The pairs own C-ordered copies of x and y, so the layout of the
        # strided gather reaches no product and no mean, wide or tall.
        src = _wide_or_tall_csv(tmp_path, series)
        seq, strided = tmp_path / "seq", tmp_path / "strided"
        assert main([*argv, "--input", src, "--output-dir", str(seq)]) == 0
        assert main([*argv, "--input", src, "--output-dir", str(strided),
                     "--pairing", "strided", "--stride", "1"]) == 0
        names = sorted(p.name for p in seq.iterdir())
        assert names == sorted(p.name for p in strided.iterdir())
        for name in names:
            want, got = ((d / name).read_bytes().splitlines(keepends=True) for d in (seq, strided))
            if name == "report.txt":  # which names the pairing
                want, got = ([ln for ln in r if not ln.startswith(b"pairing:")] for r in (want, got))
            assert got == want, name

    def test_paired_shifted_arrays_take_a_delay(self, tmp_path):
        src = _series_csv(tmp_path)
        z = read_matrix(src)
        x, y = str(tmp_path / "x.csv"), str(tmp_path / "y.csv")
        write_real_matrix(x, z[:, :-1])
        write_real_matrix(y, z[:, 1:])
        seq, paired = str(tmp_path / "seq"), str(tmp_path / "paired")
        assert main(["dmd", "--input", src, "--output-dir", seq, "--delay", "2"]) == 0
        assert main(["dmd", "--pairing", "paired", "--input", x, "--input", y,
                     "--output-dir", paired, "--delay", "2"]) == 0
        assert _same_bytes(seq, paired)

    def test_one_run_takes_the_sequential_algorithm(self, tmp_path):
        src = _series_csv(tmp_path)
        seq, multi = str(tmp_path / "seq"), str(tmp_path / "multi")
        assert main(["dmd", "--input", src, "--output-dir", seq,
                     "--algorithm", "sequential"]) == 0
        assert main(["dmd", "--input", src, "--output-dir", multi,
                     "--pairing", "multi-run", "--algorithm", "sequential"]) == 0
        assert _same_bytes(seq, multi)

    @pytest.mark.parametrize("argv", [
        ["dmd", "--pairing", "multi-run", "--input", "{a}", "--input", "{b}",
         "--delay", "2"],
        ["dmd", "--pairing", "multi-run", "--input", "{a}", "--input", "{b}",
         "--algorithm", "sequential"],
        ["dmd", "--pairing", "strided", "--stride", "2", "--input", "{z}",
         "--scaling", "amplitude-qr"],
        ["dmd", "--input", "{z}", "--delay", "0"],
        ["dmd", "--pairing", "strided", "--stride", "0", "--input", "{z}"],
        ["era", "--input", "{impulse}", "--stride", "0"],
        ["era", "--input", "{impulse}", "--p", "0"],
        ["era", "--input", "{impulse}", "--q", "0"],
    ])
    def test_pairs_the_library_refuses_are_a_domain_error(self, tmp_path, capsys, argv):
        src = _series_csv(tmp_path)
        z = read_matrix(src)
        paths = {"z": src, "a": str(tmp_path / "a.csv"), "b": str(tmp_path / "b.csv"),
                 "impulse": str(tmp_path / "impulse.csv")}
        write_real_matrix(paths["a"], z[:, :30])
        write_real_matrix(paths["b"], z[:, 31:])
        write_real_matrix(paths["impulse"], 0.5 ** np.arange(8.0))
        capsys.readouterr()
        argv = [arg.format(**paths) for arg in argv]
        assert main(argv + ["--output-dir", str(tmp_path / "out")]) == 6
        assert "error[domain]" in capsys.readouterr().err

    @pytest.mark.parametrize("algorithm", ["exact", "projected", "qr", "sequential"])
    @pytest.mark.parametrize("series", ["wide", "tall"])
    def test_each_algorithm_writes_the_library_routes_bytes(self, tmp_path, series, algorithm):
        src = _wide_or_tall_csv(tmp_path, series)
        out, lib = tmp_path / "out", tmp_path / "lib"
        assert main(["dmd", "--input", src, "--output-dir", str(out),
                     "--algorithm", algorithm]) == 0
        z = read_matrix(src)
        route = {"exact": exact_dmd, "projected": projected_dmd, "qr": exact_dmd_qr}
        dec = (exact_dmd_sequential(z) if algorithm == "sequential"
               else route[algorithm](pairs_from_sequence(z)))
        points = spectrum(dec)
        columns = {name: [getattr(pt, name) for pt in points]
                   for name in ("frequency", "growth_continuous", "mode_norm", "weighted_norm")}
        lib.mkdir()
        _write_eigenvalue_table(str(lib / "eigenvalues.csv"), dec.eigenvalues, columns)
        write_complex_matrix(str(lib / "modes.csv"), dec.modes,
                             header=[f"mode_{j + 1}" for j in range(dec.n_modes)])
        for name in ("eigenvalues.csv", "modes.csv"):
            assert (out / name).read_bytes() == (lib / name).read_bytes(), name

    def test_strided_pairs_match_the_library(self, tmp_path):
        src = _series_csv(tmp_path)
        outdir = str(tmp_path / "out")
        assert main(["dmd", "--input", src, "--output-dir", outdir,
                     "--pairing", "strided", "--stride", "3"]) == 0
        want = exact_dmd(pairs_from_strided(read_matrix(src), 3)).eigenvalues
        assert np.array_equal(_eigenvalue_columns(outdir)[0], want)

    def test_multi_run_pairs_match_the_library(self, tmp_path):
        z = read_matrix(_series_csv(tmp_path))
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        write_real_matrix(a, z[:, :30])
        write_real_matrix(b, z[:, 31:])
        outdir = str(tmp_path / "out")
        assert main(["dmd", "--pairing", "multi-run", "--input", a, "--input", b,
                     "--output-dir", outdir]) == 0
        want = exact_dmd(pairs_from_trajectories([z[:, :30], z[:, 31:]])).eigenvalues
        assert np.array_equal(_eigenvalue_columns(outdir)[0], want)


class TestCheckCommand:
    def test_inconsistent_data_prints_hint(self, tmp_path, capsys):
        src = str(tmp_path / "wave.csv")
        main(["gen", "--kind", "standing-wave", "--theta", "0.7853981633974483",
              "--dim", "3", "--steps", "33", "--seed", "2", "--output", src])
        code = main(["check", "--input", src,
                     "--output-dir", str(tmp_path / "chk")])
        assert code == 0
        text = capsys.readouterr().out
        assert "linearly_consistent: no" in text
        assert "--delay 2" in text

    def test_no_hint_for_pairs_that_are_not_one_series(self, tmp_path, capsys):
        src = str(tmp_path / "wave.csv")
        main(["gen", "--kind", "standing-wave", "--dim", "3", "--steps", "33",
              "--seed", "2", "--output", src])
        code = main(["check", "--input", src, "--pairing", "strided", "--stride", "2",
                     "--output-dir", str(tmp_path / "chk")])
        assert code == 0
        text = capsys.readouterr().out
        assert "linearly_consistent: no" in text
        assert not [ln for ln in text.splitlines() if ln.startswith("hint:")]
        assert "--delay 2" not in text

    def test_consistent_after_embedding(self, tmp_path, capsys):
        src = str(tmp_path / "wave.csv")
        main(["gen", "--kind", "standing-wave", "--theta", "0.7853981633974483",
              "--dim", "3", "--steps", "33", "--seed", "2", "--output", src])
        code = main(["check", "--input", src, "--delay", "2",
                     "--output-dir", str(tmp_path / "chk2")])
        assert code == 0
        assert "linearly_consistent: yes" in capsys.readouterr().out


class TestEraCommand:
    def test_scalar_impulse_response_poles(self, tmp_path):
        a = np.diag([0.9, -0.4])
        b = np.ones(2)
        c = np.ones(2)
        samples = [c @ np.linalg.matrix_power(a, k) @ b for k in range(9)]
        src = str(tmp_path / "markov.csv")
        write_real_matrix(src, np.array(samples)[None, :])
        outdir = str(tmp_path / "era")
        code = main(["era", "--input", src, "--output-dir", outdir])
        assert code == 0
        header, rows = _read_table(os.path.join(outdir, "poles.csv"))
        mags = [r[header.index("magnitude")] for r in rows]
        assert abs(mags[0] - 0.9) < 1e-9
        assert abs(mags[1] - 0.4) < 1e-9
        report = _read_report(os.path.join(outdir, "report.txt"))
        assert report["order"] == "2"
        assert float(report["dmd_eigenvalue_mismatch"]) < 1e-10

    def test_column_layout_also_accepted_for_scalars(self, tmp_path):
        samples = [0.5**k for k in range(8)]
        src = str(tmp_path / "markov.csv")
        write_real_matrix(src, np.array(samples)[:, None])
        outdir = str(tmp_path / "era2")
        assert main(["era", "--input", src, "--output-dir", outdir]) == 0
        _, rows = _read_table(os.path.join(outdir, "poles.csv"))
        assert len(rows) == 1
        assert abs(complex(rows[0][0], rows[0][1]) - 0.5) < 1e-10


class TestLimCommand:
    def test_equivalence_reported(self, tmp_path):
        src = str(tmp_path / "z.csv")
        main(["gen", "--kind", "random-linear", "--dim", "4", "--steps", "40",
              "--seed", "6", "--output", src])
        outdir = str(tmp_path / "lim")
        code = main(["lim", "--input", src, "--output-dir", outdir])
        assert code == 0
        report = _read_report(os.path.join(outdir, "report.txt"))
        assert report["equivalent"] == "yes"
        assert report["mean"] == "x"
        green = read_matrix(os.path.join(outdir, "green.csv"))
        assert green.shape[0] % 2 == 0


def _command(kind, tmp_path):
    """argv (without --output-dir) for one run of a factoring CLI path on a fresh input."""
    if kind.startswith("era"):
        src = str(tmp_path / "markov.csv")
        write_real_matrix(src, np.array([[0.9**k + (-0.4) ** k for k in range(9)]]))
        return ["era", "--input", src, *(["--order", "1"] if kind == "era-order-1" else [])]
    if kind == "lim":
        src = str(tmp_path / "z.csv")
        main(["gen", "--kind", "random-linear", "--dim", "4", "--steps", "40",
              "--seed", "6", "--output", src])
        return ["lim", "--input", src]
    if kind.endswith("tall"):
        src = str(tmp_path / "tall.csv")
        main(["gen", "--kind", "random-linear", "--dim", "40", "--steps", "12", "--output", src])
        flags = {"dmd-tall": ["--scaling", "amplitude-gram"],
                 "dmd-sequential-tall": ["--algorithm", "sequential"]}.get(kind, [])
        return [kind.split("-")[0], "--input", src, *flags]
    flags = {
        "dmd": ["--scaling", "amplitude-qr"],
        "check": [],
        "dmd-projected-mean-x": ["--algorithm", "projected", "--mean", "x"],
        "dmd-qr": ["--algorithm", "qr"],
        "dmd-sequential-delay-2": ["--algorithm", "sequential", "--delay", "2"],
    }[kind]
    return ["check" if kind == "check" else "dmd", "--input", _series_csv(tmp_path), *flags]


# The shapes each path hands LAPACK: one SVD of its x (the Hankel matrix
# for era), and on the QR route one more of the part of y outside range(x).
# A tall series (40 states, 12 snapshots) is first factored by one QR, and
# its x is then 12 x 11 coordinates.
_FACTORED = {
    "era": [(4, 5)],
    "era-order-1": [(4, 5)],
    "lim": [(4, 39)],
    "dmd": [(8, 59)],
    "check": [(8, 59)],
    "dmd-projected-mean-x": [(8, 59)],
    "dmd-qr": [(8, 59), (8, 59)],
    "dmd-sequential-delay-2": [(16, 58)],
    "dmd-tall": [(12, 11)],
    "dmd-sequential-tall": [(12, 11)],
    "check-tall": [(12, 11)],
    "lim-tall": [(12, 11)],
}


class TestOneFactorizationPerRun:
    @pytest.mark.parametrize("kind", list(_FACTORED))
    def test_each_run_factors_its_one_matrix_once(self, tmp_path, lapack_svds, lapack_qrs, kind):
        argv = _command(kind, tmp_path)
        qrs = [(40, 12)] if kind.endswith("tall") else []
        assert main(argv + ["--output-dir", str(tmp_path / "a")]) == 0
        assert lapack_svds == _FACTORED[kind] and lapack_qrs == qrs
        assert main(argv + ["--output-dir", str(tmp_path / "b")]) == 0
        assert lapack_svds == _FACTORED[kind] * 2  # nothing is carried from one run to the next
        assert lapack_qrs == qrs * 2
        for name in os.listdir(tmp_path / "a"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_qr_route_factors_x_and_the_part_of_y_outside_its_range(
        self, tmp_path, lapack_svds, lapack_qrs
    ):
        src = str(tmp_path / "z.csv")
        main(["gen", "--kind", "random-linear", "--dim", "40", "--steps", "12", "--output", src])
        assert main(["dmd", "--input", src, "--algorithm", "qr",
                     "--output-dir", str(tmp_path / "out")]) == 0
        assert lapack_qrs == [(40, 12)]  # the tall series, whose coordinates x and y then are
        assert lapack_svds == [(12, 11), (12, 11)]

    def test_a_failed_run_holds_nothing_afterwards(self, tmp_path):
        src = tmp_path / "zero.csv"
        src.write_text("0,0,0\n0,0,0\n")
        assert main(["dmd", "--input", str(src), "--output-dir", str(tmp_path / "out")]) == 5
        assert linalg._HELD.get() is None


# One-row series x, y whose operator y / x lies outside LAPACK geev's
# scaling window (about [6.7e-139, 1.5e138]) or makes the amplitude
# normal equations overflow unless each factor is rescaled; the last
# one has a subnormal eigenvalue.
_FAR_SCALE_SERIES = [
    (3e300, 1.0),
    (1.0, 3e300),
    (1.4144378726289916e-263, 1.0),
    (6.994930334734994e100, 3.547170413168011e204),
    (1e300, 1e-10),
]


class TestOperatorScale:
    @pytest.mark.parametrize("x, y", _FAR_SCALE_SERIES)
    def test_far_from_unit_operator_is_decomposed(self, tmp_path, x, y):
        src = tmp_path / "z.csv"
        src.write_text(f"{x!r},{y!r}\n")
        amplitudes = {}
        for scaling in ("unit-norm", "amplitude-qr", "amplitude-gram"):
            out = tmp_path / scaling
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code = main(["dmd", "--input", str(src), "--output-dir", str(out),
                             "--scaling", scaling])
            assert code == 0, scaling
            header, rows = _read_table(out / "eigenvalues.csv")
            assert len(rows) == 1
            lam = complex(rows[0][0], rows[0][1])
            assert abs(lam - y / x) <= 1e-12 * (y / x)
            if scaling != "unit-norm":
                amplitudes[scaling] = complex(rows[0][header.index("amplitude_re")],
                                              rows[0][header.index("amplitude_im")])
        qr, gram = amplitudes["amplitude-qr"], amplitudes["amplitude-gram"]
        assert abs(gram - qr) <= 1e-12 * abs(qr)


class TestExitCodes:
    def test_usage_error(self, tmp_path, capsys):
        src = str(tmp_path / "z.csv")
        write_real_matrix(src, np.eye(3))
        code = main(["dmd", "--input", src, "--algorithm", "sequential",
                     "--pairing", "paired"])
        assert code == 2
        assert "error[usage]" in capsys.readouterr().err

    def test_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("1.0,2.0\nnope,4.0\n")
        code = main(["dmd", "--input", str(bad)])
        assert code == 3
        assert "error[parse]" in capsys.readouterr().err

    def test_missing_file_is_a_parse_error(self, tmp_path):
        assert main(["dmd", "--input", str(tmp_path / "absent.csv")]) == 3

    def test_dimension_error(self, tmp_path, capsys):
        x = str(tmp_path / "x.csv")
        y = str(tmp_path / "y.csv")
        write_real_matrix(x, np.eye(3)[:, :2])
        write_real_matrix(y, np.eye(3))
        code = main(["dmd", "--pairing", "paired", "--input", x, "--input", y])
        assert code == 4
        assert "error[dimension]" in capsys.readouterr().err

    def test_rank_zero_error(self, tmp_path, capsys):
        src = str(tmp_path / "zeros.csv")
        write_real_matrix(src, np.zeros((3, 6)))
        code = main(["dmd", "--input", src])
        assert code == 5
        assert "error[rank-zero]" in capsys.readouterr().err

    def test_domain_error(self, tmp_path, capsys):
        src = str(tmp_path / "pos.csv")
        rng = np.random.default_rng(1)
        write_real_matrix(src, np.abs(rng.standard_normal((3, 9))) + 1.0)
        code = main(["lim", "--input", src, "--mean", "none"])
        assert code == 6
        assert "error[domain]" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["dmd", "--dt", "inf"],
        ["lim", "--dt", "inf"],
        ["dmd", "--m-weight", "nan"],
    ])
    def test_non_finite_flag_is_a_domain_error(self, tmp_path, capsys, argv):
        src = str(tmp_path / "z.csv")
        write_real_matrix(src, np.random.default_rng(2).standard_normal((3, 12)))
        out = tmp_path / "out"
        code = main(argv + ["--input", src, "--output-dir", str(out)])
        assert code == 6
        assert "error[domain]" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["dmd", "check", "lim", "era"])
    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_non_finite_csv_token_is_a_domain_error(self, tmp_path, capsys, command, token):
        # The token parses as a float; the data is then refused, not the file.
        src = tmp_path / "z.csv"
        src.write_text(f"1.0,0.5,{token},0.125,0.0625,0.03125\n")
        code = main([command, "--input", str(src), "--output-dir", str(tmp_path / "out")])
        assert code == 6
        assert "error[domain]" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flag", [
        *[(c, f) for c in ("dmd", "check", "lim", "era") for f in ("--rank-rtol", "--rank-atol")],
        ("dmd", "--zero-tol"),
    ])
    def test_nan_tolerance_is_a_domain_error(self, tmp_path, capsys, command, flag):
        # A scalar impulse response every command accepts without the flag.
        src = str(tmp_path / "z.csv")
        write_real_matrix(src, 0.5 ** np.arange(8.0))
        out = tmp_path / "out"
        code = main([command, "--input", src, "--output-dir", str(out), flag, "nan"])
        assert code == 6
        assert "must be nonnegative" in capsys.readouterr().err
        assert not out.exists()
        assert main([command, "--input", src, "--output-dir", str(out), flag, "0"]) == 0

    @pytest.mark.parametrize("command", ["dmd", "check"])
    def test_overflowing_result_is_a_domain_error(self, tmp_path, capsys, command):
        # The misfit y x^+ x - y leaves the float64 range; it used to be
        # reported as inf or nan with exit 0.
        src = tmp_path / "z.csv"
        src.write_text("3.0,1.7976931348623157e308\n")
        assert main([command, "--input", str(src), "--output-dir", str(tmp_path / "out")]) == 6
        assert "overflow" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["dmd", "lim"])
    def test_a_rate_that_overflows_is_a_domain_error(self, tmp_path, capsys, command):
        # At --dt 1e-320 the growth rate log|lambda| / dt leaves the float64
        # range; it used to be written as -inf with exit 0.
        src = str(tmp_path / "z.csv")
        write_real_matrix(src, 0.5 ** np.arange(8.0))
        out = tmp_path / "out"
        assert main([command, "--input", src, "--output-dir", str(out), "--dt", "1e-320"]) == 6
        assert "error[domain]: overflow" in capsys.readouterr().err
        assert not out.exists()
        assert main([command, "--input", src, "--output-dir", str(out), "--dt", "1e-300"]) == 0

    @pytest.mark.parametrize("argv", [["dmd", "--mean", "x"], ["dmd", "--mean", "pooled"],
                                      ["lim"], ["lim", "--force"]], ids=" ".join)
    def test_centring_data_whose_sum_overflows_succeeds(self, tmp_path, capsys, argv):
        # The column sum leaves the float64 range, the mean does not; this
        # used to exit 6 with "overflow encountered in reduce".
        src = tmp_path / "z.csv"
        src.write_text("1e308,1.2e308,1.1e308,1.3e308\n")
        assert main(argv + ["--input", str(src), "--output-dir", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("argv, rows", [
        (["dmd"], 1), (["check"], 1), (["lim", "--mean", "none", "--force"], 1),
        (["dmd"], 6), (["check"], 6), (["lim", "--mean", "none", "--force"], 6),
        (["dmd", "--algorithm", "qr"], 6), (["dmd", "--algorithm", "sequential"], 6),
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else f"{v} rows")
    def test_data_whose_norm_overflows_is_a_domain_refusal(self, tmp_path, capsys, argv, rows):
        # Finite snapshots whose largest singular value, and on the tall
        # series (6 states, 4 snapshots) a snapshot's norm, exceed the
        # float64 range; this used to exit 5, "matrix has numerical rank
        # zero at threshold inf".
        src = tmp_path / "far.csv"
        src.write_text("1e308,1.2e308,1.1e308,1.3e308\n" * rows)
        assert main(argv + ["--input", str(src), "--output-dir", str(tmp_path / "out")]) == 6
        err = capsys.readouterr().err
        assert "error[domain]: overflow" in err and "non-finite" not in err

    def test_uncentred_data_whose_norm_overflows_is_refused_by_lim(self, tmp_path, capsys):
        src = tmp_path / "far.csv"
        src.write_text("1e308,1.2e308,1.1e308,1.3e308\n")
        code = main(["lim", "--mean", "none", "--input", str(src),
                     "--output-dir", str(tmp_path / "out")])
        assert code == 6
        err = capsys.readouterr().err
        assert "not mean-subtracted (column-mean norm / data norm = 5.76e-01)" in err
        assert "inf" not in err

    def test_a_hankel_split_leaving_the_derived_rows_negative_is_named(self, tmp_path, capsys):
        src = str(tmp_path / "imp.csv")
        main(["gen", "--kind", "ar1", "--decay", "0.5", "--sigma2", "0", "--z0", "1",
              "--steps", "8", "--seed", "0", "--output", src])
        code = main(["era", "--input", src, "--mc", "100", "--output-dir", str(tmp_path / "out")])
        assert code == 6
        err = capsys.readouterr().err
        assert "got m_c = 100 and m_o = -94 (m_o derived from m_c + m_o = len(params) - 1" in err

    def test_unknown_flag_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["dmd", "--no-such-flag"])
        assert exc.value.code == 2


# Tokens a hand-edited CSV may hold: numbers, extremes, non-finite and
# complex values, blanks and junk.
_TOKENS = st.sampled_from([
    "0", "1", "-2.5", "1e-3", "3e300", "1e-310", "nan", "inf", "1+2j", "(1-1j)",
    "", " ", "abc", "0x10",
])
_CELLS = st.one_of(_TOKENS, st.floats(allow_nan=False, allow_infinity=False).map(repr))
# Ragged, empty (no rows), header-only (one row with --header) and 1x1
# tables all come out of this.
_TABLES = st.lists(st.lists(_CELLS, max_size=4), max_size=5)
_COMMANDS = st.sampled_from([
    ["dmd"],
    ["dmd", "--algorithm", "sequential", "--include-zero-modes"],
    ["dmd", "--algorithm", "qr"],
    ["dmd", "--scaling", "amplitude-gram"],
    ["dmd", "--pairing", "strided", "--stride", "1", "--scaling", "amplitude-qr"],
    ["check"],
    ["check", "--pairing", "multi-run"],
    ["lim"],
    ["era"],
])


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(_TABLES, _COMMANDS, st.sampled_from([1, 2, 10**12]), st.booleans())
def test_fuzzed_csv_ends_in_a_documented_exit_code(table, command, delay, header):
    """Never exit 1 (an unexpected error), never a traceback or a warning."""
    with tempfile.TemporaryDirectory() as tmp:
        src = os.path.join(tmp, "z.csv")
        with open(src, "w", encoding="utf-8") as fh:
            fh.write("".join(",".join(row) + "\n" for row in table))
        argv = command + ["--input", src, "--output-dir", os.path.join(tmp, "out")]
        if command[0] != "era":
            argv += ["--delay", str(delay)]
        if header:
            argv.append("--header")
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code = exc.code
    assert code in {0, 2, 3, 4, 5, 6}, (argv, table, err.getvalue())
    assert "Traceback" not in err.getvalue()
