"""The package namespace exports exactly the public names of its modules,
and the README's Python example runs as written."""

import os
import re
import subprocess
import sys
from pathlib import Path

import dmdkit

README = Path(__file__).resolve().parents[1] / "README.md"

PUBLIC_NAMES = {
    "ConfigError", "ConsistencyReport", "DimensionError", "DmdDecomposition",
    "DmdkitError", "EigenPairs", "EigensolverError", "EraDmdReport",
    "EraRealization", "LimDmdReport", "LimModel", "MarkovSequence",
    "ParseError", "RankZeroError", "Reconstruction", "ReducedOperator",
    "ReducedSvd", "SnapshotPairs", "SpectrumPoint", "build_hankel",
    "delay_embed", "eig_dense", "embed_sequence", "era_dmd_similarity",
    "era_realize", "exact_dmd", "exact_dmd_qr", "exact_dmd_sequential",
    "gen_ar1", "gen_planar_rotation", "gen_random_linear", "gen_standing_wave",
    "gen_two_timescale", "lim_dmd_equivalence", "lim_model",
    "linear_consistency", "markov_from_blocks", "markov_parameters",
    "match_eigenvalues", "pairs_from_arrays", "pairs_from_sequence",
    "pairs_from_strided", "pairs_from_trajectories", "projected_dmd",
    "propagate", "reconstruct", "reduced_operator", "reduced_svd",
    "scale_amplitudes", "scale_biorthogonal", "snapshot_matrix", "spectrum",
    "subtract_mean", "__version__",
}


def test_all_lists_each_public_name_once():
    assert len(PUBLIC_NAMES) == 54
    assert sorted(dmdkit.__all__) == sorted(PUBLIC_NAMES)


def test_every_public_name_resolves():
    for name in dmdkit.__all__:
        assert hasattr(dmdkit, name), name


def test_readme_python_example_runs_without_warnings():
    (code,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    src = str(Path(dmdkit.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-W", "error", "-c", code],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=60,
    )
    assert run.returncode == 0, run.stderr
    assert run.stderr == ""
