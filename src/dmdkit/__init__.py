"""Modal decomposition of snapshot-pair data.

Fit the best linear one-step map to matched snapshot matrices, extract
its eigenvalues and modes by several equivalent routes, and cross-check
the result against balanced realization (from Markov parameters) and
linear inverse modeling (from EOF coefficients), which both estimate
the same operator from different inputs.
"""

from .dmd import (
    ConsistencyReport,
    DmdDecomposition,
    Reconstruction,
    ReducedOperator,
    SpectrumPoint,
    exact_dmd,
    exact_dmd_qr,
    exact_dmd_sequential,
    linear_consistency,
    projected_dmd,
    propagate,
    reconstruct,
    reduced_operator,
    spectrum,
)
from .era import (
    EraDmdReport,
    EraRealization,
    MarkovSequence,
    build_hankel,
    era_dmd_similarity,
    era_realize,
    markov_from_blocks,
    markov_parameters,
    match_eigenvalues,
)
from .errors import (
    ConfigError,
    DimensionError,
    DmdkitError,
    EigensolverError,
    ParseError,
    RankZeroError,
)
from .generators import (
    gen_ar1,
    gen_planar_rotation,
    gen_random_linear,
    gen_standing_wave,
    gen_two_timescale,
)
from .lim import (
    LimDmdReport,
    LimModel,
    lim_dmd_equivalence,
    lim_model,
)
from .linalg import (
    EigenPairs,
    ReducedSvd,
    eig_dense,
    reduced_svd,
)
from .pairs import (
    SnapshotPairs,
    delay_embed,
    embed_sequence,
    pairs_from_arrays,
    pairs_from_sequence,
    pairs_from_strided,
    pairs_from_trajectories,
    snapshot_matrix,
    subtract_mean,
)
from .scaling import scale_amplitudes, scale_biorthogonal

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "ConsistencyReport",
    "DimensionError",
    "DmdDecomposition",
    "DmdkitError",
    "EigenPairs",
    "EigensolverError",
    "EraDmdReport",
    "EraRealization",
    "LimDmdReport",
    "LimModel",
    "MarkovSequence",
    "ParseError",
    "RankZeroError",
    "Reconstruction",
    "ReducedOperator",
    "ReducedSvd",
    "SnapshotPairs",
    "SpectrumPoint",
    "build_hankel",
    "delay_embed",
    "eig_dense",
    "embed_sequence",
    "era_dmd_similarity",
    "era_realize",
    "exact_dmd",
    "exact_dmd_qr",
    "exact_dmd_sequential",
    "gen_ar1",
    "gen_planar_rotation",
    "gen_random_linear",
    "gen_standing_wave",
    "gen_two_timescale",
    "lim_dmd_equivalence",
    "lim_model",
    "linear_consistency",
    "markov_from_blocks",
    "markov_parameters",
    "match_eigenvalues",
    "pairs_from_arrays",
    "pairs_from_sequence",
    "pairs_from_strided",
    "pairs_from_trajectories",
    "projected_dmd",
    "propagate",
    "reconstruct",
    "reduced_operator",
    "reduced_svd",
    "scale_amplitudes",
    "scale_biorthogonal",
    "snapshot_matrix",
    "spectrum",
    "subtract_mean",
    "__version__",
]
