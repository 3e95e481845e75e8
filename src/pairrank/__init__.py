"""Top-k and full-ranking recovery from noisy pairwise comparisons.

The package centers on the Copeland counting rule: rank items by their
total number of pairwise wins.  Around it sit the comparison-model
generators, the score-separation theory that governs how many
comparisons suffice, monotone set systems for relaxed recovery
requirements, information-theoretic lower-bound calculators, and a
reproducible benchmark harness with a spectral baseline.
"""

from __future__ import annotations

from .analysis import (
    SeparationReport,
    adjacent_swap_kl_bound,
    fano_lower_bound,
    implied_alpha,
    kl_divergence,
    planted_kl_bound,
    rank_order,
    required_repetitions,
    scores,
    separation_family,
    separation_report,
)
from .harness import (
    ExperimentConfig,
    ExperimentResult,
    RealDataResult,
    TrialRecord,
    derive_seed,
    figure_suite,
    run_experiment,
    run_realdata,
    write_results_csv,
)
from .metrics import (
    GroundTruth,
    evaluate,
    favorable_positions,
    ground_truth,
    hamming_distance,
)
from .model import (
    ComparisonMatrix,
    ModelSpec,
    equispaced_quality,
    gen_adjacent_swap,
    gen_btl_mixture,
    gen_btl_outlier,
    gen_hamming_planted,
    gen_parametric,
    gen_planted,
    gen_sst_diagonal,
    instantiate,
    make_matrix,
    read_matrix_csv,
    write_matrix_csv,
)
from .rank import (
    DisconnectedGraphError,
    StationaryError,
    TopKEstimate,
    btl_loglikelihood,
    copeland_ranking,
    copeland_topk,
    mle_refine,
    rank_centrality,
    spectral_baseline,
    topk_from_scores,
    win_counts,
)
from .sample import (
    ObservationSet,
    draw_observations,
    ingest_comparisons,
    iter_comparisons_csv,
    read_observations_csv,
    subsample,
    write_observations_csv,
)
from .setfamily import (
    SetFamily,
    family_exact,
    family_explicit,
    family_hamming,
    family_requirement,
    parse_family_spec,
    position_set,
)

__version__ = "0.1.0"

__all__ = [
    "ComparisonMatrix",
    "DisconnectedGraphError",
    "ExperimentConfig",
    "ExperimentResult",
    "GroundTruth",
    "ModelSpec",
    "ObservationSet",
    "RealDataResult",
    "SeparationReport",
    "SetFamily",
    "StationaryError",
    "TopKEstimate",
    "TrialRecord",
    "adjacent_swap_kl_bound",
    "btl_loglikelihood",
    "copeland_ranking",
    "copeland_topk",
    "derive_seed",
    "draw_observations",
    "equispaced_quality",
    "evaluate",
    "family_exact",
    "family_explicit",
    "family_hamming",
    "family_requirement",
    "fano_lower_bound",
    "favorable_positions",
    "figure_suite",
    "gen_adjacent_swap",
    "gen_btl_mixture",
    "gen_btl_outlier",
    "gen_hamming_planted",
    "gen_parametric",
    "gen_planted",
    "gen_sst_diagonal",
    "ground_truth",
    "hamming_distance",
    "implied_alpha",
    "ingest_comparisons",
    "instantiate",
    "iter_comparisons_csv",
    "kl_divergence",
    "make_matrix",
    "mle_refine",
    "parse_family_spec",
    "planted_kl_bound",
    "position_set",
    "rank_centrality",
    "rank_order",
    "read_matrix_csv",
    "read_observations_csv",
    "required_repetitions",
    "run_experiment",
    "run_realdata",
    "scores",
    "separation_family",
    "separation_report",
    "spectral_baseline",
    "subsample",
    "topk_from_scores",
    "win_counts",
    "write_matrix_csv",
    "write_observations_csv",
    "write_results_csv",
]
