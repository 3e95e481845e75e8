"""Top-k and full-ranking recovery from noisy pairwise comparisons.

The package centers on the Copeland counting rule: rank items by their
total number of pairwise wins.  Around it sit the comparison-model
generators, the score-separation theory that governs how many
comparisons suffice, monotone set systems for relaxed recovery
requirements, information-theoretic lower-bound calculators, and a
reproducible benchmark harness with a spectral baseline.

Importing the package imports none of its modules.  Each name in
``__all__`` is looked up in the submodule that :data:`_EXPORTS` names on
first access (PEP 562), so ``import pairrank`` and the command-line
parser load no numpy, and a program that uses one submodule loads only
that one and what it imports.
"""

from __future__ import annotations

import importlib

__version__ = "0.1.0"

# exported name -> the submodule that defines it
_EXPORTS = {
    name: module
    for module, names in {
        "analysis": """SeparationReport adjacent_swap_kl_bound fano_lower_bound implied_alpha
            kl_divergence planted_kl_bound rank_order required_repetitions scores
            separation_family separation_report""",
        "harness": """ExperimentConfig ExperimentResult RealDataResult TrialRecord derive_seed
            figure_suite run_experiment run_realdata write_results_csv""",
        "metrics": "GroundTruth evaluate favorable_positions ground_truth",
        "model": """ComparisonMatrix ModelSpec equispaced_quality gen_adjacent_swap
            gen_btl_mixture gen_btl_outlier gen_hamming_planted gen_parametric gen_planted
            gen_sst_diagonal instantiate make_matrix read_matrix_csv write_matrix_csv""",
        "rank": """DisconnectedGraphError StationaryError TopKEstimate btl_loglikelihood
            copeland_ranking copeland_topk mle_refine rank_centrality spectral_baseline
            topk_from_scores win_counts""",
        "sample": """ObservationSet draw_observations read_comparisons read_observations_csv
            subsample write_observations_csv""",
        "setfamily": """SetFamily family_exact family_explicit family_hamming family_requirement
            parse_family_spec position_set""",
    }.items()
    for name in names.split()
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    """Import the submodule that exports ``name`` and bind the name here.

    An unknown name raises ``AttributeError``, so ``from pairrank import
    harness`` still imports the submodule ``pairrank.harness``.
    """
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
