"""Top-k and full-ranking recovery from noisy pairwise comparisons.

The package centers on the Copeland counting rule: rank items by their
total number of pairwise wins.  Around it sit the comparison-model
generators, the score-separation theory that governs how many
comparisons suffice, monotone set systems for relaxed recovery
requirements, information-theoretic lower-bound calculators, and a
reproducible benchmark harness with a spectral baseline.

Each name has one home, its submodule: import from the submodule, as in
``from pairrank.rank import copeland_topk``.  The package itself exports
nothing, so ``import pairrank`` loads none of its modules.
"""

__version__ = "0.1.0"
