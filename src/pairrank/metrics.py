"""Scoring of top-k estimates against a known model.

Ground truth is derived from the score vector of the generating
matrix.  Items with equal scores are interchangeable: whenever a tie
class straddles the boundary of the top-k set, choosing any member of
the class counts as correct.  That leniency is implemented
deterministically.  The truth keeps each item's best position, the
first true position of its tie class.  The chosen items take the most
favorable positions those classes leave them, and one call to
:func:`evaluate` reads the exact, Hamming and allowed-set verdicts from
those positions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import rank_order, scores
from .model import ComparisonMatrix
from .setfamily import SetFamily

TIE_ATOL = 1e-12


@dataclass(frozen=True)
class GroundTruth:
    """Top-k size and tie structure of a comparison model.

    ``best_position[i]`` is the first true position (1-based) of item
    ``i``'s tie class, so items share a value exactly when they are tied.
    """

    k: int
    best_position: np.ndarray

    @property
    def n(self) -> int:
        return self.best_position.size


def ground_truth(matrix: ComparisonMatrix, k: int) -> GroundTruth:
    """Compute the ground truth of a matrix for top-k recovery.

    Scores within ``TIE_ATOL`` of the next better score are chained into
    one tie class; the generators in :mod:`pairrank.model` produce either
    exact ties or gaps far above this tolerance.
    """
    if not 1 <= k <= matrix.n:
        raise ValueError(f"k must satisfy 1 <= k <= n, got k={k}, n={matrix.n}")
    tau = scores(matrix)
    order = rank_order(tau)
    opens_class = np.r_[True, -np.diff(tau[order]) > TIE_ATOL]
    first = np.maximum.accumulate(np.where(opens_class, np.arange(1, matrix.n + 1), 0))
    best = np.empty(matrix.n, dtype=np.int64)
    best[order] = first
    best.setflags(write=False)
    return GroundTruth(k=k, best_position=best)


def favorable_positions(items, truth: GroundTruth) -> tuple[int, ...]:
    """Most favorable true positions of the chosen items, ascending.

    Within each tie class the chosen items take the smallest positions
    of the class's block.  Because interchanging equal-score items is
    valid, any criterion evaluated on these positions is exactly the
    lenient (best-case) evaluation.
    """
    items = np.asarray(items, dtype=np.int64)
    if np.any((items < 0) | (items >= truth.n)):
        raise ValueError("estimate refers to unknown items")
    if np.unique(items).size != items.size:
        raise ValueError("estimate contains duplicate items")
    best = np.sort(truth.best_position[items])
    # the j-th chosen item of a class takes the class's j-th position
    return tuple((best + np.arange(best.size) - np.searchsorted(best, best)).tolist())


def evaluate(items, truth: GroundTruth, family: SetFamily) -> tuple[bool, int, bool]:
    """Lenient ``(exact_success, hamming_error, allowed_success)`` of a top-k estimate.

    ``hamming_error`` is the smallest Hamming distance to a valid true
    top-k set (tie classes straddling the boundary may contribute any of
    their members); exact success means it is 0, and allowed success
    means the favorable positions form a set of ``family``.
    """
    if family.n != truth.n or family.k != truth.k:
        raise ValueError(
            f"family is for (n={family.n}, k={family.k}), "
            f"truth is for (n={truth.n}, k={truth.k})"
        )
    pos = favorable_positions(items, truth)
    if len(pos) != truth.k:
        raise ValueError(f"estimate has size {len(pos)}, expected k={truth.k}")
    hamming_error = 2 * sum(p > truth.k for p in pos)
    return hamming_error == 0, hamming_error, bool(family.predicate(pos))
