"""Success criteria for top-k estimates against a known model.

Ground truth is derived from the score vector of the generating
matrix.  Items with equal scores are interchangeable: whenever a tie
class straddles the boundary of the top-k set, choosing any member of
the class counts as correct.  That leniency is implemented
deterministically, by assigning chosen items the most favorable
positions available inside their tie classes before evaluating a
criterion.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .analysis import rank_order, scores
from .model import ComparisonMatrix
from .setfamily import SetFamily, membership

TIE_ATOL = 1e-12


@dataclass(frozen=True)
class GroundTruth:
    """True scores, ordering, and tie structure of a comparison model.

    ``true_order`` lists items by descending score (ties by smaller
    index) and ``true_topk`` is its length-k prefix as a set.
    ``tie_classes`` groups items with equal scores, best class first;
    ``class_of[i]`` is the index of item ``i``'s class and
    ``class_start[c]`` the first true position (1-based) of class ``c``.
    """

    tau: np.ndarray
    k: int
    true_topk: frozenset[int]
    true_order: tuple[int, ...]
    tie_classes: tuple[tuple[int, ...], ...]
    class_of: tuple[int, ...] = field(init=False, repr=False, compare=False)
    class_start: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        class_of = [0] * len(self.true_order)
        class_start = []
        start = 1
        for c, cls in enumerate(self.tie_classes):
            for item in cls:
                class_of[item] = c
            class_start.append(start)
            start += len(cls)
        object.__setattr__(self, "class_of", tuple(class_of))
        object.__setattr__(self, "class_start", tuple(class_start))

    @property
    def n(self) -> int:
        return len(self.true_order)


def ground_truth(matrix: ComparisonMatrix, k: int, atol: float = TIE_ATOL) -> GroundTruth:
    """Compute the ground truth of a matrix for top-k recovery.

    Scores within ``atol`` of each other are chained into one tie
    class; the generators in :mod:`pairrank.model` produce either exact
    ties or gaps far above this tolerance.
    """
    if not 1 <= k <= matrix.n:
        raise ValueError(f"k must satisfy 1 <= k <= n, got k={k}, n={matrix.n}")
    tau = scores(matrix)
    order = rank_order(tau)
    classes: list[list[int]] = [[int(order[0])]]
    for prev, item in zip(order, order[1:]):
        if tau[prev] - tau[item] <= atol:
            classes[-1].append(int(item))
        else:
            classes.append([int(item)])
    return GroundTruth(
        tau=tau,
        k=k,
        true_topk=frozenset(int(i) for i in order[:k]),
        true_order=tuple(int(i) for i in order),
        tie_classes=tuple(tuple(c) for c in classes),
    )


def ground_truth_from_ranking(order, k: int) -> GroundTruth:
    """Ground truth for an explicitly ranked item list (no ties)."""
    order = tuple(int(i) for i in order)
    n = len(order)
    if sorted(order) != list(range(n)):
        raise ValueError("order must be a permutation of 0..n-1")
    if not 1 <= k <= n:
        raise ValueError(f"k must satisfy 1 <= k <= n, got k={k}, n={n}")
    tau = np.empty(n)
    tau[list(order)] = np.linspace(1.0, 0.0, n)
    return GroundTruth(
        tau=tau,
        k=k,
        true_topk=frozenset(order[:k]),
        true_order=order,
        tie_classes=tuple((i,) for i in order),
    )


def _estimate_items(est) -> tuple[int, ...]:
    items = tuple(est.items) if hasattr(est, "items") and not isinstance(est, dict) else tuple(est)
    if len(set(items)) != len(items):
        raise ValueError("estimate contains duplicate items")
    return items


def favorable_positions(est, truth: GroundTruth) -> tuple[int, ...]:
    """Most favorable true positions of the chosen items.

    Within each tie class the chosen items take the smallest positions
    of the class's block.  Because interchanging equal-score items is
    valid, any criterion evaluated on these positions is exactly the
    lenient (best-case) evaluation.
    """
    items = _estimate_items(est)
    if not all(0 <= item < truth.n for item in items):
        raise ValueError("estimate refers to unknown items")
    hits = Counter(truth.class_of[item] for item in items)
    positions: list[int] = []
    for c in sorted(hits):
        start = truth.class_start[c]
        positions.extend(range(start, start + hits[c]))
    return tuple(positions)


def hamming_distance(a, b) -> int:
    """Number of items belonging to exactly one of the two sets."""
    return len(set(a) ^ set(b))


def exact_success(est, truth: GroundTruth) -> bool:
    """True iff the estimate equals the true top-k set, up to ties.

    Any member of a tie class straddling the k-boundary is accepted in
    place of another member of the same class.
    """
    items = _estimate_items(est)
    if len(items) != truth.k:
        raise ValueError(f"estimate has size {len(items)}, expected k={truth.k}")
    pos = favorable_positions(items, truth)
    return pos[-1] <= truth.k


def hamming_success(est, truth: GroundTruth, h: int) -> tuple[bool, int]:
    """Lenient Hamming distance to the true top-k set and the verdict.

    The distance is the minimum over all valid true sets (tie classes
    straddling the boundary may contribute any of their members);
    success means distance at most ``2h``.
    """
    if h < 0:
        raise ValueError(f"h must be nonnegative, got {h}")
    items = _estimate_items(est)
    if len(items) != truth.k:
        raise ValueError(f"estimate has size {len(items)}, expected k={truth.k}")
    pos = favorable_positions(items, truth)
    inside = sum(1 for p in pos if p <= truth.k)
    distance = 2 * (truth.k - inside)
    return distance <= 2 * h, distance


def allowed_success(est, truth: GroundTruth, family: SetFamily) -> bool:
    """True iff the chosen items' lenient positions form an allowed set."""
    if family.n != truth.n or family.k != truth.k:
        raise ValueError(
            f"family is for (n={family.n}, k={family.k}), "
            f"truth is for (n={truth.n}, k={truth.k})"
        )
    items = _estimate_items(est)
    if len(items) != truth.k:
        raise ValueError(f"estimate has size {len(items)}, expected k={truth.k}")
    return membership(family, favorable_positions(items, truth))
