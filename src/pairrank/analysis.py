"""Scores, separation thresholds, and information-theoretic calculators.

The score of an item is the probability that it beats an opponent
chosen uniformly at random; all separation thresholds are gaps between
order statistics of the score vector, and ``separation_report`` is
the one place that turns a separation into threshold arithmetic.  The
sample-complexity inversion and the Kullback-Leibler / Fano calculators
quantify, respectively, how many comparison rounds suffice for recovery
and when no estimator can succeed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .model import ComparisonMatrix

if TYPE_CHECKING:
    from .setfamily import SetFamily


def scores(matrix: ComparisonMatrix) -> np.ndarray:
    """Per-item win probability against a uniformly random opponent.

    Row averages including the diagonal 1/2 term; the vector sums to
    ``n / 2``.
    """
    return matrix.entries.mean(axis=1)


def rank_order(tau) -> np.ndarray:
    """Items sorted by descending score, ties broken by smaller index."""
    tau = np.asarray(tau, dtype=np.float64)
    return np.lexsort((np.arange(tau.size), -tau))


def _predicate_separation(tau_sorted: np.ndarray, family: SetFamily) -> float:
    n, k = family.n, family.k
    rows = np.arange(k)
    # Coordinate j (0-based) at position t has the gap tau[j] - tau[b] with
    # b = k - j + t - 1, so row j's gaps are tau[j] - tau[b] for b >= k - j,
    # non-decreasing in b.  No k x n table is built: a probe counts every
    # row's gaps below v with one searchsorted on the scores.
    skip = k - rows
    head = tau_sorted[:k]
    ascending = -tau_sorted
    # padded[b + 1] is tau[b]; the sentinels make the gap "before" b = 0
    # read -inf and the gap "after" b = n - 1 read +inf
    padded = np.concatenate(([np.inf], tau_sorted, [-np.inf]))

    def below(v: float) -> np.ndarray:
        """Per row j, the number of b with ``tau[j] - tau[b] < v``, exactly."""
        m = ascending.searchsorted(v - head)  # off only by the rounding of v - head
        while True:
            over = head - padded[m] >= v  # the gap at b = m - 1 already reaches v
            short = head - padded[m + 1] < v  # the gap at b = m is still below v
            if not (over | short).any():
                return m
            # equal scores give equal gaps, so step over a whole run of them
            m = np.where(over, ascending.searchsorted(-padded[m]), m)
            m = np.where(short, ascending.searchsorted(-padded[m + 1], side="right"), m)

    def feasible(v: float) -> bool:
        # coordinate j's smallest position whose gap reaches v is
        # first_j + 1; lift so positions strictly increase:
        # t_j = max(first_j + 1, t_{j-1} + 1)
        first = np.maximum(below(v) - skip, 0)
        lifted = np.maximum.accumulate(first - rows) + rows + 1
        return lifted[-1] <= n and bool(family.predicate(tuple(lifted.tolist())))

    def last_feasible(values: np.ndarray) -> int:
        """Index of the largest feasible entry of a sorted array, or -1."""
        lo, hi = -1, values.size - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if feasible(float(values[mid])):
                lo = mid
            else:
                hi = mid - 1
        return lo

    if feasible(math.inf):
        return math.inf
    # search the gaps to every isqrt(n)-th order statistic first, then
    # only the gaps between the two sample values that bracket the answer
    cols = np.arange(0, n, math.isqrt(n))
    sample = np.unique((head[:, None] - tau_sorted[cols])[cols >= skip[:, None]])
    i = last_feasible(sample)
    start = np.maximum(below(sample[i]) if i >= 0 else 0, skip)
    stop = np.maximum(below(sample[i + 1]) if i + 1 < sample.size else n, skip)
    width = stop - start
    owner = np.repeat(rows, width)
    b = start[owner] + np.arange(owner.size) - (np.cumsum(width) - width)[owner]
    window = np.unique(head[owner] - tau_sorted[b])
    best = last_feasible(window)
    return float(window[best]) if best >= 0 else 0.0


def separation_family(tau, family: SetFamily) -> float:
    """Generalized separation threshold of a score vector for a family.

    The value is ``max`` over allowed sets ``T`` of ``min`` over
    coordinates ``j`` of ``tau_(j) - tau_(k + T_j - j + 1)``, where
    order statistics beyond position ``n`` count as ``-inf`` (their
    terms drop out of the minimum), so a family that allows a set with
    every term dropped has separation ``+inf``.  For the exact family
    this is the top-k separation; for the Hamming family it is the
    widened-window separation.  The gap of coordinate ``j`` grows with
    ``T_j``, so the maximum is found by a binary search over candidate
    gaps, each checked with the family's predicate on the smallest set
    attaining it: first over the gaps to a sample of the order
    statistics, then over the gaps between the two sample values that
    bracket the answer.
    """
    tau = np.asarray(tau, dtype=np.float64)
    if tau.shape != (family.n,):
        raise ValueError(f"score vector has length {tau.size}, expected {family.n}")
    return _predicate_separation(tau[rank_order(tau)], family)


def _meets_threshold(n: int, p: float, r: int, delta: float, alpha: float) -> bool:
    return delta >= alpha * math.sqrt(math.log(n) / (n * p * r))


def required_repetitions(n: int, p: float, delta: float, alpha: float) -> int:
    """Smallest repetition count at which ``delta`` clears the threshold.

    Returns the minimal integer ``r >= 1`` with
    ``delta >= alpha * sqrt(log(n) / (n * p * r))``, i.e. essentially
    ``ceil(alpha^2 log(n) / (n p delta^2))``, adjusted so the returned
    value (and not ``r - 1``) satisfies the inequality in floating
    point.  A count above ``2**53``, where ``r`` and ``r - 1`` round to
    the same float, raises ``ValueError``.
    """
    if n < 2:
        raise ValueError("need at least 2 items")
    if not 0.0 < p <= 1.0:
        raise ValueError(f"p must lie in (0, 1], got {p}")
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if delta <= 0:
        raise ValueError("separation is zero: no repetition count can satisfy the threshold")
    # alpha / delta first: alpha**2 can overflow and delta**2 underflow
    ratio = alpha / delta
    estimate = ratio * ratio * math.log(n) / (n * p)
    if not estimate <= 2.0**53:
        raise ValueError(
            f"alpha={alpha:g} needs about {estimate:.3g} repetitions at p={p:g}, more than 2**53"
        )
    r = max(1, math.ceil(estimate - 1e-12))
    while not _meets_threshold(n, p, r, delta, alpha):
        r += 1
    while r > 1 and _meets_threshold(n, p, r - 1, delta, alpha):
        r -= 1
    return r


def implied_alpha(n: int, p: float, r: int, delta: float) -> float:
    """The threshold constant a separation value attains at ``(n, p, r)``."""
    if n < 2:
        raise ValueError("need at least 2 items")
    if not 0.0 < p <= 1.0:
        raise ValueError(f"p must lie in (0, 1], got {p}")
    if r < 1:
        raise ValueError("r must be at least 1")
    return float(delta * math.sqrt(n * p * r / math.log(n)))


def _kl_bernoulli_terms(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise KL(Bern(a) || Bern(b)), with 0 log 0 = 0 and +inf
    where ``b`` puts zero mass on an outcome ``a`` charges."""
    out = np.zeros_like(a)
    with np.errstate(divide="ignore", invalid="ignore"):
        term1 = np.where(a > 0.0, a * (np.log(a) - np.log(b)), 0.0)
        term0 = np.where(a < 1.0, (1.0 - a) * (np.log1p(-a) - np.log1p(-b)), 0.0)
    out = term1 + term0
    out[(a > 0.0) & (b == 0.0)] = np.inf
    out[(a < 1.0) & (b == 1.0)] = np.inf
    return out


def kl_divergence(ma: ComparisonMatrix, mb: ComparisonMatrix, p: float, r: int) -> float:
    """Exact KL divergence between the full observation distributions.

    Observations under a matrix are, independently per unordered pair
    and per round, a three-outcome draw (no comparison with probability
    ``1 - p``; item i wins with ``p * M[i, j]``; item j wins with the
    complement).  The no-comparison term cancels, leaving
    ``r * p * sum_{i<j} KL(Bern(Ma[i,j]) || Bern(Mb[i,j]))``.  Returns
    ``inf`` when the second matrix puts zero mass on an outcome the
    first one charges.
    """
    if ma.n != mb.n:
        raise ValueError(f"matrix sizes differ: {ma.n} vs {mb.n}")
    if not 0.0 < p <= 1.0:
        raise ValueError(f"p must lie in (0, 1], got {p}")
    if r < 1:
        raise ValueError("r must be at least 1")
    iu, ju = np.triu_indices(ma.n, k=1)
    terms = _kl_bernoulli_terms(ma.entries[iu, ju], mb.entries[iu, ju])
    total = terms.sum()
    if not np.isfinite(total):
        return math.inf
    return float(r * p * total)


def fano_lower_bound(num_hypotheses: float, max_kl: float) -> float:
    """Weakened Fano bound on the error of any multi-hypothesis test.

    For ``L`` equiprobable hypotheses whose pairwise KL divergences are
    at most ``max_kl``, every test errs with probability at least
    ``1 - (max_kl + log 2) / log L`` (clamped at zero).
    """
    if num_hypotheses < 2:
        raise ValueError(f"need at least 2 hypotheses, got {num_hypotheses}")
    if max_kl < 0:
        raise ValueError("max_kl must be nonnegative")
    return max(0.0, 1.0 - (max_kl + math.log(2.0)) / math.log(num_hypotheses))


def planted_kl_bound(n: int, p: float, r: int, delta: float) -> float:
    """Closed-form KL bound for a pair of planted instances: ``2npr / (1/(4 d^2) - 1)``."""
    if not 0.0 < delta < 0.5:
        raise ValueError(f"delta must lie in (0, 1/2), got {delta}")
    return 2.0 * n * p * r / (1.0 / (4.0 * delta**2) - 1.0)


def adjacent_swap_kl_bound(n: int, p: float, r: int, delta0: float) -> float:
    """Closed-form KL bound for a pair of adjacent-swap instances: ``50 n p r d0^2``."""
    return 50.0 * n * p * r * delta0**2


def _finite_or_none(value: float | None) -> float | None:
    return value if value is not None and math.isfinite(value) else None


@dataclass(frozen=True)
class SeparationReport:
    """Separation of an instance under a family (its ``kind``) plus its
    sample-complexity reading.  A family that allows every set has
    infinite ``delta`` and ``alpha_implied`` and ``r_required`` 1;
    :meth:`to_dict` writes infinite fields as ``None`` (strict JSON).
    """

    n: int
    k: int
    family: str
    delta: float
    alpha_implied: float | None
    r_required: int | None

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "family": self.family,
            "delta": _finite_or_none(self.delta),
            "alpha_implied": _finite_or_none(self.alpha_implied),
            "r_required": self.r_required,
        }


def separation_report(
    matrix: ComparisonMatrix,
    family: SetFamily,
    p: float | None = None,
    r: int | None = None,
    alpha: float | None = None,
) -> SeparationReport:
    """Bundle the separation of a matrix under a family with its threshold arithmetic.

    ``alpha_implied`` needs ``(p, r)``; ``r_required`` needs a target
    ``alpha`` and ``p``.  Either is omitted (``None``) when its inputs
    are missing, and ``r_required`` also when the separation is zero.
    """
    delta = separation_family(scores(matrix), family)
    alpha_implied = None
    if p is not None and r is not None:
        alpha_implied = implied_alpha(matrix.n, p, r, delta)
    r_required = None
    if alpha is not None and p is not None and delta > 0:
        r_required = required_repetitions(matrix.n, p, delta, alpha)
    return SeparationReport(matrix.n, family.k, family.kind, delta, alpha_implied, r_required)
