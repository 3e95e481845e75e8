"""Estimators: Copeland counting and a spectral-MLE-like baseline.

The counting estimator ranks items by their total number of pairwise
wins, breaking ties in favor of smaller item indices.  The baseline
chains a Rank-Centrality-style stationary-distribution stage with
coordinate-wise refinement of the Bradley-Terry-Luce likelihood; it is
labeled "spectral_baseline" throughout and makes the parametric
assumptions the counting rule avoids.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit, log_expit

from .sample import ObservationSet


class DisconnectedGraphError(RuntimeError):
    """The comparison graph has more than one connected component."""


class ConvergenceError(RuntimeError):
    """Power iteration did not converge within the iteration budget."""


@dataclass(frozen=True)
class TopKEstimate:
    """A selected k-subset, ordered by descending win count.

    ``tie_broken`` is set when the boundary was decided by the
    smallest-index rule rather than by a strict count gap.
    """

    items: tuple[int, ...]
    tie_broken: bool

    @property
    def k(self) -> int:
        return len(self.items)


@dataclass(frozen=True)
class RankingEstimate:
    """Full permutation of the items, best first."""

    order: tuple[int, ...]


def win_counts(obs: ObservationSet) -> np.ndarray:
    """Total comparisons won per item."""
    return obs.wins.sum(axis=1)


def _count_order(counts: np.ndarray) -> np.ndarray:
    """Items by descending count, ties broken by smaller index."""
    return np.lexsort((np.arange(counts.size), -counts))


def copeland_topk(obs: ObservationSet, k: int) -> TopKEstimate:
    """The k items with the most pairwise wins.

    Ties are resolved in favor of smaller item indices; ``tie_broken``
    flags a tie straddling the k-boundary.
    """
    if not 1 <= k <= obs.n:
        raise ValueError(f"k must satisfy 1 <= k <= n, got k={k}, n={obs.n}")
    counts = win_counts(obs)
    order = _count_order(counts)
    tie_broken = k < obs.n and counts[order[k - 1]] == counts[order[k]]
    return TopKEstimate(items=tuple(int(i) for i in order[:k]), tie_broken=bool(tie_broken))


def copeland_ranking(obs: ObservationSet) -> RankingEstimate:
    """Full ranking by descending win count, ties by smaller index.

    Its length-k prefix equals :func:`copeland_topk` for every k.
    """
    order = _count_order(win_counts(obs))
    return RankingEstimate(order=tuple(int(i) for i in order))


def _connected(adjacency: np.ndarray) -> bool:
    n = adjacency.shape[0]
    seen = np.zeros(n, dtype=bool)
    stack = [0]
    seen[0] = True
    while stack:
        u = stack.pop()
        for v in np.flatnonzero(adjacency[u]):
            if not seen[v]:
                seen[v] = True
                stack.append(int(v))
    return bool(seen.all())


def rank_centrality(obs: ObservationSet, tol: float = 1e-10, max_iters: int = 100000) -> np.ndarray:
    """Stationary distribution of the empirical win-rate random walk.

    The walk moves from ``i`` to ``j`` with probability
    ``(wins_j / comparisons_ij) / d_max`` where ``d_max`` is the
    maximum degree of the comparison graph; remaining mass stays put.
    Items that beat many others accumulate stationary mass.  Requires a
    connected comparison graph; raises :class:`ConvergenceError` when
    successive iterates still differ by ``tol`` after ``max_iters``
    steps.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    n = obs.n
    compared = obs.comparisons > 0
    if not _connected(compared):
        raise DisconnectedGraphError("comparison graph is not connected")
    degrees = compared.sum(axis=1)
    d_max = int(degrees.max())
    with np.errstate(invalid="ignore", divide="ignore"):
        rates = np.where(compared, obs.wins.T / np.maximum(obs.comparisons, 1), 0.0)
    transition = rates / d_max
    np.fill_diagonal(transition, 0.0)
    np.fill_diagonal(transition, 1.0 - transition.sum(axis=1))
    pi = np.full(n, 1.0 / n)
    for _ in range(max_iters):
        nxt = pi @ transition
        nxt /= nxt.sum()
        if np.abs(nxt - pi).max() < tol:
            return nxt
        pi = nxt
    raise ConvergenceError(f"power iteration did not converge in {max_iters} iterations")


def btl_loglikelihood(obs: ObservationSet, weights) -> float:
    """BTL log-likelihood of aggregated counts at positive weights."""
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (obs.n,) or np.any(weights <= 0):
        raise ValueError("weights must be a strictly positive vector of length n")
    w = np.log(weights)
    iu, ju = np.triu_indices(obs.n, k=1)
    diffs = w[iu] - w[ju]
    return float(
        np.sum(obs.wins[iu, ju] * log_expit(diffs) + obs.wins[ju, iu] * log_expit(-diffs))
    )


_W_BOUND = 40.0  # beyond this the logistic CDF saturates at double precision


def _row_objective(x: float, w: np.ndarray, wins_row, wins_col) -> float:
    # uncompared pairs and the self term carry zero counts, so no
    # masking is needed: their contributions vanish exactly
    d = x - w
    return float(wins_row @ log_expit(d) + wins_col @ log_expit(-d))


def _solve_coordinate(x0: float, w: np.ndarray, win_total: float, comps_row) -> float:
    """Maximize the likelihood in one coordinate with the others fixed.

    The coordinate gradient ``win_total - sum_j c_j * sigma(x - w_j)``
    is strictly decreasing, so the maximizer is its unique root; Newton
    steps are safeguarded by bisection on a sign-changing bracket.  The
    search is confined to ``[-_W_BOUND, _W_BOUND]``, which keeps items
    that won (or lost) every comparison finite.
    """
    gtol = 1e-10 * (1.0 + float(comps_row.sum()))

    def evaluate(x: float) -> tuple[float, float]:
        s = expit(x - w)
        cs = comps_row * s
        return float(win_total - cs.sum()), float(-(cs @ (1.0 - s)))

    x = float(np.clip(x0, -_W_BOUND, _W_BOUND))
    g, curv = evaluate(x)
    if g == 0.0:
        return x
    # expand a bracket [lo, hi] with grad(lo) > 0 > grad(hi)
    step = 1.0
    if g > 0:
        lo = x
        while True:
            cand = min(x + step, _W_BOUND)
            g_c, curv_c = evaluate(cand)
            if g_c <= 0:
                hi, x, g, curv = cand, cand, g_c, curv_c
                break
            lo = cand
            if cand >= _W_BOUND:
                return _W_BOUND
            step *= 2.0
    else:
        hi = x
        while True:
            cand = max(x - step, -_W_BOUND)
            g_c, curv_c = evaluate(cand)
            if g_c >= 0:
                lo, x, g, curv = cand, cand, g_c, curv_c
                break
            hi = cand
            if cand <= -_W_BOUND:
                return -_W_BOUND
            step *= 2.0
    for _ in range(100):
        if hi - lo < 1e-13 * max(1.0, abs(lo) + abs(hi)) or abs(g) <= gtol:
            break
        x_new = None
        if curv <= -1e-14:
            cand = x - g / curv
            if lo < cand < hi:
                x_new = cand
        if x_new is None:
            x_new = 0.5 * (lo + hi)
        g_new, curv_new = evaluate(x_new)
        if g_new > 0:
            lo = x_new
        else:
            hi = x_new
        x, g, curv = x_new, g_new, curv_new
    return float(x)


def mle_refine(obs: ObservationSet, init, sweeps: int = 20) -> np.ndarray:
    """Coordinate-ascent refinement of the BTL likelihood.

    Runs ``sweeps`` rounds of one-dimensional Newton updates (bisection
    safeguard) over the log-weights, starting from a strictly positive
    score vector.  The log-likelihood never decreases across sweeps.
    Returns positive weights normalized to sum 1.
    """
    init = np.asarray(init, dtype=np.float64)
    if init.shape != (obs.n,):
        raise ValueError(f"init must have length {obs.n}")
    if np.any(init <= 0) or not np.all(np.isfinite(init)):
        raise ValueError("init must be strictly positive and finite")
    if sweeps < 0:
        raise ValueError("sweeps must be nonnegative")
    w = np.log(init)
    w = np.clip(w - w.mean(), -_W_BOUND, _W_BOUND)
    win_totals = obs.wins.sum(axis=1).astype(np.float64)
    for _ in range(sweeps):
        for i in range(obs.n):
            comps_row = obs.comparisons[i]
            old = float(w[i])
            new = _solve_coordinate(old, w, win_totals[i], comps_row)
            if abs(new - old) <= 1e-12 * (1.0 + abs(old)):
                continue
            # accept only non-decreasing row objectives so float noise
            # in the solver can never break the ascent guarantee
            wins_row = obs.wins[i]
            wins_col = obs.wins[:, i]
            if _row_objective(new, w, wins_row, wins_col) >= _row_objective(
                old, w, wins_row, wins_col
            ):
                w[i] = new
        w -= w.mean()
    weights = np.exp(w)
    return weights / weights.sum()


def spectral_baseline(
    obs: ObservationSet,
    tol: float = 1e-10,
    max_iters: int = 100000,
    sweeps: int = 20,
) -> np.ndarray:
    """Rank-Centrality stage followed by BTL likelihood refinement.

    The combined score vector is positive and sums to 1; ranking by it
    is the "spectral_baseline" estimator used in benchmarks.
    """
    init = rank_centrality(obs, tol=tol, max_iters=max_iters)
    return mle_refine(obs, init, sweeps=sweeps)


def topk_from_scores(score_vector, k: int) -> TopKEstimate:
    """Top-k selection from a real score vector, ties by smaller index."""
    score_vector = np.asarray(score_vector, dtype=np.float64)
    n = score_vector.size
    if not 1 <= k <= n:
        raise ValueError(f"k must satisfy 1 <= k <= n, got k={k}, n={n}")
    order = np.lexsort((np.arange(n), -score_vector))
    tie = k < n and score_vector[order[k - 1]] == score_vector[order[k]]
    return TopKEstimate(items=tuple(int(i) for i in order[:k]), tie_broken=bool(tie))
