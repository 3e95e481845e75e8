"""Estimators: Copeland counting and a spectral-MLE-like baseline.

The counting estimator ranks items by their total number of pairwise
wins, breaking ties in favor of smaller item indices.  The baseline
chains a Rank-Centrality-style stationary-distribution stage with a
Newton refinement of the Bradley-Terry-Luce likelihood; it is
labeled "spectral_baseline" throughout and makes the parametric
assumptions the counting rule avoids.

When the "j beat i" digraph is strongly connected the random walk is
irreducible, and the stationary stage solves for its distribution
directly; power iteration from there only confirms it.  Otherwise
(an item that never wins, or one that never loses) it iterates from
the uniform vector.  Each Newton trial computes one logistic matrix,
which both judges the trial and, once accepted, starts the next step.
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


def _connected(adjacency: np.ndarray, strongly: bool = False) -> bool:
    """Whether the graph is connected: breadth-first from item 0, one frontier per step.

    ``adjacency[i, j]`` is an edge ``i -> j``.  Connectivity means every
    item is reached from item 0, which on a symmetric adjacency is
    undirected connectivity.  With ``strongly`` the same search also
    runs over the transpose, so item 0 must be reached from every item
    too: strong connectivity of the digraph.
    """
    for edges in (adjacency, adjacency.T) if strongly else (adjacency,):
        seen = np.zeros(edges.shape[0], dtype=bool)
        seen[0] = True
        frontier = seen.copy()
        while frontier.any():
            frontier = edges[frontier].any(axis=0) & ~seen
            seen |= frontier
        if not seen.all():
            return False
    return True


def _exact_start(rates: np.ndarray) -> np.ndarray | None:
    """The walk's stationary vector from one linear solve, or ``None``.

    ``pi (P - I) = 0`` with ``P - I = (R - diag(R 1)) / d_max`` does not
    depend on ``d_max``; adding ``1 1^T`` to the transposed system fixes
    ``sum(pi) = 1`` and makes it regular when the walk is irreducible.
    ``None`` when the walk is reducible or the solve gives a vector that
    is not finite and strictly positive.
    """
    if not _connected(rates > 0, strongly=True):
        return None
    system = rates.T - np.diag(rates.sum(axis=1)) + 1.0
    try:
        pi = np.linalg.solve(system, np.ones(rates.shape[0]))
    except np.linalg.LinAlgError:
        return None
    if not (np.all(np.isfinite(pi)) and np.all(pi > 0)):
        return None
    return pi / pi.sum()


def rank_centrality(obs: ObservationSet, tol: float = 1e-10, max_iters: int = 100000) -> np.ndarray:
    """Stationary distribution of the empirical win-rate random walk.

    The walk moves from ``i`` to ``j`` with probability
    ``(wins_j / comparisons_ij) / d_max`` where ``d_max`` is the
    maximum degree of the comparison graph; remaining mass stays put.
    Items that beat many others accumulate stationary mass.  Requires a
    connected comparison graph.  Power iteration starts at the exact
    stationary vector when the "j beat i" digraph is strongly connected
    (the walk is irreducible, so one dense solve gives it) and the first
    step then confirms it; otherwise, or if the solve yields a vector
    that is not strictly positive, it starts uniform.  Raises
    :class:`ConvergenceError` when successive iterates still differ by
    ``tol`` after ``max_iters`` steps.
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
    pi = _exact_start(rates)
    if pi is None:
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
_NEWTON_ITERS = 100


def mle_refine(obs: ObservationSet, init) -> np.ndarray:
    """Newton ascent on the BTL likelihood, started from a score vector.

    ``init`` is nonnegative, finite and not all zero; its log is the
    starting point, with zero entries at ``-_W_BOUND``.  Each step
    solves the weighted graph Laplacian ``diag(A 1) - A``, with
    ``A = C * sigma * (1 - sigma)``, plus ``1 1^T / n`` (the likelihood
    ignores a common shift) and a small ridge, which keeps the system
    regular when an item wins or loses every comparison.  A
    backtracking line search accepts a step only if the log-likelihood
    does not fall, so it never decreases; log-weights stay in
    ``[-_W_BOUND, _W_BOUND]`` and are re-centred after each step.  Stops
    once every ``|grad_i| <= 1e-10 * (1 + degree_i)``, when no step is
    acceptable, or after an internal iteration cap.  Returns positive
    weights normalized to sum 1.
    """
    init = np.asarray(init, dtype=np.float64)
    n = obs.n
    if init.shape != (n,):
        raise ValueError(f"init must have length {n}")
    if np.any(init < 0) or not np.all(np.isfinite(init)) or not init.any():
        raise ValueError("init must be nonnegative, finite and not all zero")
    w = np.full(n, -_W_BOUND)
    positive = init > 0
    logs = np.log(init[positive])
    w[positive] = np.clip(logs - logs.mean(), -_W_BOUND, _W_BOUND)
    comps = obs.comparisons.astype(np.float64)
    win_totals = obs.wins.sum(axis=1).astype(np.float64)
    degree = comps.sum(axis=1)
    gtol = 1e-10 * (1.0 + degree)
    regular = np.diag(1e-9 * (1.0 + degree)) + 1.0 / n
    won_i, won_j = np.nonzero(obs.wins)
    won = obs.wins[won_i, won_j].astype(np.float64)

    def gain(w, cand, s_cand):
        # log-likelihood of cand minus that of w, summed over won pairs as
        # log1p(expm1(d' - d) * sigma(-d')) with d' - d taken from cand - w:
        # the difference of two totals is lost to rounding near the optimum.
        # sigma(-d') is read from cand's logistic matrix at the mirrored
        # pair (a - b == -(b - a) exactly).  A pair pushed ~37 logits
        # against its result reads -inf: rejected.
        delta = cand - w
        with np.errstate(divide="ignore"):
            terms = np.log1p(np.expm1(delta[won_i] - delta[won_j]) * s_cand[won_j, won_i])
        return float(won @ terms)

    s = expit(w[:, None] - w[None, :])
    for _ in range(_NEWTON_ITERS):
        cs = comps * s
        grad = win_totals - cs.sum(axis=1)
        if np.all(np.abs(grad) <= gtol):
            break
        a = cs * (1.0 - s)
        step = np.linalg.solve(np.diag(a.sum(axis=1)) - a + regular, grad)
        for _ in range(60):  # 2**-60 of a step moves no log-weight
            cand = w + step
            cand = np.clip(cand - cand.mean(), -_W_BOUND, _W_BOUND)
            s_cand = expit(cand[:, None] - cand[None, :])
            if gain(w, cand, s_cand) >= 0:
                break
            step *= 0.5
        else:
            break
        w, s = cand, s_cand
    weights = np.exp(w)
    return weights / weights.sum()


def spectral_baseline(
    obs: ObservationSet, tol: float = 1e-10, max_iters: int = 100000
) -> np.ndarray:
    """Rank-Centrality stage followed by Newton refinement of the BTL likelihood.

    The stationary distribution of :func:`rank_centrality` starts
    :func:`mle_refine`; both are looked up as module attributes at call
    time.  The combined score vector is positive and sums to 1; ranking
    by it is the "spectral_baseline" estimator used in benchmarks.
    """
    init = rank_centrality(obs, tol=tol, max_iters=max_iters)
    return mle_refine(obs, init)


def topk_from_scores(score_vector, k: int) -> TopKEstimate:
    """Top-k selection from a real score vector, ties by smaller index."""
    score_vector = np.asarray(score_vector, dtype=np.float64)
    n = score_vector.size
    if not 1 <= k <= n:
        raise ValueError(f"k must satisfy 1 <= k <= n, got k={k}, n={n}")
    order = np.lexsort((np.arange(n), -score_vector))
    tie = k < n and score_vector[order[k - 1]] == score_vector[order[k]]
    return TopKEstimate(items=tuple(int(i) for i in order[:k]), tie_broken=bool(tie))
