"""Estimators: Copeland counting and a spectral-MLE-like baseline.

The counting estimator ranks items by their total number of pairwise
wins, breaking ties in favor of smaller item indices.  The baseline
chains a Rank-Centrality-style stationary-distribution stage with a
Newton refinement of the Bradley-Terry-Luce likelihood; it is
labeled "spectral_baseline" throughout and makes the parametric
assumptions the counting rule avoids.

The stationary stage finds the walk's one closed class by breadth-first
descent and solves for the walk's distribution on it, zero elsewhere.
Each Newton trial computes one logistic matrix, which judges the trial
and, once accepted, starts the next step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _special
from .analysis import rank_order
from .sample import ObservationSet


class DisconnectedGraphError(RuntimeError):
    """The comparison graph has more than one connected component."""


class StationaryError(RuntimeError):
    """The Rank Centrality walk has no unique stationary distribution."""


STATIONARY_ATOL = 1e-10  # the most one walk step may move a solved stationary vector


@dataclass(frozen=True)
class TopKEstimate:
    """A selected k-subset, ordered by descending score (win count for Copeland).

    ``tie_broken`` is set when the boundary was decided by the
    smallest-index rule rather than by a strict score gap.
    """

    items: tuple[int, ...]
    tie_broken: bool


def topk_from_scores(score_vector, k: int) -> TopKEstimate:
    """Top-k selection from a real score vector, ties by smaller index.

    ``tie_broken`` flags a tie straddling the k-boundary.
    """
    score_vector = np.asarray(score_vector, dtype=np.float64)
    n = score_vector.size
    if not 1 <= k <= n:
        raise ValueError(f"k must satisfy 1 <= k <= n, got k={k}, n={n}")
    order = rank_order(score_vector)
    tie = k < n and score_vector[order[k - 1]] == score_vector[order[k]]
    return TopKEstimate(items=tuple(int(i) for i in order[:k]), tie_broken=bool(tie))


def copeland_topk(obs: ObservationSet, k: int) -> TopKEstimate:
    """The k items with the most pairwise wins, ties by smaller index.

    The counts are :meth:`~pairrank.sample.ObservationSet.win_totals`,
    taken from the pair vectors without building an ``n x n`` array.
    Win counts stay far below ``2**53``, so they order as floats do.
    """
    return topk_from_scores(obs.win_totals(), k)


def copeland_ranking(obs: ObservationSet) -> tuple[int, ...]:
    """All items by descending win count, ties by smaller index.

    Its length-k prefix equals :func:`copeland_topk` for every k.
    """
    return tuple(int(i) for i in rank_order(obs.win_totals()))


def _reach(edges: np.ndarray, start: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Items reached from the ``start`` mask along edges ``i -> j`` (``edges[i, j]``),
    breadth-first, and the last frontier: the items farthest from the start."""
    reached, layer = start.copy(), start
    while True:
        frontier = edges[layer].any(axis=0) & ~reached
        if not frontier.any():
            return reached, layer
        reached |= frontier
        layer = frontier


def _closed_class(moves: np.ndarray) -> np.ndarray:
    """Mask of the walk's one closed class; ``moves[i, j]`` marks a step ``i -> j``.

    Closed classes are the strong components no move leaves, the whole
    walk if strongly connected; :class:`StationaryError` if not exactly one.
    Each class is found by descent from an item that reaches no class yet:
    while the item reaches items that do not reach it back (the leak), step
    to one of those, from the deepest search layer with the fewest moves out,
    or else with the fewest moves out.  A strongly connected walk costs one
    search each way.
    """
    items = np.arange(moves.shape[0])
    feeds = np.zeros(items.size, dtype=bool)  # items that reach a class found so far
    classes, out_degree = [], None
    while not feeds.all():
        y = int(np.argmin(feeds))
        while True:
            ahead, deepest = _reach(moves, items == y)
            behind, _ = _reach(moves.T, items == y)
            leak = ahead & ~behind
            if not leak.any():
                break
            if out_degree is None:
                out_degree = moves.sum(axis=1)
            pick = items[leak & deepest if (leak & deepest).any() else leak]
            y = int(pick[np.argmin(out_degree[pick])])
        classes.append(ahead)
        feeds |= behind
    if len(classes) != 1:
        raise StationaryError(f"the random walk has {len(classes)} closed classes, not one")
    return classes[0]


def _stationary(rates: np.ndarray) -> np.ndarray:
    """Stationary vector of an irreducible walk, from one linear solve.

    ``pi (P - I) = 0`` with ``P - I = (R - diag(R 1)) / d_max`` does not
    depend on ``d_max``; adding ``1 1^T`` to the transposed system fixes
    ``sum(pi) = 1`` and makes it regular.  Round-off negatives clip to 0.
    """
    system = rates.T + 1.0
    system.flat[:: rates.shape[0] + 1] -= rates.sum(axis=1)  # rates has a zero diagonal
    try:
        pi = np.maximum(np.linalg.solve(system, np.ones(rates.shape[0])), 0.0)
    except np.linalg.LinAlgError as exc:
        raise StationaryError("the stationary system is singular") from exc
    return pi / pi.sum()


def rank_centrality(obs: ObservationSet) -> np.ndarray:
    """Stationary distribution of the empirical win-rate random walk.

    The walk moves from ``i`` to ``j`` with probability
    ``(wins_j / comparisons_ij) / d_max`` (``d_max`` the comparison graph's
    maximum degree); remaining mass stays put, so items that beat many
    others accumulate mass.  Solved for on the walk's closed class, with
    transient items (say, one that never wins) at zero, and returned after
    one confirming step.  Raises :class:`DisconnectedGraphError` on a
    disconnected comparison graph, and :class:`StationaryError` on several
    closed classes or a step that moves it by ``STATIONARY_ATOL`` or more.
    """
    comparisons, wins = obs.comparisons, obs.wins
    compared = comparisons > 0
    if not _reach(compared, np.arange(obs.n) == 0)[0].all():
        raise DisconnectedGraphError("comparison graph is not connected")
    d_max = max(int(compared.sum(axis=1).max()), 1)  # 0 only for a lone item
    rates = np.where(compared, wins.T / np.maximum(comparisons, 1), 0.0)
    transition = rates / d_max
    np.fill_diagonal(transition, 0.0)
    np.fill_diagonal(transition, 1.0 - transition.sum(axis=1))
    closed = _closed_class(rates > 0)
    pi = np.zeros(obs.n)
    # indexing out the class costs ~10% of a call (n = 100-1000): a whole-walk class skips it
    pi[closed] = _stationary(rates if closed.all() else rates[np.ix_(closed, closed)])
    nxt = pi @ transition
    nxt /= nxt.sum()
    residual = np.abs(nxt - pi).max()
    if not residual < STATIONARY_ATOL:
        raise StationaryError(f"one walk step moves the solved stationary vector by {residual:.3g}")
    return nxt


_W_BOUND = 40.0  # beyond this the logistic CDF saturates at double precision
_NEWTON_ITERS = 100


def _log_weights(scores: np.ndarray) -> np.ndarray:
    """Centred logs of nonnegative scores within ``[-_W_BOUND, _W_BOUND]``, zeros at the floor."""
    w = np.full(scores.size, -_W_BOUND)
    positive = scores > 0
    logs = np.log(scores[positive])
    w[positive] = np.clip(logs - logs.mean(), -_W_BOUND, _W_BOUND)
    return w


def _logistic(w: np.ndarray) -> np.ndarray:
    """``sigma(w_i - w_j)`` at ``[i, j]``, as ``1 / (1 + exp(w_j - w_i))``.

    Log-weights lie in ``[-_W_BOUND, _W_BOUND]``, so the exponent is at
    most 80 and cannot overflow.
    """
    return 1.0 / (1.0 + np.exp(w[None, :] - w[:, None]))


def btl_loglikelihood(obs: ObservationSet, weights) -> float:
    """BTL log-likelihood of aggregated counts at nonnegative weights.

    Exact at positive weights.  A zero weight (a transient Rank Centrality
    item) has no log: a vector with zeros is read as :func:`mle_refine` reads its start.
    """
    weights = np.asarray(weights, dtype=np.float64)
    valid = weights.shape == (obs.n,) and np.isfinite(weights).all() and weights.min() >= 0
    if not valid or not weights.any():
        raise ValueError("weights must be nonnegative, finite, not all zero and of length n")
    w = np.log(weights) if np.all(weights > 0) else _log_weights(weights)
    return float(np.sum(obs.wins * _special.log_expit(w[:, None] - w[None, :])))


def mle_refine(obs: ObservationSet, init) -> np.ndarray:
    """Newton ascent on the BTL likelihood, started from a score vector.

    ``init`` is nonnegative, finite and not all zero; ``_log_weights``
    gives the start, zero entries at ``-_W_BOUND``.  Each step solves
    the weighted graph Laplacian ``diag(A 1) - A``, with
    ``A = C * sigma * (1 - sigma)``, plus ``1 1^T / n`` (the likelihood
    ignores a common shift) and a small ridge, which keeps the system
    regular when an item wins or loses every comparison.  A
    backtracking line search accepts a step only if the log-likelihood
    does not fall, so it never decreases; log-weights stay in
    ``[-_W_BOUND, _W_BOUND]`` and are re-centred after each step.  Stops
    once every ``|grad_i| <= 1e-10 * (1 + degree_i)``, when no step is
    acceptable, or after an internal iteration cap.  Returns positive
    weights normalized to sum 1.

    ``sigma`` is built by :func:`_logistic` as ``1 / (1 + exp(w_j - w_i))``
    with numpy's ``exp``: the n x n matrix each trial needs takes about a
    third of the time of ``scipy.special.expit``, and agrees with it
    within 5e-16 relative (checked on 10**6 points over [-80, 80]).
    """
    init = np.asarray(init, dtype=np.float64)
    n = obs.n
    if init.shape != (n,) or np.any(init < 0) or not np.isfinite(init).all() or not init.any():
        raise ValueError(f"init must be nonnegative, finite, not all zero and of length {n}")
    w = _log_weights(init)
    wins = obs.wins
    comps = obs.comparisons.astype(np.float64)
    win_totals = wins.sum(axis=1).astype(np.float64)
    degree = comps.sum(axis=1)
    gtol = 1e-10 * (1.0 + degree)
    regular = np.diag(1e-9 * (1.0 + degree)) + 1.0 / n
    # flat indices of the won pairs (i, j) and of their mirrors (j, i)
    won_flat = np.flatnonzero(wins)
    mirror = won_flat % n * n + won_flat // n
    won = wins.ravel().take(won_flat).astype(np.float64)

    def gain(w, cand, s_cand):
        # log-likelihood of cand minus that of w, summed over won pairs as
        # log1p(expm1(d' - d) * sigma(-d')) with d' - d taken from cand - w:
        # the difference of two totals is lost to rounding near the optimum.
        # sigma(-d') is read from cand's logistic matrix at the mirrored
        # pair.  A pair pushed ~37 logits against its result reads -inf:
        # rejected.
        delta = cand - w
        spread = np.subtract.outer(delta, delta).ravel().take(won_flat)
        with np.errstate(divide="ignore"):
            terms = np.log1p(np.expm1(spread) * s_cand.ravel().take(mirror))
        return float(won @ terms)

    s = _logistic(w)
    for _ in range(_NEWTON_ITERS):
        cs = comps * s
        grad = win_totals - cs.sum(axis=1)
        if np.all(np.abs(grad) <= gtol):
            break
        a = cs * (1.0 - s)
        hessian = regular - a
        hessian.flat[:: n + 1] += a.sum(axis=1)  # a has a zero diagonal
        step = np.linalg.solve(hessian, grad)
        for _ in range(60):  # 2**-60 of a step moves no log-weight
            cand = w + step
            cand = np.clip(cand - cand.mean(), -_W_BOUND, _W_BOUND)
            s_cand = _logistic(cand)
            if gain(w, cand, s_cand) >= 0:
                break
            step *= 0.5
        else:
            break
        w, s = cand, s_cand
    weights = np.exp(w)
    return weights / weights.sum()


def spectral_baseline(obs: ObservationSet) -> np.ndarray:
    """Rank-Centrality stage followed by Newton refinement of the BTL likelihood.

    :func:`rank_centrality` (whose errors pass through) starts
    :func:`mle_refine` at its stationary distribution; both are looked
    up as module attributes at call time.  Ranking by the positive,
    sum-1 score vector is the "spectral_baseline" estimator.
    """
    return mle_refine(obs, rank_centrality(obs))

