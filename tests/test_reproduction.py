"""Claim (b): Copeland counting recovers the top k, and the whole ranking, of any matrix.

Shah & Wainwright (2015) prove Copeland's guarantee by a concentration
bound on each item's win count and a union bound over the items.  Its
constants can be written out:

- Item ``i``'s count ``W_i`` is a sum of ``r (n - 1)`` independent
  Bernoulli(``p M_ij``) terms, one per opponent ``j`` and round: each of
  the ``r`` rounds of a pair is observed with probability ``p`` and then
  won by ``i`` with probability ``M_ij``.
- With ``tau_i`` the row mean of ``M``, diagonal 1/2 included
  (:func:`pairrank.analysis.scores`), ``E W_i = p r (n tau_i - 1/2)``,
  so ``E W_i - E W_j = p r n (tau_i - tau_j)``.
- Each term lies within 1 of its mean and ``Var W_i <= p r n``.
  Bernstein's inequality at ``t = p r n Delta / 2`` gives
  ``P(|W_i - E W_i| >= t) <= 2 exp(-(t^2 / 2) / (p r n + t / 3))``
  ``= 2 exp(-p r n Delta^2 / (8 (1 + Delta / 6)))``.
- A union bound over the ``n`` items: every count lies within ``t`` of
  its mean except with probability at most
  ``B = 2 n exp(-p r n Delta^2 / (8 (1 + Delta / 6)))``.
- On that event, ``tau_i - tau_j >= Delta`` gives
  ``W_i - W_j > p r n Delta - 2 t = 0``: item ``i`` wins strictly more
  often than item ``j``, so the tie rule is never reached.

With ``Delta`` the exact-family separation ``tau_(k) - tau_(k+1)``, every
top-k item outwins every other item, so Copeland's top k is the true
top k.  With ``Delta`` the smallest gap between adjacent scores, every
pair is ordered, so Copeland's ranking is the true order.  In the
package's terms, ``Delta = alpha sqrt(log n / (n p r))`` gives
``B = 2 n n^(-alpha^2 / (8 (1 + Delta / 6)))``; at ``n = 64``, ``B <= 0.05``
needs ``alpha`` of about 3.9.

Each check sizes ``r`` as the smallest count with ``B <= LEVEL``, so a
draw fails with probability at most ``LEVEL`` and the failures among
``TRIALS`` draws are at most Binomial(``TRIALS``, ``LEVEL``).  A check
allows ``ALLOWED`` failures: the least count that this binomial exceeds
with probability at most ``FALSE_ALARM``, fixed before any draw.

The matrices follow no model.  Their upper entries are uniform, with
weight at least 0.6, so nearly all hold cycles (``i`` beats ``j`` beats
``l`` beats ``i``) and no order of the items is transitive; a planted block
lifts a random k-set over the other items; and a staircase of weight
``c`` along the mixture's own order puts a floor ``c / n`` under every
adjacent score gap, so ``r`` stays below about ``3 * 10^7``.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from pairrank.model import make_matrix
from pairrank.rank import copeland_ranking, copeland_topk
from pairrank.sample import draw_observations

from conftest import separation_topk

LEVEL = 0.05  # the bound's value at the chosen r: a draw fails at most this often
TRIALS = 40  # draws per matrix and check
FALSE_ALARM = 1e-6  # the chance that a check fails when every draw keeps to the bound


def binomial_tail(trials: int, q: float, allowed: int) -> float:
    """``P(X > allowed)`` for ``X ~ Binomial(trials, q)``."""
    return sum(
        math.comb(trials, x) * q**x * (1 - q) ** (trials - x)
        for x in range(allowed + 1, trials + 1)
    )


ALLOWED = next(f for f in range(TRIALS + 1) if binomial_tail(TRIALS, LEVEL, f) <= FALSE_ALARM)


def union_bound(n: int, p: float, r: int, delta: float) -> float:
    """``B``: the chance that some win count strays ``p r n delta / 2`` from its mean."""
    return 2 * n * math.exp(-p * r * n * delta**2 / (8 * (1 + delta / 6)))


def repetitions(n: int, p: float, delta: float) -> int:
    """The smallest ``r`` with ``union_bound(n, p, r, delta) <= LEVEL``."""
    r = max(1, math.ceil(8 * (1 + delta / 6) * math.log(2 * n / LEVEL) / (p * n * delta**2)))
    while union_bound(n, p, r, delta) > LEVEL:
        r += 1
    while r > 1 and union_bound(n, p, r - 1, delta) <= LEVEL:
        r -= 1
    return r


def cyclic_matrix(n: int, k: int, planted: float, stair: float, seed: int):
    """A matrix of uniform, planted-block and staircase parts, and its score order.

    The weights are ``1 - planted - stair``, ``planted`` and ``stair``.
    Each part is a comparison matrix, so their mixture is one too.  The
    staircase follows the order of the other two parts' scores, so every
    adjacent score gap is at least ``stair / n``.
    """
    rng = np.random.default_rng(seed)
    uniform = np.triu(rng.random((n, n)), 1)
    uniform += np.tril(1.0 - uniform.T, -1) + 0.5 * np.eye(n)
    top = np.zeros(n, dtype=bool)
    top[rng.choice(n, size=k, replace=False)] = True
    block = np.where(top[:, None] == top[None, :], 0.5, top[:, None].astype(float))
    mixture = (1.0 - planted - stair) * uniform + planted * block
    order = np.argsort(-mixture.mean(axis=1), kind="stable")
    position = np.argsort(order)
    staircase = np.where(position[:, None] < position[None, :], 1.0, 0.0) + 0.5 * np.eye(n)
    return make_matrix(mixture + stair * staircase), tuple(int(i) for i in order)


@st.composite
def instances(draw):
    n = draw(st.integers(8, 40))
    k = draw(st.integers(1, n - 1))
    p = draw(st.sampled_from((1.0, 0.5, 0.2)))
    stair = draw(st.floats(0.02, 0.1))
    planted = draw(st.floats(0.0, 0.3))
    seed = draw(st.integers(0, 2**32 - 1))
    matrix, order = cyclic_matrix(n, k, planted, stair, seed)
    return matrix, order, k, p, stair, seed


def test_matrices_hold_cycles_and_a_gap_floor():
    cyclic = 0
    for seed in range(40):  # the smallest n and the largest non-uniform weights drawn
        matrix, order = cyclic_matrix(8, 3, 0.3, 0.1, seed)
        beats = (matrix.entries > 0.5).astype(np.int64)
        cyclic += np.trace(beats @ beats @ beats) > 0  # a 3-cycle: no order is transitive
        tau = matrix.entries.mean(axis=1)
        assert np.all(np.diff(tau[list(order)]) <= -0.1 / 8 + 1e-12), seed
    assert cyclic >= 36


@settings(max_examples=100, deadline=None)
@given(instances())
def test_copeland_top_k_keeps_to_the_bound(instance):
    matrix, order, k, p, _, seed = instance
    r = repetitions(matrix.n, p, separation_topk(matrix, k))
    truth = set(order[:k])
    failures = sum(
        set(copeland_topk(draw_observations(matrix, p, r, seed + t), k).items) != truth
        for t in range(TRIALS)
    )
    assert failures <= ALLOWED, (failures, r)


@settings(max_examples=100, deadline=None)
@given(instances())
def test_copeland_ranking_keeps_to_the_bound(instance):
    matrix, order, _, p, stair, seed = instance
    gap = float(np.min(-np.diff(matrix.entries.mean(axis=1)[list(order)])))
    assert gap >= stair / matrix.n - 1e-12  # ``order`` is the score order, with the floor
    r = repetitions(matrix.n, p, gap)
    failures = sum(
        copeland_ranking(draw_observations(matrix, p, r, seed + t)) != order
        for t in range(TRIALS)
    )
    assert failures <= ALLOWED, (failures, r)
