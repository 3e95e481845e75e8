"""Shared test helpers: independent oracles and small builders.

The separation oracles restate the closed forms for top-k and Hamming
recovery with their own ``np.sort``, so they check
:func:`pairrank.separation_family` without sharing its ordering code.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np
import pytest

from pairrank import ObservationSet, position_set


def ordered_scores(matrix) -> np.ndarray:
    """Row-mean scores of a matrix, largest first, by a plain ``np.sort``."""
    return np.sort(matrix.entries.mean(axis=1))[::-1]


def separation_topk(matrix, k: int) -> float:
    """Closed-form oracle: score gap between the k-th and (k+1)-th ranked items."""
    n = matrix.n
    if not 1 <= k < n:
        raise ValueError(f"k must satisfy 1 <= k < n, got k={k}, n={n}")
    ordered = ordered_scores(matrix)
    return float(ordered[k - 1] - ordered[k])


def separation_hamming(matrix, k: int, h: int) -> float:
    """Closed-form oracle: score gap between the (k-h)-th and (k+h+1)-th
    ranked items; ``h = 0`` is :func:`separation_topk`."""
    n = matrix.n
    if not 1 <= k < n:
        raise ValueError(f"k must satisfy 1 <= k < n, got k={k}, n={n}")
    if not 0 <= h < k:
        raise ValueError(f"h must satisfy 0 <= h < k, got h={h}")
    if k + h + 1 > n:
        raise ValueError(f"need k + h + 1 <= n, got k={k}, h={h}, n={n}")
    ordered = ordered_scores(matrix)
    return float(ordered[k - h - 1] - ordered[k + h])


def is_sst(matrix, order=None) -> bool:
    """Strong stochastic transitivity for an ordering (best first,
    identity by default): every better-ranked item's row dominates every
    worse-ranked item's row against all opponents."""
    order = np.arange(matrix.n) if order is None else np.asarray(order)
    rows = matrix.entries[order]
    return bool(np.all(rows[:-1, :] >= rows[1:, :] - 1e-12))


def membership(family, s) -> bool:
    """True iff the validated position set belongs to the family."""
    return bool(family.predicate(position_set(s, family.n, family.k)))


def enumerate_allowed(family) -> list[tuple[int, ...]]:
    """Every allowed set of a small family, in lexicographic order."""
    return [s for s in combinations(range(1, family.n + 1), family.k) if membership(family, s)]


def is_monotone(members, n: int, k: int) -> bool:
    """True iff lowering any one position of a member by one (keeping
    the set strictly increasing and inside ``1..n``) lands on another
    member; by induction, closure under every improvement."""
    member_set = {position_set(s, n, k) for s in members}
    for s in member_set:
        for j in range(k):
            lower = s[j] - 1
            if lower < 1 or (j > 0 and s[j - 1] >= lower):
                continue
            if s[:j] + (lower,) + s[j + 1 :] not in member_set:
                return False
    return True


def observation_set(wins: np.ndarray, r: int | None = None, p: float | None = 1.0) -> ObservationSet:
    """Build an observation set directly from a wins matrix."""
    wins = np.asarray(wins, dtype=np.int64)
    comparisons = wins + wins.T
    if r is None:
        r = max(1, int(comparisons.max()))
    return ObservationSet(n=wins.shape[0], r=r, p=p, comparisons=comparisons, wins=wins)


def random_observation_set(rng: np.random.Generator, n: int, max_count: int = 6) -> ObservationSet:
    """Random aggregated counts; pairs may have zero comparisons."""
    wins = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        for j in range(i + 1, n):
            c = int(rng.integers(0, max_count + 1))
            w = int(rng.integers(0, c + 1))
            wins[i, j] = w
            wins[j, i] = c - w
    return observation_set(wins)


def oracle_topk(counts: np.ndarray, k: int) -> set[int]:
    """Brute-force top-k oracle: among all k-subsets maximizing the sum
    of win counts, return the lexicographically smallest."""
    best_sum = None
    best = None
    for subset in combinations(range(len(counts)), k):
        s = sum(int(counts[i]) for i in subset)
        if best_sum is None or s > best_sum or (s == best_sum and subset < best):
            best_sum, best = s, subset
    return set(best)


# item ids of the generated comparison dataset, in truth order (best first)
NAMES = ["d", "a", "c", "e", "b", "f"]


def write_dataset(tmp_path, rng, records=300):
    """Write a BTL comparisons CSV over ``NAMES`` and its truth file."""
    quality = np.linspace(2.0, -2.0, len(NAMES))
    lines = ["item_a,item_b,winner"]
    for _ in range(records):
        a, b = rng.choice(len(NAMES), size=2, replace=False)
        w = a if rng.random() < 1.0 / (1.0 + np.exp(quality[b] - quality[a])) else b
        lines.append(f"{NAMES[a]},{NAMES[b]},{NAMES[w]}")
    obs_path, truth_path = tmp_path / "cmp.csv", tmp_path / "truth.txt"
    obs_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    truth_path.write_text("\n".join(NAMES) + "\n", encoding="utf-8")
    return obs_path, truth_path


def boolean_cells(path, columns):
    """The distinct cell values of the named columns of a results CSV."""
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    idx = [header.index(c) for c in columns]
    return {line.split(",")[i] for line in lines[1:] for i in idx}


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
