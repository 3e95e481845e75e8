"""Shared test helpers: independent oracles and small builders."""

from __future__ import annotations

from itertools import combinations

import numpy as np
import pytest

from pairrank import ObservationSet


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
