"""Random-design observation model, subsampling, and data ingestion.

Each unordered pair of items receives ``Binomial(r, p)`` comparisons,
independently across pairs, and each comparison is won by ``i`` with
probability ``M[i, j]``.  Observations are stored aggregated (per-pair
comparison and win counts): the counting estimator and both baselines
depend only on counts, so memory stays ``O(n^2)`` regardless of ``r``.

Sampling is reproducible: row ``i`` of the pair grid draws from a
substream seeded by ``(seed, stream_tag, i)``, so the output is a pure
function of the inputs regardless of scheduling.
"""

from __future__ import annotations

import csv
import re
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .model import ComparisonMatrix, _check_seed

# Stream tags keep the observation and subsampling substreams disjoint
# even when both derive from the same master seed.
_DRAW_TAG = 0x0B5E
_THIN_TAG = 0x7811


@dataclass(frozen=True)
class ObservationSet:
    """Aggregated outcomes of pairwise comparisons.

    ``comparisons[i, j]`` counts comparisons between the pair (it is
    symmetric with zero diagonal) and ``wins[i, j]`` counts those won
    by ``i``, so ``wins + wins.T == comparisons``.  ``p`` is ``None``
    for ingested data with unknown design.
    """

    n: int
    r: int
    p: float | None
    comparisons: np.ndarray
    wins: np.ndarray

    def __post_init__(self) -> None:
        self.comparisons.setflags(write=False)
        self.wins.setflags(write=False)

    def total_comparisons(self) -> int:
        return int(self.comparisons.sum()) // 2


@dataclass(frozen=True)
class ComparisonRecord:
    """One observed comparison between two named items."""

    item_a: str
    item_b: str
    winner: str

    def __post_init__(self) -> None:
        if self.item_a == self.item_b:
            raise ValueError(f"self-comparison of item {self.item_a!r}")
        if self.winner not in (self.item_a, self.item_b):
            raise ValueError(
                f"winner {self.winner!r} is neither {self.item_a!r} nor {self.item_b!r}"
            )


def _row_rng(seed: int, tag: int, row: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, tag, row)))


def draw_observations(matrix: ComparisonMatrix, p: float, r: int, seed: int) -> ObservationSet:
    """Sample an observation set from a comparison matrix.

    Per unordered pair, the number of comparisons is ``Binomial(r, p)``
    and each comparison is won by the row item with its matrix
    probability.  Bit-identical output for equal ``(matrix, p, r,
    seed)``.
    """
    if not 0.0 < p <= 1.0:
        raise ValueError(f"p must lie in (0, 1], got {p}")
    if r < 1:
        raise ValueError("r must be at least 1")
    seed = _check_seed(seed)
    n = matrix.n
    comparisons = np.zeros((n, n), dtype=np.int64)
    wins = np.zeros((n, n), dtype=np.int64)
    for i in range(n - 1):
        rng = _row_rng(seed, _DRAW_TAG, i)
        m = n - i - 1
        if p == 1.0:
            counts = np.full(m, r, dtype=np.int64)
        else:
            counts = rng.binomial(r, p, size=m)
        row_wins = rng.binomial(counts, matrix.entries[i, i + 1 :])
        comparisons[i, i + 1 :] = counts
        comparisons[i + 1 :, i] = counts
        wins[i, i + 1 :] = row_wins
        wins[i + 1 :, i] = counts - row_wins
    return ObservationSet(n=n, r=r, p=p, comparisons=comparisons, wins=wins)


def subsample(obs: ObservationSet, q: float, seed: int) -> ObservationSet:
    """Keep each individual comparison independently with probability ``q``.

    Thinning a draw with design ``(p, r)`` matches the distribution of
    a fresh draw with design ``(p * q, r)``.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must lie in [0, 1], got {q}")
    seed = _check_seed(seed)
    n = obs.n
    if q == 1.0:
        return ObservationSet(
            n=n, r=obs.r, p=obs.p, comparisons=obs.comparisons.copy(), wins=obs.wins.copy()
        )
    comparisons = np.zeros((n, n), dtype=np.int64)
    wins = np.zeros((n, n), dtype=np.int64)
    for i in range(n - 1):
        rng = _row_rng(seed, _THIN_TAG, i)
        w = rng.binomial(obs.wins[i, i + 1 :], q)
        losses = rng.binomial(obs.wins[i + 1 :, i], q)
        counts = w + losses
        comparisons[i, i + 1 :] = counts
        comparisons[i + 1 :, i] = counts
        wins[i, i + 1 :] = w
        wins[i + 1 :, i] = losses
    p = None if obs.p is None else obs.p * q
    return ObservationSet(n=n, r=obs.r, p=p, comparisons=comparisons, wins=wins)


def ingest_comparisons(rows, items=None) -> tuple[ObservationSet, dict[str, int]]:
    """Aggregate named comparison records into an observation set.

    Items are indexed in first-appearance order or, when ``items`` is
    given, in that order (items never compared keep their index); a
    record naming an item outside ``items`` raises ``ValueError``.
    ``r`` is set to the maximum per-pair comparison count and ``p`` is
    recorded as unknown.  Returns the observation set and the item-id
    to index mapping.
    """
    index: dict[str, int] = {} if items is None else {item: i for i, item in enumerate(items)}
    if items is not None and len(index) != len(items):
        raise ValueError("duplicate item ids")
    # one counter per ordered (winner, loser) pair, not one entry per record
    pair_wins: Counter[tuple[int, int]] = Counter()
    for row in rows:
        if not isinstance(row, ComparisonRecord):
            row = ComparisonRecord(*row)
        for item in (row.item_a, row.item_b):
            if item not in index:
                if items is not None:
                    raise ValueError(f"item {item!r} appears in comparisons but not in the item list")
                index[item] = len(index)
        a, b, w = index[row.item_a], index[row.item_b], index[row.winner]
        pair_wins[w, a + b - w] += 1
    if not pair_wins:
        raise ValueError("no comparison records supplied")
    n = len(index)
    wins = np.zeros((n, n), dtype=np.int64)
    for pair, count in pair_wins.items():
        wins[pair] = count
    comparisons = wins + wins.T
    r = int(comparisons.max())
    return ObservationSet(n=n, r=r, p=None, comparisons=comparisons, wins=wins), index


def read_comparisons_csv(path) -> list[ComparisonRecord]:
    """Read comparison records from CSV with header ``item_a,item_b,winner``."""
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["item_a", "item_b", "winner"]:
            raise ValueError(
                f"{path}: expected header 'item_a,item_b,winner', got {header}"
            )
        records = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3:
                raise ValueError(f"{path}:{lineno}: expected 3 fields, got {len(row)}")
            records.append(ComparisonRecord(*row))
    return records


def write_comparisons_csv(records, path) -> None:
    """Write comparison records as CSV with header ``item_a,item_b,winner``."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["item_a", "item_b", "winner"])
        for rec in records:
            writer.writerow([rec.item_a, rec.item_b, rec.winner])


_OBS_META = re.compile(r"^# n=(\d+) r=(\d+) p=(\S+)$")


def write_observations_csv(obs: ObservationSet, path) -> None:
    """Write an observation set: metadata comment, then per-pair counts.

    Format: ``# n=<n> r=<r> p=<p|na>`` followed by a
    ``i,j,comparisons,wins_i`` header and one row per pair ``i < j``
    with at least one comparison.
    """
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        p_text = "na" if obs.p is None else repr(float(obs.p))
        fh.write(f"# n={obs.n} r={obs.r} p={p_text}\n")
        writer = csv.writer(fh)
        writer.writerow(["i", "j", "comparisons", "wins_i"])
        iu, ju = np.triu_indices(obs.n, k=1)
        mask = obs.comparisons[iu, ju] > 0
        for i, j in zip(iu[mask], ju[mask]):
            writer.writerow([i, j, obs.comparisons[i, j], obs.wins[i, j]])


def read_observations_csv(path) -> ObservationSet:
    """Read an observation set written by :func:`write_observations_csv`."""
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        meta_line = fh.readline().rstrip("\n")
        meta = _OBS_META.match(meta_line)
        if meta is None:
            raise ValueError(f"{path}: missing '# n=.. r=.. p=..' metadata line")
        n, r = int(meta.group(1)), int(meta.group(2))
        p = None if meta.group(3) == "na" else float(meta.group(3))
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["i", "j", "comparisons", "wins_i"]:
            raise ValueError(f"{path}: expected header 'i,j,comparisons,wins_i'")
        comparisons = np.zeros((n, n), dtype=np.int64)
        wins = np.zeros((n, n), dtype=np.int64)
        for lineno, row in enumerate(reader, start=3):
            if not row:
                continue
            i, j, c, w = (int(x) for x in row)
            if not (0 <= i < j < n):
                raise ValueError(f"{path}:{lineno}: invalid pair ({i}, {j}) for n={n}")
            if not 0 <= w <= c <= r:
                raise ValueError(f"{path}:{lineno}: counts violate 0 <= wins <= comparisons <= r")
            comparisons[i, j] = comparisons[j, i] = c
            wins[i, j] = w
            wins[j, i] = c - w
    return ObservationSet(n=n, r=r, p=p, comparisons=comparisons, wins=wins)
