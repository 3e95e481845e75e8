"""Random-design observation model, subsampling, and data ingestion.

Each unordered pair of items receives ``Binomial(r, p)`` comparisons,
independently across pairs, and each comparison is won by ``i`` with
probability ``M[i, j]``.  Observations are stored aggregated (per-pair
comparison and win counts): the counting estimator and both baselines
depend only on counts, so memory stays ``O(n^2)`` regardless of ``r``.

Sampling is reproducible: the output is a pure function of the inputs,
whatever the CPU count.  :func:`draw_observations` cuts the pairs into
fixed blocks, each drawn from its own stream derived from ``(seed,
_DRAW_TAG)``, and runs the blocks on threads, because numpy's binomial
sampler releases the interpreter lock; its docstring gives the order.
:func:`subsample` draws from one stream seeded by ``(seed, _THIN_TAG)``,
one quantity at a time for all pairs ``i < j`` in row-major order.

Named comparisons have one path in: :func:`iter_comparisons_csv` reads
the rows of a comparisons CSV and :func:`ingest_comparisons`, which
alone holds the row rules, counts them.
"""

from __future__ import annotations

import csv
import os
import re
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .model import ComparisonMatrix, _check_seed, _upper_mask

# Stream tags keep the observation and subsampling streams disjoint
# even when both derive from the same master seed.
_DRAW_TAG = 0x0B5E
_THIN_TAG = 0x7811
# Pairs per draw block: a draw of up to this many pairs (n <= 128) is
# one block and reads only the root stream.
_DRAW_BLOCK = 8192


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


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


def draw_observations(matrix: ComparisonMatrix, p: float, r: int, seed: int) -> ObservationSet:
    """Sample an observation set from a comparison matrix.

    Per unordered pair, the number of comparisons is ``Binomial(r, p)``
    and each comparison is won by the row item with its matrix
    probability.  The pairs ``i < j``, in row-major order, are cut into
    blocks of ``_DRAW_BLOCK``; block 0 draws from
    ``SeedSequence((seed, _DRAW_TAG))`` and block ``b >= 1`` from
    child ``b - 1`` of ``spawn(blocks - 1)`` on that sequence, counts
    first, then row wins.  Blocks run on up to one thread per usable
    CPU; the output is bit-identical for equal ``(matrix, p, r, seed)``
    whatever the CPU count.
    """
    if not 0.0 < p <= 1.0:
        raise ValueError(f"p must lie in (0, 1], got {p}")
    if r < 1:
        raise ValueError("r must be at least 1")
    seed = _check_seed(seed)
    n = matrix.n
    upper = _upper_mask(n)
    probs = matrix.entries[upper]
    row_wins = np.empty(probs.size, dtype=np.int64)
    col_wins = np.empty(probs.size, dtype=np.int64)
    root = np.random.SeedSequence((seed, _DRAW_TAG))
    blocks = -(-probs.size // _DRAW_BLOCK)
    streams = [root, *root.spawn(blocks - 1)]

    def draw_block(b: int) -> None:
        # block-local only: its own generator and its own output slices
        block = slice(b * _DRAW_BLOCK, (b + 1) * _DRAW_BLOCK)
        block_probs = probs[block]
        rng = np.random.default_rng(streams[b])
        if p == 1.0:
            counts = np.full(block_probs.size, r, dtype=np.int64)
        else:
            counts = rng.binomial(r, p, size=block_probs.size)
        row_wins[block] = rng.binomial(counts, block_probs)
        col_wins[block] = counts - row_wins[block]

    workers = min(blocks, _usable_cpus())
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(draw_block, range(blocks)))
    else:
        for b in range(blocks):
            draw_block(b)
    # free the pair-length probabilities before the n x n arrays
    del probs
    wins = np.zeros((n, n), dtype=np.int64)
    wins[upper] = row_wins
    wins.T[upper] = col_wins
    del row_wins, col_wins
    return ObservationSet(n=n, r=r, p=p, comparisons=wins + wins.T, wins=wins)


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
    rng = np.random.default_rng(np.random.SeedSequence((seed, _THIN_TAG)))
    upper = _upper_mask(n)
    wins = np.zeros((n, n), dtype=np.int64)
    wins[upper] = rng.binomial(obs.wins[upper], q)
    wins.T[upper] = rng.binomial(obs.wins.T[upper], q)
    p = None if obs.p is None else obs.p * q
    return ObservationSet(n=n, r=obs.r, p=p, comparisons=wins + wins.T, wins=wins)


def ingest_comparisons(rows, items=None) -> tuple[ObservationSet, dict[str, int]]:
    """Aggregate named comparisons into an observation set.

    ``rows`` is any iterable of ``(item_a, item_b, winner)`` triples
    (tuples or lists); it is consumed once and no row is kept.  Items
    are indexed in first-appearance order or, when ``items`` is given,
    in that order (items never compared keep their index); a row naming
    an item outside ``items`` raises ``ValueError``.  So does a
    self-comparison, or a winner that is neither item; the first bad
    row decides which error.  ``r`` is set to the maximum per-pair
    comparison count and ``p`` is recorded as unknown.  Returns the
    observation set and the item-id to index mapping.
    """
    index: dict[str, int] = {} if items is None else {item: i for i, item in enumerate(items)}
    if items is not None and len(index) != len(items):
        raise ValueError("duplicate item ids")
    # only the winner and loser indices of a row are kept
    winners: list[int] = []
    losers: list[int] = []
    add_winner, add_loser = winners.append, losers.append
    for a, b, w in rows:
        if a == b:
            raise ValueError(f"self-comparison of item {a!r}")
        if w != a and w != b:
            raise ValueError(f"winner {w!r} is neither {a!r} nor {b!r}")
        try:
            ia, ib = index[a], index[b]
        except KeyError as exc:
            if items is not None:
                raise ValueError(
                    f"item {exc.args[0]!r} appears in comparisons but not in the item list"
                ) from None
            ia = index.setdefault(a, len(index))
            ib = index.setdefault(b, len(index))
        if w == a:
            add_winner(ia)
            add_loser(ib)
        else:
            add_winner(ib)
            add_loser(ia)
    if not winners:
        raise ValueError("no comparison records supplied")
    n = len(index)
    codes = np.array(winners, dtype=np.int64) * n + np.array(losers, dtype=np.int64)
    wins = np.bincount(codes, minlength=n * n).reshape(n, n)
    comparisons = wins + wins.T
    r = int(comparisons.max())
    return ObservationSet(n=n, r=r, p=None, comparisons=comparisons, wins=wins), index


def iter_comparisons_csv(path):
    """Yield the ``[item_a, item_b, winner]`` rows of a comparisons CSV.

    The header must read ``item_a,item_b,winner``; blank lines are
    skipped.  A row without exactly three fields, or a row the CSV
    reader rejects (an oversize field, say), raises ``ValueError``
    naming the file and line.  Rows are read lazily, one at a time.
    """
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header != ["item_a", "item_b", "winner"]:
                raise ValueError(
                    f"{path}: expected header 'item_a,item_b,winner', got {header}"
                )
            for lineno, row in enumerate(reader, start=2):
                if len(row) != 3:
                    if not row:
                        continue
                    raise ValueError(f"{path}:{lineno}: expected 3 fields, got {len(row)}")
                yield row
        except csv.Error as exc:
            raise ValueError(f"{path}:{reader.line_num}: {exc}") from None


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
    """Read an observation set written by :func:`write_observations_csv`.

    A metadata ``p`` that is neither ``na`` nor a number in ``(0, 1]``
    raises ``ValueError`` naming the file.  A row without four integer
    fields, a pair outside ``i < j < n``, a repeated pair, counts outside
    ``0 <= wins <= comparisons <= r`` or a row the CSV reader rejects
    raise ``ValueError`` naming the file and line.
    """
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        meta_line = fh.readline().rstrip("\n")
        meta = _OBS_META.match(meta_line)
        if meta is None:
            raise ValueError(f"{path}: missing '# n=.. r=.. p=..' metadata line")
        n, r = int(meta.group(1)), int(meta.group(2))
        p_text = meta.group(3)
        try:
            p = None if p_text == "na" else float(p_text)
            if p is not None and not 0.0 < p <= 1.0:
                raise ValueError
        except ValueError:
            raise ValueError(
                f"{path}: metadata p must be a number in (0, 1] or 'na', got {p_text!r}"
            ) from None
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["i", "j", "comparisons", "wins_i"]:
            raise ValueError(f"{path}: expected header 'i,j,comparisons,wins_i'")
        comparisons = np.zeros((n, n), dtype=np.int64)
        wins = np.zeros((n, n), dtype=np.int64)
        seen = set()
        try:
            for lineno, row in enumerate(reader, start=3):
                if not row:
                    continue
                if len(row) != 4:
                    raise ValueError(f"{path}:{lineno}: expected 4 fields, got {len(row)}")
                try:
                    i, j, c, w = (int(x) for x in row)
                except ValueError:
                    raise ValueError(f"{path}:{lineno}: fields must be integers, got {row}") from None
                if not (0 <= i < j < n):
                    raise ValueError(f"{path}:{lineno}: invalid pair ({i}, {j}) for n={n}")
                if (i, j) in seen:
                    raise ValueError(f"{path}:{lineno}: pair ({i}, {j}) repeated")
                seen.add((i, j))
                if not 0 <= w <= c <= r:
                    raise ValueError(f"{path}:{lineno}: counts violate 0 <= wins <= comparisons <= r")
                comparisons[i, j] = comparisons[j, i] = c
                wins[i, j] = w
                wins[j, i] = c - w
        except csv.Error as exc:
            # the reader did not see the metadata line
            raise ValueError(f"{path}:{reader.line_num + 1}: {exc}") from None
    return ObservationSet(n=n, r=r, p=p, comparisons=comparisons, wins=wins)
