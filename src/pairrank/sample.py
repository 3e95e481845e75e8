"""Random-design observation model, subsampling, and data ingestion.

Each unordered pair of items receives ``Binomial(r, p)`` comparisons,
independently across pairs, and each comparison is won by ``i`` with
probability ``M[i, j]``.  Observations are stored aggregated (per-pair
comparison and win counts): the counting estimator and the baseline
depend only on counts, so memory stays ``O(n^2)`` regardless of ``r``.

Sampling is reproducible: the output is a pure function of the inputs,
whatever the CPU count.  :func:`draw_observations` cuts the pairs into
fixed blocks, each drawn from its own stream derived from ``(seed,
_DRAW_TAG)``, and draws them on the calling thread and a pool of one
worker fewer than the usable CPUs, because numpy's binomial sampler
releases the interpreter lock; its docstring gives the order.  A draw
of more than ``_MASKED_N`` items then assembles its two ``n x n``
count arrays in cache-sized tiles (:func:`pairrank.model._fill_lower`),
and any draw holds no third: the pair vectors live in the comparisons
array until it is written.
A block draws each pair's comparison count by inverting the CDF of
``Binomial(r, p)``: one uniform per pair, read through a cached table
and its guide index (Chen & Asau 1974) rather than numpy's per-element
binomial, since every pair shares ``(r, p)``.  Where numpy inverts too
(``r * min(p, 1 - p) <= 30``) the counts are numpy's, so those streams
are unchanged; above that numpy switches to BTPE (Kachitvichyanukul &
Schmeiser 1988) and the streams differ.
:func:`subsample` draws from one stream seeded by ``(seed, _THIN_TAG)``,
one quantity at a time for all pairs ``i < j`` in row-major order.

:func:`read_comparisons` and :func:`read_observations_csv` split records
by :func:`pairrank._textio.records`, and each row error names the file
and line.  A comparisons file costs one hashing pass over its lines plus
per-row work on its distinct lines.
"""

from __future__ import annotations

import collections
import csv
import operator
import os
import re
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import _special, _textio
from .model import ComparisonMatrix, _check_seed, _fill_lower, _upper_mask

# Stream tags keep the observation and subsampling streams disjoint
# even when both derive from the same master seed.
_DRAW_TAG = 0x0B5E
_THIN_TAG = 0x7811
# Pairs per draw block: a draw of up to this many pairs (n <= 128) is
# one block and reads only the root stream.
_DRAW_BLOCK = 8192
# Most items of a draw or thinning assembled by whole-array masks, not
# tiles: its two count arrays (256 kB at 128) stay in cache through a
# transposed pass, and the per-tile calls would cost more than they
# save (on 2 CPUs, ten alternating pairs of benchmark runs read
# figure-suite, n = 100, 8% slower with tiles and eval-real, n = 120,
# 6% slower).
_MASKED_N = 128
# Most CDF entries in a count table; its guide has 4-8x as many
# buckets.  A wider window (r * p * (1 - p) above ~2.5e5) takes longer
# to build than it saves on an n = 1000 draw, so numpy draws it instead.
_TABLE_CAP = 1 << 13


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@lru_cache(maxsize=None)
def _draw_pool() -> ThreadPoolExecutor:
    """The sampler's one thread pool, started on first use.

    It has ``_usable_cpus() - 1`` workers: the calling thread draws too.
    """
    return ThreadPoolExecutor(max_workers=_usable_cpus() - 1, thread_name_prefix="pairrank-draw")


if hasattr(os, "register_at_fork"):  # a forked child has none of the pool's threads
    os.register_at_fork(after_in_child=_draw_pool.cache_clear)


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


def _first(pred, lo: int, hi: int) -> int:
    """Smallest ``k`` in ``[lo, hi]`` with ``pred(k)``, for ``pred`` monotone and true at ``hi``."""
    while lo < hi:
        mid = (lo + hi) // 2
        if pred(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


@lru_cache(maxsize=8)
def _count_table(r: int, q: float) -> tuple[int, np.ndarray, np.ndarray] | None:
    """Inverse-CDF table of ``Binomial(r, q)``, ``q <= 0.5``: ``(offset, cdf, guide)``.

    ``cdf[i]`` is the CDF at ``k = offset + i`` over the window where it
    lies strictly inside (0, 1): ``bdtr`` up to the mean and one minus
    ``bdtrc`` above it, each accurate in its own tail, with values below
    ``2**-53`` (one step of ``Generator.random``) read as 0.  The window
    is found by bisection, so it costs ``O(log r)`` CDF calls and holds
    ``O(sqrt(r q))`` entries.  ``guide`` has ``m`` buckets, ``m`` a power
    of two: ``guide[j]`` is the count ``offset + #{i : cdf[i] <= j / m}``
    when no ``cdf`` entry lies in ``(j / m, (j + 1) / m]``, else -1.
    ``None`` when the window exceeds ``_TABLE_CAP`` entries.
    """
    mean = int(r * q)
    offset = _first(lambda k: _special.bdtr(k, r, q) >= 2.0**-53, 0, mean)
    stop = _first(lambda k: 1.0 - _special.bdtrc(k, r, q) >= 1.0, mean + 1, r)
    if stop - offset > _TABLE_CAP:
        return None
    cdf = np.concatenate([
        _special.bdtr(np.arange(offset, mean + 1), r, q),
        1.0 - _special.bdtrc(np.arange(mean + 1, stop), r, q),
    ])
    np.maximum.accumulate(cdf, out=cdf)
    m = 1 << (4 * cdf.size).bit_length()
    below = np.searchsorted(cdf, np.arange(m + 1) / m, side="right")
    guide = below[:-1] + offset
    guide[below[1:] != below[:-1]] = -1
    cdf.setflags(write=False)
    guide.setflags(write=False)
    return offset, cdf, guide


def _draw_counts(rng: np.random.Generator, r: int, p: float, size: int, table) -> np.ndarray:
    """``size`` draws of ``Binomial(r, p)``, one uniform each.

    The count is ``#{k : cdf[k] <= u}`` for ``u = rng.random()`` and the
    CDF of ``Binomial(r, q)``, ``q = min(p, 1 - p)``, reflected as
    ``r - X`` when ``p > 0.5``, as numpy does.  ``table`` is
    ``_count_table(r, q)``.
    """
    if table is None:
        return rng.binomial(r, p, size=size)
    offset, cdf, guide = table
    u = rng.random(size)
    counts = guide[(u * guide.size).astype(np.intp)]
    steps = np.flatnonzero(counts < 0)
    counts[steps] = offset + np.searchsorted(cdf, u[steps], side="right")
    if p > 0.5:
        np.subtract(r, counts, out=counts)
    return counts


def draw_observations(matrix: ComparisonMatrix, p: float, r: int, seed: int) -> ObservationSet:
    """Sample an observation set from a comparison matrix.

    Per unordered pair, the number of comparisons is ``Binomial(r, p)``
    and each comparison is won by the row item with its matrix
    probability.  The pairs ``i < j``, in row-major order, are cut into
    blocks of ``_DRAW_BLOCK``; block 0 draws from
    ``SeedSequence((seed, _DRAW_TAG))`` and block ``b >= 1`` from
    child ``b - 1`` of ``spawn(blocks - 1)`` on that sequence, counts
    first, then row wins.  With ``usable`` CPUs, a draw of two or more
    blocks deals them out in turn to ``min(blocks, usable)`` groups: the
    calling thread draws group 0, and a thread pool of ``usable - 1``
    workers, started on the first such draw and reused by every later
    one, draws the rest.  The output is bit-identical for equal
    ``(matrix, p, r, seed)`` whatever the CPU count.  The blocks write
    their row and column wins as pair vectors into the comparisons
    array; the lower triangles are then filled from the upper ones in
    ``64 x 64`` tiles (:func:`pairrank.model._fill_lower`), so a draw
    holds two ``n x n`` arrays at most.  A draw of at most
    ``_MASKED_N`` items is assembled by whole-array masks instead.

    Counts: at ``p = 1`` every pair gets ``r`` and no uniform is read.
    Otherwise a pair reads one ``u = rng.random()`` and gets
    ``X = #{k : F(k) <= u}``, for ``F`` the CDF of ``Binomial(r, q)`` and
    ``q = min(p, 1 - p)``, or ``r - X`` when ``p > 0.5``.  numpy's
    binomial inverts the same CDF with one uniform where ``r * q <= 30``,
    so there the counts, and the wins after them, are those of the
    ``rng.binomial(r, p, size)`` stream (bar ``u`` falling within
    rounding of some ``F(k)``, which 10**6 draws per design never hit);
    above 30 numpy's BTPE sampler reads more uniforms and the streams
    differ.  Past ``r * p * (1 - p)`` of ~2.5e5 the counts are numpy's
    own draws.  ``r`` must be an integer (not a bool) in ``[1, 2**63)``.
    """
    if not 0.0 < p <= 1.0:
        raise ValueError(f"p must lie in (0, 1], got {p}")
    if isinstance(r, bool):
        raise ValueError("r must be an integer, got bool")
    try:
        r = operator.index(r)
    except TypeError:
        raise ValueError(f"r must be an integer, got {type(r).__name__}") from None
    if r < 1:
        raise ValueError("r must be at least 1")
    if r >= 2**63:
        raise ValueError(f"r must be below 2**63, got {r}")
    seed = _check_seed(seed)
    n = matrix.n
    pairs = n * (n - 1) // 2
    probs = matrix.entries[_upper_mask(n)]
    # the pair vectors live in the comparisons buffer until it is overwritten
    comparisons = np.empty((n, n), dtype=np.int64)
    row_wins = comparisons.reshape(-1)[:pairs]
    col_wins = comparisons.reshape(-1)[pairs:2 * pairs]
    root = np.random.SeedSequence((seed, _DRAW_TAG))
    blocks = -(-pairs // _DRAW_BLOCK)
    streams = [root, *root.spawn(blocks - 1)]
    table = None if p == 1.0 else _count_table(r, 1.0 - p if p > 0.5 else p)
    groups = min(blocks, _usable_cpus())

    def draw_group(g: int) -> None:
        # block-local only: each block has its own generator and its own output slices
        for b in range(g, blocks, groups):
            block = slice(b * _DRAW_BLOCK, (b + 1) * _DRAW_BLOCK)
            block_probs = probs[block]
            rng = np.random.default_rng(streams[b])
            if p == 1.0:
                counts = np.full(block_probs.size, r, dtype=np.int64)
            else:
                counts = _draw_counts(rng, r, p, block_probs.size, table)
            row_wins[block] = rng.binomial(counts, block_probs)
            np.subtract(counts, row_wins[block], out=col_wins[block])

    futures = [_draw_pool().submit(draw_group, g) for g in range(1, groups)]
    try:
        draw_group(0)
    finally:
        for future in futures:
            future.result()
    # free the pair-length probabilities before the wins array
    del probs
    return _assemble(r, p, row_wins, col_wins, comparisons)


def _add(dst: np.ndarray, a: np.ndarray, b: np.ndarray, where) -> None:
    np.add(a, b, out=dst, where=where)


def _assemble(r: int, p, row_wins, col_wins, comparisons) -> ObservationSet:
    """The observation set whose pair ``i < j``, in row-major order, has these win counts.

    ``comparisons`` is the ``n x n`` output buffer, and the pair vectors
    may live in it.  Up to ``_MASKED_N`` items, two masked scatters and
    a transposed sum assemble the arrays.  Above it the lower triangles
    are mirrored in tiles (:func:`pairrank.model._fill_lower`), so that
    no pass reads or writes a whole array through a transposed view.
    """
    n = comparisons.shape[0]
    upper = _upper_mask(n)
    if n <= _MASKED_N:
        wins = np.zeros((n, n), dtype=np.int64)
        wins[upper] = row_wins
        wins.T[upper] = col_wins
        np.add(wins, wins.T, out=comparisons)
    else:
        wins = np.empty((n, n), dtype=np.int64)
        wins[upper] = col_wins
        _fill_lower(wins, np.copyto, wins)
        wins[upper] = row_wins
        np.fill_diagonal(wins, 0)
        # the pair vectors are read: ``comparisons`` may now be overwritten
        _fill_lower(comparisons, _add, wins.T, wins)
        _fill_lower(comparisons.T, np.copyto, comparisons.T)
        np.fill_diagonal(comparisons, 0)
    return ObservationSet(n=n, r=r, p=p, comparisons=comparisons, wins=wins)


def subsample(obs: ObservationSet, q: float, seed: int) -> ObservationSet:
    """Keep each individual comparison independently with probability ``q``.

    Thinning a draw with design ``(p, r)`` matches the distribution of
    a fresh draw with design ``(p * q, r)``.  At ``q = 1`` the
    (read-only) input set itself is returned.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must lie in [0, 1], got {q}")
    seed = _check_seed(seed)
    if q == 1.0:
        return obs
    n = obs.n
    rng = np.random.default_rng(np.random.SeedSequence((seed, _THIN_TAG)))
    upper = _upper_mask(n)
    row_wins = rng.binomial(obs.wins[upper], q)
    # the column wins of each pair, laid out in the strict upper triangle
    comparisons = np.empty((n, n), dtype=np.int64)
    _fill_lower(comparisons.T, np.copyto, obs.wins.T)
    col_wins = rng.binomial(comparisons[upper], q)
    p = None if obs.p is None else obs.p * q
    return _assemble(obs.r, p, row_wins, col_wins, comparisons)


class UnlistedItem(ValueError):
    """A comparisons record names an item that the item index does not list."""


def read_comparisons(path, index) -> ObservationSet:
    """Aggregate the records of a comparisons CSV into an observation set.

    ``index`` maps every item id to its row, so ``n`` is ``len(index)``;
    ``r`` is the largest per-pair comparison count and ``p`` is unknown.
    Line 1 must read ``item_a,item_b,winner``.  The later lines are
    tallied, then each distinct line is split and checked once, in order
    of first appearance, and counts once per line that reads exactly so
    (lines that differ only in quoting or line ending parse to the same
    record).  Blank lines are skipped.  An error names the file and line 1 for a
    bad header, else the first physical line that holds the bad row: a
    row that has other than three fields, that the CSV reader rejects or
    that spans lines, that compares an item with itself, whose winner is
    neither item, or that names an item outside ``index`` (an
    :class:`UnlistedItem`).  A byte that is not UTF-8 names its line,
    and a file without records names the file alone.
    """
    with _textio.open_text(path) as fh:
        first = fh.readline()
        try:
            header = next(csv.reader([first], strict=True), None)
        except csv.Error:
            header = None
        if header != ["item_a", "item_b", "winner"]:
            got = first.rstrip("\r\n")
            raise ValueError(f"{path}:1: expected header 'item_a,item_b,winner', got {got!r}")
        tally = collections.Counter(fh)

    def bad(distinct: int, problem, error=ValueError) -> ValueError:
        """The error for distinct line ``distinct`` (from 1), naming its first physical line."""
        return error(f"{path}:{first_line(distinct)}: {problem}")

    def first_line(distinct: int) -> int:
        return _textio.first_line(path, list(tally)[distinct - 1].__eq__)

    # only the winner and loser indices of a row, and its count, are kept
    winners: list[int] = []
    losers: list[int] = []
    counts: list[int] = []
    add_winner, add_loser, add_count = winners.append, losers.append, counts.append
    rows = _textio.records(path, tally, line_of=first_line)
    for (seen, row), count in zip(rows, tally.values()):
        if len(row) != 3:
            if not row:
                continue
            raise bad(seen, f"expected 3 fields, got {len(row)}")
        a, b, w = row
        if a == b:
            raise bad(seen, f"self-comparison of item {a!r}")
        if w != a and w != b:
            raise bad(seen, f"winner {w!r} is neither {a!r} nor {b!r}")
        try:
            ia, ib = index[a], index[b]
        except KeyError as exc:
            problem = f"item {exc.args[0]!r} appears in comparisons but not in the item list"
            raise bad(seen, problem, UnlistedItem) from None
        if w == a:
            add_winner(ia)
            add_loser(ib)
        else:
            add_winner(ib)
            add_loser(ia)
        add_count(count)
    if not winners:
        raise ValueError(f"{path}: no comparison records")
    n = len(index)
    codes = np.array(winners, dtype=np.int64) * n + np.array(losers, dtype=np.int64)
    wins = np.zeros(n * n, dtype=np.int64)
    # distinct lines can share a (winner, loser) pair: unbuffered, exact int64 sums
    np.add.at(wins, codes, np.array(counts, dtype=np.int64))
    wins = wins.reshape(n, n)
    comparisons = wins + wins.T
    r = int(comparisons.max())
    return ObservationSet(n=n, r=r, p=None, comparisons=comparisons, wins=wins)


_OBS_META = re.compile(r"^# n=(\d+) r=(\d+) p=(\S+)$")


def write_observations_csv(obs: ObservationSet, path) -> None:
    """Write an observation set: metadata comment, then per-pair counts.

    Format: ``# n=<n> r=<r> p=<p|na>`` followed by a
    ``i,j,comparisons,wins_i`` header and one row per pair ``i < j``
    with at least one comparison, every line ending in LF.
    """
    with _textio.open_output(path) as fh:
        p_text = "na" if obs.p is None else repr(float(obs.p))
        fh.write(f"# n={obs.n} r={obs.r} p={p_text}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["i", "j", "comparisons", "wins_i"])
        iu, ju = np.triu_indices(obs.n, k=1)
        mask = obs.comparisons[iu, ju] > 0
        for i, j in zip(iu[mask], ju[mask]):
            writer.writerow([i, j, obs.comparisons[i, j], obs.wins[i, j]])


def read_observations_csv(path) -> ObservationSet:
    """Read an observation set written by :func:`write_observations_csv`.

    Line 1 is the metadata line: ``p`` is ``na`` or in ``(0, 1]``, ``r``
    is below ``2**63`` and the ``n x n`` count arrays must fit in memory.
    Line 2 is the header, and each later line is blank or one row of
    four integers: a pair ``i < j < n``, not repeated, and counts with
    ``0 <= wins <= comparisons <= r``.  Every error names the file and
    the line that breaks a rule.
    """
    with _textio.open_text(path) as fh:
        meta = _OBS_META.match(fh.readline().rstrip("\r\n"))
        if meta is None:
            raise ValueError(f"{path}:1: missing '# n=.. r=.. p=..' metadata line")
        n, r, p_text = int(meta[1]), int(meta[2]), meta[3]
        try:
            p = None if p_text == "na" else _textio.probability(p_text)
        except ValueError:
            problem = f"metadata p must be a number in (0, 1] or 'na', got {p_text!r}"
            raise ValueError(f"{path}:1: {problem}") from None
        if r >= 2**63:
            raise ValueError(f"{path}:1: metadata r must be below 2**63, got {r}")
        try:
            comparisons = np.zeros((n, n), dtype=np.int64)
            wins = np.zeros((n, n), dtype=np.int64)
        except (MemoryError, ValueError):  # numpy: more than the address space
            raise ValueError(f"{path}:1: metadata n={n} is too large to allocate") from None
        rows = _textio.records(path, fh, start=2)
        _, header = next(rows, (2, None))
        if header != ["i", "j", "comparisons", "wins_i"]:
            raise ValueError(f"{path}:2: expected header 'i,j,comparisons,wins_i'")
        seen = set()
        for lineno, row in rows:
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
    return ObservationSet(n=n, r=r, p=p, comparisons=comparisons, wins=wins)
