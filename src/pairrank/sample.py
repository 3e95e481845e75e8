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
A block draws each pair's comparison count by inverting the CDF of
``Binomial(r, p)``: one uniform per pair, read through a cached table
and its guide index (Chen & Asau 1974) rather than numpy's per-element
binomial, since every pair shares ``(r, p)``.  Where numpy inverts too
(``r * min(p, 1 - p) <= 30``) the counts are numpy's, so those streams
are unchanged; above that numpy switches to BTPE (Kachitvichyanukul &
Schmeiser 1988) and the streams differ.
:func:`subsample` draws from one stream seeded by ``(seed, _THIN_TAG)``,
one quantity at a time for all pairs ``i < j`` in row-major order.

A comparisons CSV has one path in.  :func:`iter_comparisons_csv` tallies
the file's physical lines before it parses any of them, then parses each
distinct line once and yields its row with the line's count.
:func:`ingest_comparisons`, which alone holds the row rules, adds those
counts up.  So a file costs one hashing pass over its lines plus
per-row work on its distinct lines only, and memory for the distinct
lines.
"""

from __future__ import annotations

import collections
import csv
import itertools
import operator
import os
import re
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import _special, _textio
from .model import ComparisonMatrix, _check_seed, _upper_mask

# Stream tags keep the observation and subsampling streams disjoint
# even when both derive from the same master seed.
_DRAW_TAG = 0x0B5E
_THIN_TAG = 0x7811
# Pairs per draw block: a draw of up to this many pairs (n <= 128) is
# one block and reads only the root stream.
_DRAW_BLOCK = 8192
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
    """The sampler's one thread pool, of ``_usable_cpus()`` workers, started on first use."""
    return ThreadPoolExecutor(max_workers=_usable_cpus(), thread_name_prefix="pairrank-draw")


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
    first, then row wins.  A draw of two or more blocks runs them on
    one thread pool of one worker per usable CPU, started on the first
    such draw and reused by every later one; the output is bit-identical
    for equal ``(matrix, p, r, seed)`` whatever the CPU count.

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
    upper = _upper_mask(n)
    probs = matrix.entries[upper]
    row_wins = np.empty(probs.size, dtype=np.int64)
    col_wins = np.empty(probs.size, dtype=np.int64)
    root = np.random.SeedSequence((seed, _DRAW_TAG))
    blocks = -(-probs.size // _DRAW_BLOCK)
    streams = [root, *root.spawn(blocks - 1)]
    table = None if p == 1.0 else _count_table(r, 1.0 - p if p > 0.5 else p)

    def draw_block(b: int) -> None:
        # block-local only: its own generator and its own output slices
        block = slice(b * _DRAW_BLOCK, (b + 1) * _DRAW_BLOCK)
        block_probs = probs[block]
        rng = np.random.default_rng(streams[b])
        if p == 1.0:
            counts = np.full(block_probs.size, r, dtype=np.int64)
        else:
            counts = _draw_counts(rng, r, p, block_probs.size, table)
        row_wins[block] = rng.binomial(counts, block_probs)
        col_wins[block] = counts - row_wins[block]

    workers = min(blocks, _usable_cpus())
    if workers > 1:
        list(_draw_pool().map(draw_block, range(blocks)))
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
    wins = np.zeros((n, n), dtype=np.int64)
    wins[upper] = rng.binomial(obs.wins[upper], q)
    wins.T[upper] = rng.binomial(obs.wins.T[upper], q)
    p = None if obs.p is None else obs.p * q
    return ObservationSet(n=n, r=obs.r, p=p, comparisons=wins + wins.T, wins=wins)


def _item_index(items) -> dict[str, int]:
    """Map each id of ``items`` to its position; a repeated id raises ``ValueError`` naming it."""
    index: dict[str, int] = {}
    for item in items:
        if item in index:
            raise ValueError(f"duplicate item id {item!r}")
        index[item] = len(index)
    return index


def ingest_comparisons(rows, items=None) -> tuple[ObservationSet, dict[str, int]]:
    """Aggregate counted named comparisons into an observation set.

    ``rows`` is any iterable of ``(row, count)`` pairs, as
    :func:`iter_comparisons_csv` yields them: ``row`` is an
    ``(item_a, item_b, winner)`` triple (tuple or list) and ``count``, a
    positive integer, says how many times it was recorded.  ``rows`` is
    consumed once and no row is kept.  Items are indexed in
    first-appearance order or, when ``items`` is given, in that order
    (items never compared keep their index); a repeated id in ``items``
    raises ``ValueError`` naming it, and so does a row naming an item
    outside ``items``.  So does a self-comparison, or a winner that is
    neither item; the first bad row decides which error.  ``r`` is set
    to the maximum per-pair comparison count and ``p`` is recorded as
    unknown.  Returns the observation set and the item-id to index
    mapping.
    """
    index = {} if items is None else _item_index(items)
    # only the winner and loser indices of a row, and its count, are kept
    winners: list[int] = []
    losers: list[int] = []
    counts: list[int] = []
    add_winner, add_loser, add_count = winners.append, losers.append, counts.append
    for (a, b, w), count in rows:
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
        add_count(count)
    if not winners:
        raise ValueError("no comparison records supplied")
    n = len(index)
    codes = np.array(winners, dtype=np.int64) * n + np.array(losers, dtype=np.int64)
    wins = np.zeros(n * n, dtype=np.int64)
    # distinct rows can share a (winner, loser) pair: unbuffered, exact int64 sums
    np.add.at(wins, codes, np.array(counts, dtype=np.int64))
    wins = wins.reshape(n, n)
    comparisons = wins + wins.T
    r = int(comparisons.max())
    return ObservationSet(n=n, r=r, p=None, comparisons=comparisons, wins=wins), index


def iter_comparisons_csv(path):
    """Yield ``(row, count)`` for each distinct data line of a comparisons CSV.

    The header must read ``item_a,item_b,winner``.  The whole file is
    read and its physical lines counted before any row is parsed; each
    distinct line is then parsed once, in order of first appearance, and
    its ``[item_a, item_b, winner]`` row yielded with the number of
    lines that read exactly so.  Lines that differ only in quoting or
    in their line ending (LF, CRLF, none on the last line) parse to the
    same row but are yielded apart.  Blank lines are skipped.  Errors
    raise ``ValueError``:

    - a first line that does not parse as that header names ``path:1``
      and quotes that line alone;
    - a row without exactly three fields, or a line the CSV reader
      rejects (an oversize field, or malformed quoting such as text
      after a closing quote or a quote left open at the end of the
      file), names the file and the first physical line that holds the
      bad text, found by a second scan of the file;
    - a quoted field that spans lines, closed or not, names the file
      and the line it starts on (every row must fit on one line: an
      item id holds no line break);
    - a byte that is not UTF-8 names the file and its line, and comes
      before any row.

    The file is closed before the first row is yielded.
    """
    path = Path(path)
    with _textio.utf8_errors(path), path.open(newline="", encoding="utf-8") as fh:
        first = fh.readline()
        try:
            header = next(csv.reader([first], strict=True), None)
        except csv.Error:
            header = None
        if header != ["item_a", "item_b", "winner"]:
            got = first.rstrip("\r\n")
            raise ValueError(f"{path}:1: expected header 'item_a,item_b,winner', got {got!r}")
        tally = collections.Counter(fh)
    reader = csv.reader(tally, strict=True)
    seen = 0
    try:
        # while every row fits on its line, row ``seen`` ends at distinct line ``seen``
        for row, count, seen in zip(reader, tally.values(), itertools.count(1)):
            if len(row) != 3 or reader.line_num != seen:
                if reader.line_num != seen:
                    problem = "quoted field spans lines"
                elif not row:
                    continue
                else:
                    problem = f"expected 3 fields, got {len(row)}"
                line = _textio.first_line(path, list(tally)[seen - 1].__eq__)
                raise ValueError(f"{path}:{line}: {problem}")
            yield row, count
    except csv.Error as exc:
        # the rejected row starts on the distinct line after row ``seen``
        problem = "quoted field spans lines" if reader.line_num > seen + 1 else exc
        line = _textio.first_line(path, list(tally)[seen].__eq__)
        raise ValueError(f"{path}:{line}: {problem}") from None


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
    ``0 <= wins <= comparisons <= r``, a row the CSV reader rejects or
    a byte that is not UTF-8 raise ``ValueError`` naming the file and
    line.
    """
    path = Path(path)
    with _textio.utf8_errors(path), path.open(newline="", encoding="utf-8") as fh:
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
