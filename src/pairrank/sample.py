"""Random-design observation model, subsampling, and data ingestion.

Each unordered pair of items receives ``Binomial(r, p)`` comparisons,
independently across pairs, and each comparison is won by ``i`` with
probability ``M[i, j]``.  Observations are stored aggregated (per-pair
comparison and win counts): the counting estimator and the baseline
depend only on counts, so memory stays ``O(n^2)`` regardless of ``r``.

A draw, a thinning or a file read starts as its pair vectors, the row
and column wins of each pair ``i < j`` in row-major order, and
:func:`_assemble`, the one builder of the two ``n x n`` count arrays,
runs when one is first read (see :class:`ObservationSet`).  Copeland
counts its win totals from the pair vectors, so a Copeland-only set
holds one ``n x n`` buffer, and no build holds a third.

Sampling is reproducible: the output is a pure function of the inputs,
whatever the CPU count.  :func:`draw_observations` cuts the pairs into
fixed blocks, each drawn from its own stream derived from ``(seed,
_DRAW_TAG)``, and draws them on the calling thread and a pool of one
worker fewer than the usable CPUs, because numpy's binomial sampler
releases the interpreter lock; its docstring gives the order.  A caller
that knows its next seeds passes them as ``ahead``, a dict that it owns:
a call that finds no set there for its seed draws it with the next
seeds of ``ahead``, up to ``_AHEAD_PAIRS`` pairs in all, so that the
blocks of many one-block draws share the CPUs, and stores their sets in
``ahead`` for the calls that ask for them.
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
per-row work on its distinct lines; a row of either file adds to the
slot of its pair, found from the row starts of :func:`_pair_index`.
"""

from __future__ import annotations

import collections
import csv
import itertools
import operator
import os
import re
import threading
from concurrent.futures import ThreadPoolExecutor
from functools import lru_cache, partial

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
# Most pairs that one call draws together: a call that misses draws its
# seed and the next seeds of ``ahead`` up to this many pairs in all, so
# the sets it stores for later calls keep ~8 MiB of ``n x n`` buffers.
# One draw at n = 1024 (523,776 pairs) fills it alone.
_AHEAD_PAIRS = 1 << 19
# Pairs per ``np.add.at`` call when win totals are counted from the pair
# vectors: each call widens only this many column indices to ``intp``.
_COUNT_CHUNK = 1 << 16
# Pairs per chunk of rows that :func:`write_observations_csv` formats at
# once, so that its per-row Python objects stay under 1 MiB.
_WRITE_CHUNK = 1 << 12


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


class ObservationSet:
    """Aggregated outcomes of pairwise comparisons.

    ``comparisons[i, j]`` counts comparisons between the pair (it is
    symmetric with zero diagonal) and ``wins[i, j]`` counts those won
    by ``i``, so ``wins + wins.T == comparisons``; both are read-only
    ``int64`` arrays.  ``p`` is ``None`` for ingested data with unknown
    design.

    A draw, a thinning or a file read holds its pair vectors, the row
    and column wins of each pair ``i < j`` in row-major order, and
    builds the arrays from them on the first read of either; a set
    constructed from the two arrays holds them.  :meth:`_read_pairs`,
    the one reader of the pair vectors, takes a lock that orders it
    against the build, which may reuse their buffer.
    """

    __slots__ = ("n", "r", "p", "_arrays", "_pairs", "_lock")

    def __init__(self, n: int, r: int, p: float | None, comparisons: np.ndarray, wins: np.ndarray):
        comparisons.setflags(write=False)
        wins.setflags(write=False)
        self.n, self.r, self.p = n, r, p
        self._arrays = (comparisons, wins)
        self._pairs = self._lock = None

    @classmethod
    def _from_pairs(cls, n: int, r: int, p, row_wins, col_wins, buffer=None) -> ObservationSet:
        """The set whose pair ``i < j``, in row-major order, has these win counts.

        ``buffer``, if given, is an ``n x n`` ``int64`` array that the
        build may overwrite with the comparisons; the pair vectors may
        live in it.
        """
        obs = cls.__new__(cls)
        obs.n, obs.r, obs.p = n, r, p
        obs._arrays = None
        obs._pairs = (row_wins, col_wins, buffer)
        obs._lock = threading.Lock()
        return obs

    def _built(self) -> tuple[np.ndarray, np.ndarray]:
        """``(comparisons, wins)``, assembled from the pair vectors on the first call."""
        if self._arrays is None:
            with self._lock:
                if self._arrays is None:
                    comparisons, wins = _assemble(self.n, *self._pairs)
                    comparisons.setflags(write=False)
                    wins.setflags(write=False)
                    self._arrays = (comparisons, wins)
                    self._pairs = None
        return self._arrays

    def _read_pairs(self, read):
        """``read(row_wins, col_wins)``: on the held pair vectors under the lock while
        unbuilt, else on ``wins[upper]`` and ``wins.T[upper]``, two masked reads."""
        if self._arrays is None:
            with self._lock:
                if self._pairs is not None:
                    return read(*self._pairs[:2])
        upper = _upper_mask(self.n)
        wins = self._arrays[1]
        return read(wins[upper], wins.T[upper])

    @property
    def comparisons(self) -> np.ndarray:
        return self._built()[0]

    @property
    def wins(self) -> np.ndarray:
        return self._built()[1]

    def win_totals(self) -> np.ndarray:
        """Total comparisons won per item, ``wins.sum(axis=1)``, counted from the pair vectors.

        The row wins of each row's pairs by one ``np.add.reduceat``,
        plus the column wins of each pair added to its column item by
        ``np.add.at``, in chunks of ``_COUNT_CHUNK`` pairs.  ``int64``
        sums wrap alike in any order, so the totals have the bits of
        ``wins.sum(axis=1)``.
        """
        return self._read_pairs(partial(_pair_totals, self.n))

    def total_comparisons(self) -> int:
        return int(self.comparisons.sum()) // 2


@lru_cache(maxsize=8)
def _pair_index(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only ``(starts, columns)`` of the pairs ``i < j`` of ``n`` items, in row-major order.

    ``starts[i]`` is the position of row ``i``'s first pair, for rows
    ``0..n-2``; ``columns`` holds each pair's ``j`` in the smallest
    unsigned type (``uint16`` up to 65,536 items).  Cached, as the
    triangle mask is: a sweep counts hundreds of draws at a few sizes.
    """
    rows = np.arange(n - 1)
    starts = rows * n - rows * (rows + 1) // 2
    columns = np.broadcast_to(np.arange(n, dtype=np.min_scalar_type(n - 1)), (n, n))[_upper_mask(n)]
    starts.setflags(write=False)
    columns.setflags(write=False)
    return starts, columns


def _pair_buffer(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A zeroed ``n x n`` ``int64`` buffer, and the row and column win vectors that live in it."""
    flat, pairs = np.zeros(n * n, dtype=np.int64), n * (n - 1) // 2
    return flat.reshape(n, n), flat[:pairs], flat[pairs:2 * pairs]


def _pair_totals(n: int, row_wins: np.ndarray, col_wins: np.ndarray) -> np.ndarray:
    """Per-item win totals of the pair vectors of ``n`` items."""
    starts, columns = _pair_index(n)
    totals = np.zeros(n, dtype=np.int64)
    totals[:-1] = np.add.reduceat(row_wins, starts)
    for start in range(0, col_wins.size, _COUNT_CHUNK):
        chunk = slice(start, start + _COUNT_CHUNK)
        np.add.at(totals, columns[chunk].astype(np.intp), col_wins[chunk])
    return totals


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


def draw_observations(
    matrix: ComparisonMatrix, p: float, r: int, seed: int, ahead: dict | None = None
) -> ObservationSet:
    """Sample an observation set from a comparison matrix.

    Per unordered pair, the number of comparisons is ``Binomial(r, p)``
    and each comparison is won by the row item with its matrix
    probability.  The pairs ``i < j``, in row-major order, are cut into
    blocks of ``_DRAW_BLOCK``; block 0 draws from
    ``SeedSequence((seed, _DRAW_TAG))`` and block ``b >= 1`` from
    child ``b - 1`` of ``spawn(blocks - 1)`` on that sequence, counts
    first, then row wins.  The output is bit-identical for equal
    ``(matrix, p, r, seed)`` whatever the CPU count and ``ahead``.  The
    blocks write their row and column wins as pair vectors into one
    ``n x n`` buffer, which the set keeps: while only
    :meth:`ObservationSet.win_totals` is read, a draw holds that buffer
    and the pair probabilities, and the first read of ``wins`` or
    ``comparisons`` adds the one ``n x n`` wins array and writes the
    comparisons over the buffer.

    ``ahead``, if given, is a dict owned by the caller whose keys are
    the seeds it will ask for, in order, all with this ``matrix``, ``p``
    and ``r``; a value is ``None`` or the set drawn for its seed.  A
    call pops ``seed`` from ``ahead`` and returns the set stored there,
    if any.  Otherwise it draws ``seed`` together with the next seeds
    of ``ahead`` that hold no set, as many draws as fit in
    ``_AHEAD_PAIRS`` pairs and at least one, and stores their sets in
    ``ahead``.  With ``usable`` CPUs it deals the ``(draw, block)``
    tasks, draw by draw and block by block, in turn to
    ``min(tasks, usable)`` groups: the calling thread draws group 0,
    and a thread pool of ``usable - 1`` workers, started on the first
    call with two or more tasks and reused by every later one, draws
    the rest.  The call returns once every task is done.

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
    ahead = {} if ahead is None else ahead
    obs = ahead.pop(seed, None)
    if obs is not None:
        return obs
    n = matrix.n
    pairs = n * (n - 1) // 2
    later = (_check_seed(s) for s, stored in ahead.items() if stored is None)
    seeds = [seed, *itertools.islice(later, max(_AHEAD_PAIRS // pairs, 1) - 1)]
    probs = matrix.entries[_upper_mask(n)]
    blocks = -(-pairs // _DRAW_BLOCK)
    draws = []  # per seed: its block streams and its pair buffer
    for s in seeds:
        root = np.random.SeedSequence((s, _DRAW_TAG))
        draws.append(([root, *root.spawn(blocks - 1)], _pair_buffer(n)))
    table = None if p == 1.0 else _count_table(r, 1.0 - p if p > 0.5 else p)
    tasks = len(draws) * blocks
    groups = min(tasks, _usable_cpus())

    def draw_group(g: int) -> None:
        # task-local only: each task has its own generator and its own output slices
        for task in range(g, tasks, groups):
            streams, (_, row_wins, col_wins) = draws[task // blocks]
            b = task % blocks
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
    sets = {s: ObservationSet._from_pairs(n, r, p, row_wins, col_wins, buffer)
            for s, (_, (buffer, row_wins, col_wins)) in zip(seeds, draws)}
    obs = sets.pop(seed)
    ahead.update(sets)
    return obs


def _assemble(n: int, row_wins, col_wins, comparisons=None) -> tuple[np.ndarray, np.ndarray]:
    """``(comparisons, wins)`` of the ``n`` items whose pairs have these win counts.

    The one builder of count arrays: every set starts as its pair
    vectors, the pairs ``i < j`` in row-major order.  Two masked
    scatters fill ``wins`` and a transposed sum forms the comparisons.
    ``comparisons``, if given, is the ``n x n`` output buffer, and the
    pair vectors may live in it: the sum writes it only after the
    scatters have read them.
    """
    upper = _upper_mask(n)
    wins = np.zeros((n, n), dtype=np.int64)
    wins[upper] = row_wins
    wins.T[upper] = col_wins
    return np.add(wins, wins.T, out=comparisons), wins


def subsample(obs: ObservationSet, q: float, seed: int) -> ObservationSet:
    """Keep each individual comparison independently with probability ``q``.

    Thinning a draw with design ``(p, r)`` matches the distribution of
    a fresh draw with design ``(p * q, r)``.  At ``q = 1`` the
    (read-only) input set itself is returned.  A thinning reads the
    input's pair vectors (:meth:`ObservationSet._read_pairs`) and keeps
    only its own, building no arrays until they are read, so a Copeland
    count of a thinning never builds them.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must lie in [0, 1], got {q}")
    seed = _check_seed(seed)
    if q == 1.0:
        return obs
    rng = np.random.default_rng(np.random.SeedSequence((seed, _THIN_TAG)))
    p = None if obs.p is None else obs.p * q

    def thin(row_wins, col_wins):
        return rng.binomial(row_wins, q), rng.binomial(col_wins, q)

    return ObservationSet._from_pairs(obs.n, obs.r, p, *obs._read_pairs(thin))


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
    One ``np.add.at`` adds a row's count to its pair's row wins when the
    smaller index won, else to its column wins.
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
        add_winner(ia if w == a else ib)
        add_loser(ib if w == a else ia)
        add_count(count)
    if not winners:
        raise ValueError(f"{path}: no comparison records")
    n = len(index)
    buffer, row_wins, col_wins = _pair_buffer(n)
    winners, losers = np.array(winners, dtype=np.intp), np.array(losers, dtype=np.intp)
    slots = _pair_index(n)[0][np.minimum(winners, losers)] + np.abs(winners - losers) - 1
    slots += row_wins.size * (winners > losers)  # a column win: the slot in the second vector
    # distinct lines can share a (winner, loser) pair: unbuffered, exact int64 sums
    np.add.at(buffer.reshape(-1), slots, np.array(counts, dtype=np.int64))
    r = int((row_wins + col_wins).max())
    return ObservationSet._from_pairs(n, r, None, row_wins, col_wins, buffer)


_OBS_META = re.compile(r"^# n=(\d+) r=(\d+) p=(\S+)$")


def write_observations_csv(obs: ObservationSet, path) -> None:
    """Write an observation set: metadata comment, then per-pair counts.

    Format: ``# n=<n> r=<r> p=<p|na>`` followed by a
    ``i,j,comparisons,wins_i`` header and one row per pair ``i < j``
    with at least one comparison, every line ending in LF.  The rows
    come from the pair vectors (:meth:`ObservationSet._read_pairs`),
    ``_WRITE_CHUNK`` pairs at a time, so writing a set builds none of
    its arrays.
    """
    starts, columns = _pair_index(obs.n)

    def write_rows(fh, row_wins, col_wins):
        for start in range(0, row_wins.size, _WRITE_CHUNK):
            wins = row_wins[start:start + _WRITE_CHUNK]
            comparisons = wins + col_wins[start:start + _WRITE_CHUNK]
            kept = np.flatnonzero(comparisons)
            slots = kept + start
            firsts = np.searchsorted(starts, slots, side="right") - 1
            rows = zip(firsts.tolist(), columns[slots].tolist(),
                       comparisons[kept].tolist(), wins[kept].tolist())
            fh.write("".join(f"{i},{j},{c},{w}\n" for i, j, c, w in rows))

    with _textio.open_output(path) as fh:
        p_text = "na" if obs.p is None else repr(float(obs.p))
        fh.write(f"# n={obs.n} r={obs.r} p={p_text}\ni,j,comparisons,wins_i\n")
        obs._read_pairs(partial(write_rows, fh))


def read_observations_csv(path) -> ObservationSet:
    """Read an observation set written by :func:`write_observations_csv`.

    Line 1 is the metadata line: ``n`` is at least 2, ``p`` is ``na`` or
    in ``(0, 1]``, ``r`` is below ``2**63`` and one ``n x n`` count
    array must fit in memory.  Line 2 is the header, and each later line
    is blank or one row of four integers: a pair ``i < j < n``, not
    repeated, and counts with ``0 <= wins <= comparisons <= r``.  Every
    error names the file and the line that breaks a rule.  A row sets
    its pair's row wins to ``wins`` and column wins to ``comparisons - wins``,
    and a flag of one byte per pair marks the pairs read.
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
        if n < 2:
            raise ValueError(f"{path}:1: metadata n must be at least 2, got {n}")
        if r >= 2**63:
            raise ValueError(f"{path}:1: metadata r must be below 2**63, got {r}")
        try:
            buffer, row_wins, col_wins = _pair_buffer(n)
        except (MemoryError, ValueError):  # numpy: more than the address space
            raise ValueError(f"{path}:1: metadata n={n} is too large to allocate") from None
        starts = _pair_index(n)[0].tolist()
        rows = _textio.records(path, fh, start=2)
        _, header = next(rows, (2, None))
        if header != ["i", "j", "comparisons", "wins_i"]:
            raise ValueError(f"{path}:2: expected header 'i,j,comparisons,wins_i'")
        taken = bytearray(row_wins.size)  # one flag per pair: a row with c = 0 holds a zero slot
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
            slot = starts[i] + j - i - 1
            if taken[slot]:
                raise ValueError(f"{path}:{lineno}: pair ({i}, {j}) repeated")
            taken[slot] = 1
            if not 0 <= w <= c <= r:
                raise ValueError(f"{path}:{lineno}: counts violate 0 <= wins <= comparisons <= r")
            row_wins[slot] = w
            col_wins[slot] = c - w
    return ObservationSet._from_pairs(n, r, p, row_wins, col_wins, buffer)
