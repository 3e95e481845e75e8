"""Pairwise win-probability matrices and generative constructions.

The central object is an ``n x n`` matrix ``M`` of win probabilities:
``M[i, j]`` is the probability that item ``i`` beats item ``j`` in a
single comparison.  Every matrix satisfies ``M[i, j] + M[j, i] == 1``
and ``M[i, i] == 1/2``.

Generators cover the standard parametric families (Bradley-Terry-Luce,
Thurstone), strong-stochastic-transitivity constructions, and the
two-block "planted" worst-case instances used by the minimax
calculators in :mod:`pairrank.analysis`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np

from . import _special, _textio
from ._textio import MODEL_KINDS

SYMMETRY_TOL = 1e-9

_PARAMETRIC_CDFS = {
    "logistic": lambda x: _special.expit(x),
    "gaussian": lambda x: _special.ndtr(x),
}


@dataclass(frozen=True)
class ComparisonMatrix:
    """Validated matrix of pairwise win probabilities.

    ``entries[i, j]`` is the probability that item ``i`` beats item
    ``j``.  Instances are immutable; the backing array is read-only.
    """

    entries: np.ndarray

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def __post_init__(self) -> None:
        self.entries.setflags(write=False)


def _freeze(entries: np.ndarray) -> ComparisonMatrix:
    """Wrap an already-consistent float array without re-validation."""
    return ComparisonMatrix(np.ascontiguousarray(entries, dtype=np.float64))


@lru_cache(maxsize=8)
def _upper_mask(n: int) -> np.ndarray:
    """Read-only boolean mask of the strict upper triangle of an ``n x n`` grid.

    Cached: a sweep draws hundreds of times at a few sizes.
    """
    mask = np.triu(np.ones((n, n), dtype=bool), k=1)
    mask.setflags(write=False)
    return mask


# Side of the square tiles of :func:`_fill_lower`: a 64 x 64 tile of
# float64 is 32 kB, so a tile and its mirror stay in cache together
# (of 32, 48, 64, 96 and 128, 64 was fastest at n = 256 to 1024).
_TILE = 64
_TILE_LOWER = np.tri(_TILE, k=-1, dtype=bool)
_TILE_LOWER.setflags(write=False)


def _fill_lower(out: np.ndarray, fill, *sources: np.ndarray) -> None:
    """Set ``out[i, j]`` for every ``i > j`` from ``s[j, i]`` of each source, tile by tile.

    Each tile is one call ``fill(dst, *srcs, where=mask)``: ``dst`` is a
    ``_TILE``-square tile of ``out``, each ``srcs[k]`` is the mirrored
    tile of ``sources[k]`` transposed to the shape of ``dst``, and
    ``mask`` is ``True`` off the diagonal and the strict lower triangle
    on it; so ``np.copyto`` copies.  A tile and its mirror stay in
    cache, so the transposed reads cost about what straight ones do
    (the tiling of Frigo, Leiserson, Prokop & Ramachandran 1999).  Only
    the strict upper triangle of each source is read, so a source may
    be ``out`` itself, and ``out.T`` fills the strict upper triangle
    from the lower.
    """
    n = out.shape[0]
    for top in range(0, n, _TILE):
        rows = slice(top, top + _TILE)
        for left in range(0, top, _TILE):
            cols = slice(left, left + _TILE)
            fill(out[rows, cols], *(s[cols, rows].T for s in sources), where=True)
        size = min(_TILE, n - top)
        diagonal = [s[rows, rows].T for s in sources]
        fill(out[rows, rows], *diagonal, where=_TILE_LOWER[:size, :size])


def _one_minus(dst: np.ndarray, src: np.ndarray, where) -> None:
    np.subtract(1.0, src, out=dst, where=where)


def _mirror_upper(upper: np.ndarray) -> np.ndarray:
    """Build a full matrix from its strict upper triangle.

    The lower triangle is set to ``1 - upper`` entry by entry and the
    diagonal to exactly ``1/2``, so the complementarity invariant holds
    to the last bit by construction.
    """
    out = np.array(upper, dtype=np.float64, order="C")
    _fill_lower(out, _one_minus, out)
    np.fill_diagonal(out, 0.5)
    return out


def make_matrix(entries) -> ComparisonMatrix:
    """Validate a probability grid and return a comparison matrix.

    Rejects non-square grids and the first entry that breaks a rule of
    :func:`_first_bad_entry`; accepted grids are then symmetrized exactly
    (lower triangle recomputed as ``1 - upper``, diagonal set to ``1/2``).
    """
    grid = np.asarray(entries, dtype=np.float64)
    if grid.ndim != 2 or grid.shape[0] != grid.shape[1]:
        raise ValueError(f"entries must be a square grid, got shape {grid.shape}")
    if grid.shape[0] < 2:
        raise ValueError("need at least 2 items")
    bad = _first_bad_entry(grid)
    if bad is not None:
        raise ValueError(bad[1])
    return _freeze(_mirror_upper(grid))


def _first_bad_entry(grid: np.ndarray) -> tuple[int, str] | None:
    """``(row, problem)`` for the first entry of a square grid that breaks a rule, or ``None``.

    The rules, checked in turn: entries lie in ``[0, 1]``, the diagonal
    is ``1/2``, and ``(i, j)`` and ``(j, i)`` sum to 1, the last two to
    within ``SYMMETRY_TOL``.  ``row`` counts from 0, the problem from 1.
    """
    outside = np.argwhere(~((grid >= 0.0) & (grid <= 1.0)))  # NaN too
    if outside.size:
        i, j = map(int, outside[0])
        return i, f"entry ({i + 1}, {j + 1}) is {float(grid[i, j])!r}, outside [0, 1]"
    off_half = np.flatnonzero(np.abs(np.diagonal(grid) - 0.5) > SYMMETRY_TOL)
    if off_half.size:
        i = int(off_half[0])
        return i, f"diagonal entry ({i + 1}, {i + 1}) is {float(grid[i, i])!r}, not 1/2"
    unpaired = np.argwhere(np.abs(grid + grid.T - 1.0) > SYMMETRY_TOL)
    if unpaired.size:
        i, j = map(int, unpaired[0])
        total = float(grid[i, j] + grid[j, i])
        return i, f"entries ({i + 1}, {j + 1}) and ({j + 1}, {i + 1}) sum to {total!r}, not 1"
    return None


def _qualities(w) -> np.ndarray:
    """``w`` as a float array, which must be a finite vector of at least 2 qualities."""
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 1 or w.size < 2:
        raise ValueError("w must be a vector of at least 2 qualities")
    if not np.all(np.isfinite(w)):
        raise ValueError("w must be finite")
    return w


def gen_parametric(w, cdf: str = "logistic") -> ComparisonMatrix:
    """Parametric model: ``M[i, j] = F(w[i] - w[j])``.

    ``cdf="logistic"`` gives the Bradley-Terry-Luce model,
    ``cdf="gaussian"`` the Thurstone model (standard normal CDF).
    """
    w = _qualities(w)
    try:
        F = _PARAMETRIC_CDFS[cdf]
    except KeyError:
        raise ValueError(f"unknown cdf {cdf!r}, expected one of {sorted(_PARAMETRIC_CDFS)}")
    diffs = w[:, None] - w[None, :]
    return _freeze(_mirror_upper(F(diffs)))


def gen_btl_outlier(w, outlier: int) -> ComparisonMatrix:
    """BTL model with one non-transitive outlier item.

    All items except ``outlier`` follow the logistic model on ``w``.
    The outlier beats the ``floor(n/4)`` highest-quality other items
    with probability 1 and loses to every remaining item with
    probability 1.
    """
    w = _qualities(w)
    n = w.size
    if not 0 <= outlier < n:
        raise ValueError(f"outlier index {outlier} out of range for n={n}")
    upper = _special.expit(w[:, None] - w[None, :])
    others = np.array([i for i in range(n) if i != outlier])
    # highest-quality others first; ties broken by smaller index
    by_quality = others[np.lexsort((others, -w[others]))]
    beaten = by_quality[: n // 4]
    row = np.zeros(n)
    row[beaten] = 1.0
    upper[outlier, :] = row
    upper[:, outlier] = 1.0 - row
    return _freeze(_mirror_upper(upper))


def gen_sst_diagonal(n: int, gap: float, seed: int) -> ComparisonMatrix:
    """Random SST matrix built from independent diagonal increments.

    For each offset ``d`` an independent increment ``u_d ~ U[0, gap]``
    is drawn and ``M[i, i + d] = min(1, 1/2 + sum(u_1..u_d))``: entries
    are constant along diagonals and non-decreasing with distance,
    which certifies strong stochastic transitivity for the identity
    ordering.  Requires ``(n - 1) * gap <= 1/2`` so the cumulative
    boost never needs clipping.
    """
    if n < 2:
        raise ValueError("need at least 2 items")
    if gap <= 0:
        raise ValueError("gap must be positive")
    if (n - 1) * gap > 0.5:
        raise ValueError(
            f"gap {gap:g} infeasible: (n-1)*gap must be <= 1/2 to keep entries in [1/2, 1]"
        )
    rng = np.random.default_rng(_check_seed(seed))
    boosts = np.minimum(np.cumsum(rng.uniform(0.0, gap, size=n - 1)), 0.5)
    upper = np.full((n, n), 0.5)
    iu, ju = np.triu_indices(n, k=1)
    upper[iu, ju] = np.minimum(1.0, 0.5 + boosts[ju - iu - 1])
    return _freeze(_mirror_upper(upper))


def gen_btl_mixture(w, lam: float) -> ComparisonMatrix:
    """Mixture of two opposed BTL populations.

    A fraction ``lam`` of comparisons follows the logistic model on
    ``w`` and the rest follows the reversed ordering:
    ``M[i, j] = lam * F(w_i - w_j) + (1 - lam) * F(w_j - w_i)``.
    ``lam`` must exceed 1/2 (at exactly 1/2 every entry collapses to
    the uninformative 1/2), keeping the score ordering aligned with the
    first population.
    """
    if not 0.5 < lam <= 1.0:
        raise ValueError(f"mixture weight must lie in (1/2, 1], got {lam}")
    w = _qualities(w)
    diffs = w[:, None] - w[None, :]
    upper = lam * _special.expit(diffs) + (1.0 - lam) * _special.expit(-diffs)
    return _freeze(_mirror_upper(upper))


def _two_block(n: int, top, gap: float) -> ComparisonMatrix:
    """``1/2 + gap`` from the items ``top`` to the rest, ``1/2 - gap`` back, ``1/2`` within."""
    mask = np.zeros(n, dtype=bool)
    mask[top] = True
    upper = np.full((n, n), 0.5)
    upper[np.ix_(mask, ~mask)] = 0.5 + gap
    upper[np.ix_(~mask, mask)] = 0.5 - gap
    return _freeze(_mirror_upper(upper))


def gen_planted(n: int, k: int, delta: float, plant_index: int | None = None) -> ComparisonMatrix:
    """Two-block planted instance with score gap exactly ``delta``.

    Entries are ``1/2 + delta`` from the planted set to its complement,
    ``1/2 - delta`` in reverse, and ``1/2`` within blocks.  The planted
    set is ``{0..k-1}`` by default; ``plant_index = a`` (``a >= k-1``)
    plants ``{0..k-2} + {a}`` instead, which yields the ensemble of
    nearly indistinguishable instances used for the multi-hypothesis
    lower-bound calculators.
    """
    if not 1 <= k < n:
        raise ValueError(f"k must satisfy 1 <= k < n, got k={k}, n={n}")
    if not 0.0 < delta < 0.5:
        raise ValueError(f"delta must lie in (0, 1/2), got {delta}")
    if plant_index is None:
        planted = np.arange(k)
    else:
        if not k - 1 <= plant_index < n:
            raise ValueError(f"plant_index must lie in [k-1, n), got {plant_index}")
        planted = np.concatenate([np.arange(k - 1), [plant_index]])
    return _two_block(n, planted, delta)


def gen_adjacent_swap(n: int, delta0: float, a: int) -> ComparisonMatrix:
    """Rank-linear instance whose consecutive score gaps all equal ``delta0``.

    Item ``i`` carries rank ``pi(i)``, the identity permutation with
    items ``a`` and ``a + 1`` swapped, and
    ``M[i, j] = 1/2 - (pi(i) - pi(j)) * delta0``.  Validity of the
    probabilities requires ``delta0 <= 1 / (9 (n - 1))``.
    """
    if n < 2:
        raise ValueError("need at least 2 items")
    if not 0 <= a < n - 1:
        raise ValueError(f"swap index must lie in [0, n-1), got {a}")
    if not 0.0 < delta0 <= 1.0 / (9.0 * (n - 1)):
        raise ValueError(
            f"delta0 must lie in (0, 1/(9(n-1))] = (0, {1.0 / (9.0 * (n - 1)):g}], got {delta0}"
        )
    ranks = np.arange(1, n + 1, dtype=np.float64)
    ranks[a], ranks[a + 1] = ranks[a + 1], ranks[a]
    upper = 0.5 - (ranks[:, None] - ranks[None, :]) * delta0
    return _freeze(_mirror_upper(upper))


def gen_hamming_planted(n: int, k: int, delta0: float, ordering=None) -> ComparisonMatrix:
    """Top-k block instance under a supplied ordering of the items.

    With ``rank(i)`` the position of item ``i`` in ``ordering`` (a
    permutation of ``0..n-1`` listing items from best to worst), the
    entry is ``1/2 + delta0`` whenever ``rank(i) <= k < rank(j)``, the
    complement in reverse, and ``1/2`` otherwise.  The resulting score
    profile takes exactly two values separated by ``delta0``.  The
    identity ordering reproduces the plain planted instance.
    """
    if not 1 <= k < n:
        raise ValueError(f"k must satisfy 1 <= k < n, got k={k}, n={n}")
    if not 0.0 < delta0 < 1.0 / 3.0:
        raise ValueError(f"delta0 must lie in (0, 1/3), got {delta0}")
    if ordering is None:
        ordering = np.arange(n)
    else:
        ordering = np.asarray(ordering, dtype=np.int64)
        if ordering.shape != (n,) or not np.array_equal(np.sort(ordering), np.arange(n)):
            raise ValueError("ordering must be a permutation of 0..n-1")
    return _two_block(n, ordering[:k], delta0)


def equispaced_quality(n: int, spread: float = 6.0) -> np.ndarray:
    """Equispaced quality vector from ``+spread/2`` down to ``-spread/2``."""
    if n < 2:
        raise ValueError("need at least 2 items")
    if spread <= 0:
        raise ValueError("spread must be positive")
    return np.linspace(spread / 2.0, -spread / 2.0, n)


def _check_seed(seed: int) -> int:
    if not isinstance(seed, (int, np.integer)):
        raise ValueError(f"seed must be an integer, got {type(seed).__name__}")
    if not 0 <= int(seed) < 2**64:
        raise ValueError("seed must fit in an unsigned 64-bit integer")
    return int(seed)


_PARAMETRIC_KINDS = ("btl", "thurstone", "btl_outlier", "btl_mixture")
# the parameters a kind cannot do without
_REQUIRED = {
    "planted": ("k", "delta"),
    "adjacent_swap": ("delta0",),
    "hamming_planted": ("k", "delta0"),
    "explicit": ("entries_path",),
}


@dataclass(frozen=True)
class ModelSpec:
    """Declarative description of a comparison model instance.

    Each kind reads its own parameters: ``w`` or else ``quality_spread``
    (``btl``, ``thurstone``, ``btl_outlier`` with ``outlier``,
    ``btl_mixture`` with ``lam``); ``gap`` and ``model_seed``
    (``sst_diagonal``); ``k``, ``delta`` and ``plant_index`` (``planted``);
    ``delta0`` and ``swap_index`` (``adjacent_swap``); ``k``, ``delta0``
    and ``ordering_seed``, which seeds a random order of the items
    (``hamming_planted``); ``entries_path`` (``explicit``).  A spec
    without a parameter its kind requires raises ``ValueError``.  ``w``
    is stored as a tuple of floats, so every spec is hashable.
    """

    kind: str
    w: tuple[float, ...] | None = None
    quality_spread: float = 6.0
    outlier: int | None = None
    gap: float | None = None
    lam: float = 0.8
    k: int | None = None
    delta: float | None = None
    delta0: float | None = None
    swap_index: int = 0
    plant_index: int | None = None
    ordering_seed: int | None = None
    model_seed: int | None = None
    entries_path: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}, expected one of {MODEL_KINDS}")
        required = _REQUIRED.get(self.kind, ())
        if any(getattr(self, name) is None for name in required):
            raise ValueError(f"{self.kind} model requires {' and '.join(required)}")
        if self.w is not None:
            try:
                object.__setattr__(self, "w", tuple(float(x) for x in self.w))
            except (TypeError, ValueError):
                raise ValueError("w must be a sequence of numbers") from None


_PARAMETERS = frozenset(f.name for f in fields(ModelSpec)) - {"kind"}


def spec_from_mapping(kind: str, values: dict) -> ModelSpec:
    """Build a model spec from flat keys, each a :class:`ModelSpec` field under its own name.

    ``k`` reaches the planted kinds only; other keys and ``None`` values are ignored.
    """
    params = {key: values[key] for key in _PARAMETERS if values.get(key) is not None}
    if kind not in ("planted", "hamming_planted"):
        params.pop("k", None)
    return ModelSpec(kind=kind, **params)


def instantiate(spec: ModelSpec, n: int, seed: int | None = None) -> ComparisonMatrix:
    """Resolve a model spec into an ``n x n`` comparison matrix.

    ``seed`` is a fallback for kinds with internal randomness when the
    spec carries none.  The last matrix built, and only it, is memoized
    under ``(spec, n, seed)``, ``seed`` only where the build reads it
    (``sst_diagonal`` without ``model_seed``), so a sweep over one model
    builds once and its callers share the read-only matrix.  An
    ``explicit`` spec is never memoized: its file is read on every call.
    """
    if spec.kind == "explicit":
        return _build(spec, n, seed)
    if spec.kind != "sst_diagonal" or spec.model_seed is not None:
        seed = None
    return _build_memoized(spec, n, seed)


def _build(spec: ModelSpec, n: int, seed: int | None) -> ComparisonMatrix:
    if n < 2:
        raise ValueError(f"need at least 2 items, got n={n}")
    kind = spec.kind
    if kind in _PARAMETRIC_KINDS:
        w = resolved_quality(spec, n)
        if w.size != n:
            raise ValueError(f"quality vector has length {w.size}, expected {n}")
        if kind in ("btl", "thurstone"):
            return gen_parametric(w, "logistic" if kind == "btl" else "gaussian")
        if kind == "btl_outlier":
            outlier = spec.outlier if spec.outlier is not None else n - 1
            return gen_btl_outlier(w, outlier)
        return gen_btl_mixture(w, spec.lam)
    if kind == "sst_diagonal":
        gap = spec.gap if spec.gap is not None else 0.4 / (n - 1)
        use_seed = spec.model_seed if spec.model_seed is not None else seed
        if use_seed is None:
            raise ValueError("sst_diagonal requires a seed")
        return gen_sst_diagonal(n, gap, use_seed)
    if kind == "planted":
        return gen_planted(n, spec.k, spec.delta, spec.plant_index)
    if kind == "adjacent_swap":
        return gen_adjacent_swap(n, spec.delta0, spec.swap_index)
    if kind == "hamming_planted":
        ordering = None
        if spec.ordering_seed is not None:
            ordering = np.random.default_rng(_check_seed(spec.ordering_seed)).permutation(n)
        return gen_hamming_planted(n, spec.k, spec.delta0, ordering)
    # explicit
    matrix = read_matrix_csv(spec.entries_path)
    if matrix.n != n:
        raise ValueError(f"{spec.entries_path}: matrix file has n={matrix.n}, expected {n}")
    return matrix


# ``typed`` keeps a call with ``n=8.0`` from returning an ``n=8`` build
_build_memoized = lru_cache(maxsize=1, typed=True)(_build)


def resolved_quality(spec: ModelSpec, n: int) -> np.ndarray | None:
    """Quality vector of a parametric spec: ``spec.w``, else equispaced with its spread.

    ``None`` for the other kinds.
    """
    if spec.kind not in _PARAMETRIC_KINDS:
        return None
    if spec.w is not None:
        return np.asarray(spec.w, dtype=np.float64)
    return equispaced_quality(n, spec.quality_spread)


def write_matrix_csv(matrix: ComparisonMatrix, path) -> None:
    """Write a matrix as plain CSV: n rows of n decimal values, no header."""
    with _textio.open_output(path) as fh:
        np.savetxt(fh, matrix.entries, delimiter=",", fmt="%.17g")


def read_matrix_csv(path) -> ComparisonMatrix:
    """Read and validate a matrix written by :func:`write_matrix_csv`.

    Each line is a row of ``n >= 2`` comma-separated numbers, and a line
    blank but for a ``#`` comment is skipped.  An error names the file
    and the line of the row that breaks a rule: a value that is not a
    number, a row of other than ``n`` values, a row past the ``n``-th,
    too few rows (the last row), or a rule of :func:`_first_bad_entry`.
    A file without rows names the file alone.
    """
    rows: list[list[float]] = []
    lines: list[int] = []
    for line, text in _textio.numbered_lines(path):
        fields = text.split("#", 1)[0].split(",")
        if len(fields) == 1 and not fields[0].strip():
            continue
        row = []
        for column, field in enumerate(fields, start=1):
            try:
                row.append(float(field))
            except ValueError:
                problem = f"column {column} holds {field.strip()!r}, not a number"
                raise ValueError(f"{path}:{line}: {problem}") from None
        n = len(rows[0]) if rows else len(row)
        if n < 2:
            raise ValueError(f"{path}:{line}: need at least 2 items, got a row of 1 value")
        if len(row) != n:
            problem = f"expected {n} comma-separated values as on line {lines[0]}, got {len(row)}"
            raise ValueError(f"{path}:{line}: {problem}")
        if len(rows) == n:
            raise ValueError(f"{path}:{line}: expected {n} rows, as many as columns, got more")
        rows.append(row)
        lines.append(line)
    if not rows:
        raise ValueError(f"{path}: matrix file holds no data")
    n = len(rows[0])
    if len(rows) < n:
        problem = f"expected {n} rows, as many as columns, got {len(rows)}"
        raise ValueError(f"{path}:{lines[-1]}: {problem}")
    grid = np.array(rows)
    bad = _first_bad_entry(grid)
    if bad is not None:
        raise ValueError(f"{path}:{lines[bad[0]]}: {bad[1]}")
    return _freeze(_mirror_upper(grid))
