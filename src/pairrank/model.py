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

import warnings
from dataclasses import dataclass, fields
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import _special, _textio
from ._textio import MODEL_KINDS, finite_float  # finite_float: re-exported

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


def _mirror_upper(upper: np.ndarray) -> np.ndarray:
    """Build a full matrix from its strict upper triangle.

    The lower triangle is set to ``1 - upper`` entry by entry and the
    diagonal to exactly ``1/2``, so the complementarity invariant holds
    to the last bit by construction.
    """
    out = np.where(_upper_mask(upper.shape[0]), upper, 1.0 - upper.T)
    np.fill_diagonal(out, 0.5)
    return out


def make_matrix(entries) -> ComparisonMatrix:
    """Validate a probability grid and return a comparison matrix.

    Rejects non-square grids, entries outside ``[0, 1]``, diagonals off
    ``1/2`` and complementarity violations beyond ``1e-9``; accepted
    grids are then symmetrized exactly (lower triangle recomputed as
    ``1 - upper``, diagonal set to ``1/2``).
    """
    grid = np.asarray(entries, dtype=np.float64)
    if grid.ndim != 2 or grid.shape[0] != grid.shape[1]:
        raise ValueError(f"entries must be a square grid, got shape {grid.shape}")
    n = grid.shape[0]
    if n < 2:
        raise ValueError("need at least 2 items")
    if not np.all(np.isfinite(grid)):
        raise ValueError("entries must be finite")
    if grid.min() < 0.0 or grid.max() > 1.0:
        raise ValueError("entries must lie in [0, 1]")
    diag_err = np.abs(np.diagonal(grid) - 0.5).max()
    if diag_err > SYMMETRY_TOL:
        raise ValueError(f"diagonal must equal 1/2 (max deviation {diag_err:g})")
    sym_err = np.abs(grid + grid.T - 1.0).max()
    if sym_err > SYMMETRY_TOL:
        raise ValueError(
            f"entries (i,j) and (j,i) must sum to 1 (max deviation {sym_err:g})"
        )
    return _freeze(_mirror_upper(grid))


def gen_parametric(w, cdf: str = "logistic") -> ComparisonMatrix:
    """Parametric model: ``M[i, j] = F(w[i] - w[j])``.

    ``cdf="logistic"`` gives the Bradley-Terry-Luce model,
    ``cdf="gaussian"`` the Thurstone model (standard normal CDF).
    """
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 1 or w.size < 2:
        raise ValueError("w must be a vector of at least 2 qualities")
    if not np.all(np.isfinite(w)):
        raise ValueError("w must be finite")
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
    w = np.asarray(w, dtype=np.float64)
    n = w.size
    if not 0 <= outlier < n:
        raise ValueError(f"outlier index {outlier} out of range for n={n}")
    if not np.all(np.isfinite(w)):
        raise ValueError("w must be finite")
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
    w = np.asarray(w, dtype=np.float64)
    if not np.all(np.isfinite(w)):
        raise ValueError("w must be finite")
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


@dataclass(frozen=True)
class ModelSpec:
    """Declarative description of a comparison model instance.

    Only the parameters used by ``kind`` need to be set; the rest stay
    ``None``.  ``instantiate`` resolves the spec into a matrix.  ``w``
    is stored as a tuple of floats and ``ordering`` as a tuple of ints,
    whatever sequence they are given as, so every spec is hashable.
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
    ordering: tuple[int, ...] | None = None
    seed: int | None = None
    entries_path: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}, expected one of {MODEL_KINDS}")
        if self.w is not None:
            object.__setattr__(self, "w", _as_tuple(self.w, float, "w"))
        if self.ordering is not None:
            object.__setattr__(self, "ordering", _as_tuple(self.ordering, int, "ordering"))


def _as_tuple(values, cast, name: str) -> tuple:
    try:
        return tuple(cast(x) for x in values)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be a sequence of numbers") from None


# ModelSpec fields a flat mapping sets under their own name
_FLAT_FIELDS = frozenset(f.name for f in fields(ModelSpec)) - {"kind", "ordering", "seed"}


def spec_from_mapping(kind: str, n: int, values: dict) -> ModelSpec:
    """Build a model spec for ``n`` items from flat configuration keys.

    ``values`` holds :class:`ModelSpec` fields under their own names,
    except ``model_seed`` (the spec's ``seed``) and ``ordering_seed``
    (seeds a random permutation of the items, the spec's ``ordering``).
    ``k`` reaches the planted kinds only and other keys are ignored.
    Absent or ``None`` keys keep the spec's defaults; :func:`instantiate`
    reports a missing required parameter.
    """
    params = {
        key: value for key, value in values.items() if key in _FLAT_FIELDS and value is not None
    }
    if kind not in ("planted", "hamming_planted"):
        params.pop("k", None)
    if values.get("model_seed") is not None:
        params["seed"] = values["model_seed"]
    if values.get("ordering_seed") is not None:
        rng = np.random.default_rng(values["ordering_seed"])
        params["ordering"] = tuple(int(x) for x in rng.permutation(n))
    return ModelSpec(kind=kind, **params)


def instantiate(spec: ModelSpec, n: int, seed: int | None = None) -> ComparisonMatrix:
    """Resolve a model spec into an ``n x n`` comparison matrix.

    ``seed`` is a fallback for kinds with internal randomness when the
    spec itself carries none.

    The last matrix built is memoized under ``(spec, n, seed)``, with
    ``seed`` in the key only where the build reads it (``sst_diagonal``
    without ``spec.seed``), so a sweep over one model builds its matrix
    once.  Callers share that matrix, which is safe because a
    :class:`ComparisonMatrix` is read-only.  The memo holds one entry:
    it keeps the last matrix alive and nothing more.  An ``explicit``
    spec is never memoized; its file is read again on every call.
    """
    if spec.kind == "explicit":
        return _build(spec, n, seed)
    if spec.kind != "sst_diagonal" or spec.seed is not None:
        seed = None
    return _build_memoized(spec, n, seed)


def _build(spec: ModelSpec, n: int, seed: int | None) -> ComparisonMatrix:
    kind = spec.kind
    if kind in ("btl", "thurstone", "btl_outlier", "btl_mixture"):
        w = resolved_quality(spec, n)
        if w.size != n:
            raise ValueError(f"quality vector has length {w.size}, expected {n}")
        if kind == "btl":
            return gen_parametric(w, "logistic")
        if kind == "thurstone":
            return gen_parametric(w, "gaussian")
        if kind == "btl_outlier":
            outlier = spec.outlier if spec.outlier is not None else n - 1
            return gen_btl_outlier(w, outlier)
        return gen_btl_mixture(w, spec.lam)
    if kind == "sst_diagonal":
        gap = spec.gap if spec.gap is not None else 0.4 / (n - 1)
        use_seed = spec.seed if spec.seed is not None else seed
        if use_seed is None:
            raise ValueError("sst_diagonal requires a seed")
        return gen_sst_diagonal(n, gap, use_seed)
    if kind == "planted":
        if spec.k is None or spec.delta is None:
            raise ValueError("planted model requires k and delta")
        return gen_planted(n, spec.k, spec.delta, spec.plant_index)
    if kind == "adjacent_swap":
        if spec.delta0 is None:
            raise ValueError("adjacent_swap model requires delta0")
        return gen_adjacent_swap(n, spec.delta0, spec.swap_index)
    if kind == "hamming_planted":
        if spec.k is None or spec.delta0 is None:
            raise ValueError("hamming_planted model requires k and delta0")
        return gen_hamming_planted(n, spec.k, spec.delta0, spec.ordering)
    # explicit
    if spec.entries_path is None:
        raise ValueError("explicit model requires entries_path")
    matrix = read_matrix_csv(spec.entries_path)
    if matrix.n != n:
        raise ValueError(f"matrix file has n={matrix.n}, expected {n}")
    return matrix


# ``typed`` keeps a call with ``n=8.0`` from returning an ``n=8`` build
_build_memoized = lru_cache(maxsize=1, typed=True)(_build)


def resolved_quality(spec: ModelSpec, n: int) -> np.ndarray | None:
    """Quality vector of a parametric spec: ``spec.w``, else equispaced with its spread.

    ``None`` for the other kinds.
    """
    if spec.kind not in ("btl", "thurstone", "btl_outlier", "btl_mixture"):
        return None
    if spec.w is not None:
        return np.asarray(spec.w, dtype=np.float64)
    return equispaced_quality(n, spec.quality_spread)


def _bad_matrix_row(path) -> str | None:
    """``path:line: problem`` for the first line ``np.loadtxt`` rejects, by a second scan.

    Lines count from 1 and columns from 1; blank lines and ``#``
    comments are skipped, as ``np.loadtxt`` skips them.  ``None`` if no
    line reads wrong to this scan.
    """
    width = first = None
    with Path(path).open(encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0]
            if not text.strip():
                continue
            fields = text.split(",")
            for column, field in enumerate(fields, start=1):
                try:
                    # float() also reads digit separators and non-ASCII digits; numpy does not
                    if "_" in field or not field.isascii():
                        raise ValueError
                    float(field)
                except ValueError:
                    return f"{path}:{lineno}: column {column} holds {field.strip()!r}, not a number"
            if width is None:
                width, first = len(fields), lineno
            elif len(fields) != width:
                return (
                    f"{path}:{lineno}: expected {width} comma-separated values as on line "
                    f"{first}, got {len(fields)}"
                )
    return None


def write_matrix_csv(matrix: ComparisonMatrix, path) -> None:
    """Write a matrix as plain CSV: n rows of n decimal values, no header."""
    np.savetxt(path, matrix.entries, delimiter=",", fmt="%.17g")


def read_matrix_csv(path) -> ComparisonMatrix:
    """Read and validate a matrix written by :func:`write_matrix_csv`.

    A byte that is not UTF-8, a value that is not a number and a row
    whose length differs from the first row's raise ``ValueError``
    naming the file and line.
    """
    path = Path(path)
    with _textio.utf8_errors(path), warnings.catch_warnings():
        # an empty file is reported below, once, as a data error
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        try:
            grid = np.loadtxt(path, delimiter=",", dtype=np.float64, ndmin=2)
        except UnicodeDecodeError:
            raise
        except ValueError as exc:
            raise ValueError(_bad_matrix_row(path) or f"{path}: {exc}") from None
    if grid.size == 0:
        raise ValueError(f"{path}: matrix file holds no data")
    return make_matrix(grid)
