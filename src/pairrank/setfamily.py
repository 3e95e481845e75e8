"""Monotone families of allowed rank-position sets.

A recovery requirement is a family of k-sized subsets of the positions
``1..n``: an estimate succeeds when the true positions of its chosen
items form an allowed set.  All families here are monotone: replacing
a position with a better (smaller) one keeps a set allowed.  Every
family is represented by its membership predicate alone; an explicit
family given by generators ``T`` is the union of their downward
closures ``{S : S_j <= T_j for all j}``.

Besides exact and Hamming-tolerance recovery, constructors cover four
common relaxations: membership in a top band, multiplicative or
additive rank slack relative to the excluded items, and a bound on the
sum of ranks.  The separation of a family is computed in one place,
:func:`pairrank.analysis.separation_family`.  A family's ``kind`` is
its spec, the string :func:`parse_family_spec` reads back into it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

from . import _textio
from ._textio import finite_float

REQUIREMENT_VARIANTS = ("topband", "mult", "add", "ranksum")


def position_set(positions, n: int, k: int | None = None) -> tuple[int, ...]:
    """Validate a strictly increasing tuple of positions in ``1..n``."""
    s = tuple(int(x) for x in positions)
    if k is not None and len(s) != k:
        raise ValueError(f"position set has size {len(s)}, expected {k}")
    if any(not 1 <= x <= n for x in s):
        raise ValueError(f"positions must lie in [1, {n}]: {s}")
    if any(a >= b for a, b in zip(s, s[1:])):
        raise ValueError(f"positions must be strictly increasing: {s}")
    return s


def _dominates(big: tuple[int, ...], small: tuple[int, ...]) -> bool:
    """True when ``small`` lies in the downward closure of ``big``."""
    return all(s <= b for s, b in zip(small, big))


@dataclass(frozen=True)
class SetFamily:
    """A monotone family of allowed k-position sets.

    ``predicate`` decides membership of a validated, strictly
    increasing position tuple; it must be monotone (closed under
    replacing a position with a smaller free one).
    """

    n: int
    k: int
    kind: str
    predicate: Callable[[tuple[int, ...]], bool] = field(repr=False)


def family_exact(n: int, k: int) -> SetFamily:
    """Only the set of the top ``k`` positions is allowed."""
    if not 1 <= k <= n:
        raise ValueError(f"k must satisfy 1 <= k <= n, got k={k}, n={n}")
    top = tuple(range(1, k + 1))
    return SetFamily(n=n, k=k, kind="exact", predicate=lambda s: s == top)


def family_hamming(n: int, k: int, h: int) -> SetFamily:
    """Sets with at least ``k - h`` positions inside the top ``k``.

    Success under this family is exactly a Hamming error of at most
    ``2h`` against the top-k set.  The family's single maximal set is
    ``(h+1, .., k, n-h+1, .., n)``, which needs ``k + h <= n``.
    """
    if not 1 <= k <= n:
        raise ValueError(f"k must satisfy 1 <= k <= n, got k={k}, n={n}")
    if not 0 <= h < k:
        raise ValueError(f"h must satisfy 0 <= h < k, got h={h}")
    if k + h > n:
        raise ValueError(f"generator needs k + h <= n, got k={k}, h={h}, n={n}")

    def pred(s: tuple[int, ...]) -> bool:
        return sum(1 for x in s if x <= k) >= k - h

    return SetFamily(n=n, k=k, kind=f"hamming:h={h}", predicate=pred)


def _floor_bound(x: float) -> int:
    # nudge before flooring so products like 1.45 * 20 = 28.999999...
    # land on the intended integer
    return math.floor(x + 1e-9)


def _prefix_len(s: tuple[int, ...]) -> int:
    t = 0
    for j, x in enumerate(s, start=1):
        if x != j:
            break
        t = j
    return t


def _requirement_predicate(
    n: int, k: int, epsilon: float, variant: str
) -> Callable[[tuple[int, ...]], bool]:
    if variant == "topband":
        bound = _floor_bound((1.0 + epsilon) * k)

        def pred(s: tuple[int, ...]) -> bool:
            return s[-1] <= bound

    elif variant == "mult":

        def pred(s: tuple[int, ...]) -> bool:
            return s[-1] <= _floor_bound((1.0 + epsilon) * (_prefix_len(s) + 1))

    elif variant == "add":

        def pred(s: tuple[int, ...]) -> bool:
            return s[-1] <= _floor_bound(_prefix_len(s) + 1 + epsilon)

    else:  # ranksum
        budget = _floor_bound((1.0 + epsilon) * k * (k + 1) / 2.0)

        def pred(s: tuple[int, ...]) -> bool:
            return sum(s) <= budget

    return pred


def family_requirement(n: int, k: int, epsilon: float, variant: str) -> SetFamily:
    """One of four standard relaxations of exact top-k recovery.

    * ``topband``: every chosen item ranks within the top
      ``(1 + eps) k`` positions.
    * ``mult`` (multiplicative): the worst chosen rank is at most
      ``(1 + eps)`` times the best excluded rank.
    * ``add`` (additive): the worst chosen rank exceeds the best
      excluded rank by at most ``eps``.
    * ``ranksum``: the chosen ranks sum to at most ``(1 + eps)`` times
      the smallest possible sum ``k (k + 1) / 2``.

    All four reduce to exact recovery at ``eps = 0``.  Fractional rank
    bounds are floored.  ``kind`` writes ``eps`` in the fewest digits
    that read back as it, an integer without ``.0``.
    """
    if not 1 <= k <= n:
        raise ValueError(f"k must satisfy 1 <= k <= n, got k={k}, n={n}")
    if epsilon < 0:
        raise ValueError(f"epsilon must be nonnegative, got {epsilon}")
    if variant not in REQUIREMENT_VARIANTS:
        raise ValueError(f"variant must be one of {REQUIREMENT_VARIANTS}, got {variant!r}")
    pred = _requirement_predicate(n, k, epsilon, variant)
    eps = repr(float(epsilon)).removesuffix(".0")
    return SetFamily(n=n, k=k, kind=f"{variant}:eps={eps}", predicate=pred)


def family_explicit(n: int, k: int, generators) -> SetFamily:
    """Family given by an explicit generator list (closed downward).

    A set is allowed when some generator dominates it coordinate-wise.
    """
    gens = {position_set(g, n, k) for g in generators}
    if not gens:
        raise ValueError("generator list must be non-empty")
    return SetFamily(
        n=n, k=k, kind="explicit", predicate=lambda s: any(_dominates(t, s) for t in gens)
    )


def parse_family_spec(text: str, n: int, k: int) -> SetFamily:
    """Build a family from its compact CLI spec string.

    Grammar: ``exact``, ``hamming:h=1``, ``topband:eps=0.5``,
    ``mult:eps=0.5``, ``add:eps=2``, ``ranksum:eps=0.5``,
    ``explicit:@generators.csv`` (one sorted position set per row).
    """
    text = text.strip()
    name, _, arg = text.partition(":")
    name, arg = name.strip(), arg.strip()
    if name == "exact":
        if arg:
            raise ValueError(f"'exact' takes no parameters, got {text!r}")
        return family_exact(n, k)
    if name == "hamming":
        return family_hamming(n, k, _spec_param(arg, "h", int, text))
    if name in REQUIREMENT_VARIANTS:
        return family_requirement(n, k, _spec_param(arg, "eps", finite_float, text), name)
    if name == "explicit":
        if not arg.startswith("@"):
            raise ValueError(f"explicit spec must reference a file: 'explicit:@file.csv', got {text!r}")
        family = family_explicit(n, k, read_position_sets_csv(arg[1:], n, k))
        return replace(family, kind=f"explicit:{arg}")
    raise ValueError(f"unknown family spec {text!r}")


def _spec_param(arg: str, key: str, cast, full: str):
    param, _, value = arg.partition("=")
    if param.strip() != key or not value.strip():
        raise ValueError(f"expected '{key}=<value>' in family spec {full!r}")
    try:
        return cast(value.strip())
    except ValueError as exc:
        raise ValueError(f"family spec {full!r}: {exc}") from None


def read_position_sets_csv(path, n: int, k: int) -> list[tuple[int, ...]]:
    """Read one position set per line: ``k`` increasing integers in ``1..n``.

    A row that is not such a set, or any error of
    :func:`pairrank._textio.records`, names the file and line.
    """
    out = []
    with _textio.open_text(path) as fh:
        for line, row in _textio.records(path, fh):
            if row:
                try:
                    out.append(position_set(row, n, k))
                except ValueError as exc:
                    raise ValueError(f"{path}:{line}: {exc}") from None
    if not out:
        raise ValueError(f"{path}: no position sets found")
    return out
