"""Set families against an oracle that restates each family's rule.

The oracle enumerates every k-subset of positions for small n, decides
membership from the rule in the constructor's docstring (with exact
rational rounding), and takes the separation of a score vector as the
maximum, over allowed sets ``T``, of ``min_j tau_(j) - tau_(k+T_j-j+1)``
with out-of-range order statistics dropped from the minimum.
"""

import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from pairrank import (
    family_exact,
    family_explicit,
    family_hamming,
    family_requirement,
    gen_parametric,
    parse_family_spec,
    position_set,
    scores,
    separation_family,
)

from conftest import (
    enumerate_allowed,
    is_monotone,
    membership,
    separation_hamming,
    separation_topk,
)

# dyadic values, so the oracle's exact rounding sees the same products
EPSILONS = (0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.5)


def all_sets(n, k):
    return list(combinations(range(1, n + 1), k))


def best_excluded(s, n):
    """Smallest position not chosen (n + 1 when every position is)."""
    return min(set(range(1, n + 2)) - set(s))


def requirement_rule(n, k, eps, variant):
    e = Fraction(eps)
    if variant == "topband":
        return lambda s: max(s) <= math.floor((1 + e) * k)
    if variant == "multiplicative":
        return lambda s: max(s) <= math.floor((1 + e) * best_excluded(s, n))
    if variant == "additive":
        return lambda s: max(s) <= math.floor(best_excluded(s, n) + e)
    return lambda s: sum(s) <= math.floor((1 + e) * Fraction(k * (k + 1), 2))


def oracle_separation(tau, allowed, n, k):
    ordered = np.sort(np.asarray(tau, dtype=np.float64))[::-1]
    best = -math.inf
    for t in allowed:
        terms = [
            float(ordered[j - 1] - ordered[k + tj - j])
            for j, tj in enumerate(t, start=1)
            if k + tj - j + 1 <= n
        ]
        best = max(best, min(terms, default=math.inf))
    return best


def random_scores(rng, n):
    # a coarse grid, so ties among the order statistics are common
    return rng.integers(0, 6, size=n) / 5.0


def check_against_rule(family, rule, rng):
    n, k = family.n, family.k
    expected = [s for s in all_sets(n, k) if rule(s)]
    for s in all_sets(n, k):
        assert membership(family, s) == rule(s), (family.kind, s)
    assert enumerate_allowed(family) == expected
    assert is_monotone(expected, n, k)
    for _ in range(3):
        tau = random_scores(rng, n)
        assert separation_family(tau, family) == oracle_separation(tau, expected, n, k)


def small_instances(rng, count):
    for _ in range(count):
        n = int(rng.integers(2, 10))
        yield n, int(rng.integers(1, n + 1))


class TestRequirementFamilies:
    # the ids name the rounding: every fractional bound is floored
    @pytest.mark.parametrize(
        "variant",
        ["topband", "multiplicative", "additive", "ranksum"],
        ids=lambda variant: f"{variant}-floor",
    )
    def test_matches_rule(self, variant, rng):
        for n, k in small_instances(rng, 60):
            eps = EPSILONS[int(rng.integers(len(EPSILONS)))]
            family = family_requirement(n, k, eps, variant)
            check_against_rule(family, requirement_rule(n, k, eps, variant), rng)

    @pytest.mark.parametrize("variant", ["topband", "multiplicative", "additive", "ranksum"])
    def test_eps_zero_is_exact(self, variant):
        family = family_requirement(7, 3, 0.0, variant)
        assert enumerate_allowed(family) == [(1, 2, 3)]

    def test_fractional_bound_nudged(self):
        # 1.45 * 20 is 28.999999999999996 in floating point
        family = family_requirement(40, 20, 0.45, "topband")
        assert membership(family, tuple(range(10, 30)))
        assert not membership(family, tuple(range(11, 31)))

    def test_input_checks(self):
        with pytest.raises(ValueError):
            family_requirement(5, 0, 0.5, "topband")
        with pytest.raises(ValueError):
            family_requirement(5, 2, -0.1, "topband")
        with pytest.raises(ValueError):
            family_requirement(5, 2, 0.5, "bogus")

    def test_large_n_is_usable(self):
        family = parse_family_spec("ranksum:eps=0.5", 64, 16)
        assert membership(family, tuple(range(1, 16)) + (30,))
        assert not membership(family, tuple(range(10, 26)))
        tau = np.linspace(1.0, 0.0, 64)
        assert 0 < separation_family(tau, family) < math.inf


class TestExplicitFamilies:
    def test_matches_domination_rule(self, rng):
        for n, k in small_instances(rng, 120):
            sets = all_sets(n, k)
            picks = rng.integers(len(sets), size=int(rng.integers(1, 5)))
            gens = [sets[i] for i in picks]
            family = family_explicit(n, k, gens)

            def rule(s, gens=gens):
                return any(all(a <= b for a, b in zip(s, g)) for g in gens)

            check_against_rule(family, rule, rng)

    def test_duplicates_and_dominated_generators(self):
        family = family_explicit(6, 2, [(2, 5), (2, 5), (1, 3), (3, 4)])
        assert enumerate_allowed(family) == [
            (1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5), (3, 4)
        ]

    def test_generators_validated(self):
        with pytest.raises(ValueError):
            family_explicit(5, 2, [])
        with pytest.raises(ValueError):
            family_explicit(5, 2, [(3, 2)])
        with pytest.raises(ValueError):
            family_explicit(5, 2, [(1, 6)])
        with pytest.raises(ValueError):
            family_explicit(5, 2, [(1, 2, 3)])

    def test_spec_reads_generator_file(self, tmp_path):
        path = tmp_path / "gens.csv"
        path.write_text("1,4\n2,3\n", encoding="utf-8")
        family = parse_family_spec(f"explicit:@{path}", 5, 2)
        assert enumerate_allowed(family) == [(1, 2), (1, 3), (1, 4), (2, 3)]


class TestExactAndHamming:
    def test_exact_matches_rule(self, rng):
        for n, k in small_instances(rng, 80):
            family = family_exact(n, k)
            check_against_rule(family, lambda s, k=k: s == tuple(range(1, k + 1)), rng)

    def test_hamming_matches_rule(self, rng):
        for n, k in small_instances(rng, 200):
            h = int(rng.integers(0, k))
            if k + h > n:
                continue
            family = family_hamming(n, k, h)
            check_against_rule(
                family, lambda s, k=k, h=h: sum(x <= k for x in s) >= k - h, rng
            )

    def test_separation_matches_analysis(self, rng):
        for n, k in small_instances(rng, 150):
            if k >= n:
                continue
            matrix = gen_parametric(rng.normal(size=n))
            tau = scores(matrix)
            assert separation_family(tau, family_exact(n, k)) == separation_topk(matrix, k)
            for h in range(k):
                if k + h + 1 <= n:
                    got = separation_family(tau, family_hamming(n, k, h))
                    assert got == separation_hamming(matrix, k, h)

    def test_input_checks(self):
        with pytest.raises(ValueError):
            family_exact(3, 4)
        with pytest.raises(ValueError):
            family_hamming(6, 3, 3)
        with pytest.raises(ValueError):
            family_hamming(4, 3, 2)  # k + h > n
        with pytest.raises(ValueError):
            membership(family_exact(5, 2), (2, 1))
        with pytest.raises(ValueError):
            separation_family(np.zeros(4), family_exact(5, 2))

    def test_spec_grammar(self):
        assert parse_family_spec("exact", 6, 2).kind == "exact"
        assert parse_family_spec("hamming:h=1", 6, 2).kind == "hamming(h=1)"
        assert parse_family_spec("mult:eps=0.5", 6, 2).kind == "multiplicative(eps=0.5)"
        assert parse_family_spec("add:eps=2", 6, 2).kind == "additive(eps=2)"
        for bad in ("exact:h=1", "hamming:k=1", "topband", "nope", "explicit:gens.csv"):
            with pytest.raises(ValueError):
                parse_family_spec(bad, 6, 2)


def loop_separation(tau, family):
    """The separation search written one coordinate at a time.

    Same candidate gaps and binary search as the library, but each
    probe places coordinate ``j`` with its own ``searchsorted`` and
    lifts it past coordinate ``j - 1`` in a Python loop.
    """
    n, k = family.n, family.k
    ordered = np.sort(np.asarray(tau, dtype=np.float64))[::-1]
    gaps = np.full((k, n), np.inf)
    for j in range(1, k + 1):
        for t in range(1, n + 1):
            if k + t - j + 1 <= n:
                gaps[j - 1, t - 1] = ordered[j - 1] - ordered[k + t - j]

    def feasible(v):
        lifted, prev = [], 0
        for j in range(k):
            prev = max(int(np.searchsorted(gaps[j], v, side="left")) + 1, prev + 1)
            lifted.append(prev)
        return lifted[-1] <= n and family.predicate(tuple(lifted))

    if feasible(math.inf):
        return math.inf
    candidates = np.unique(gaps[np.isfinite(gaps)])
    if not feasible(candidates[0]):
        return 0.0
    lo, hi = 0, candidates.size - 1
    while lo < hi:
        mid = (lo + hi + 1) // 2
        lo, hi = (mid, hi) if feasible(candidates[mid]) else (lo, mid - 1)
    return float(candidates[lo])


class TestSeparationSearch:
    """The vectorized search against the loop, past enumerable sizes."""

    SPECS = ("exact", "hamming:h=1", "hamming:h=3", "topband:eps=0.5", "topband:eps=3",
             "mult:eps=0.5", "add:eps=2", "ranksum:eps=0.5")

    @pytest.mark.parametrize("spec", SPECS)
    def test_matches_loop(self, spec, rng):
        for _ in range(40):
            n = int(rng.integers(2, 100))
            k = int(rng.integers(1, n + 1))
            try:
                family = parse_family_spec(spec, n, k)
            except ValueError:  # h out of range for this (n, k)
                continue
            # coarse grids tie often; normal draws almost never
            tau = random_scores(rng, n) if rng.random() < 0.5 else rng.normal(size=n)
            assert separation_family(tau, family) == loop_separation(tau, family)

    def test_explicit_matches_loop(self, rng):
        for _ in range(60):
            n = int(rng.integers(2, 60))
            k = int(rng.integers(1, n + 1))
            gens = [np.sort(rng.choice(np.arange(1, n + 1), size=k, replace=False))
                    for _ in range(int(rng.integers(1, 4)))]
            family = family_explicit(n, k, gens)
            tau = random_scores(rng, n)
            assert separation_family(tau, family) == loop_separation(tau, family)

    def test_unconstrained_family_is_infinite(self):
        family = parse_family_spec("topband:eps=3", 8, 2)
        assert separation_family(np.linspace(1, 0, 8), family) == math.inf


def test_position_set_checks():
    assert position_set([1, 3], 4, 2) == (1, 3)
    with pytest.raises(ValueError):
        position_set([1, 3], 4, 3)
    with pytest.raises(ValueError):
        position_set([0, 3], 4)
    with pytest.raises(ValueError):
        position_set([3, 3], 4)
