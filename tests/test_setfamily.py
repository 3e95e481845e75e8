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
    enumerate_allowed,
    family_exact,
    family_explicit,
    family_hamming,
    family_requirement,
    gen_parametric,
    is_monotone,
    membership,
    parse_family_spec,
    position_set,
    scores,
    separation_family,
    separation_hamming,
    separation_topk,
)

# dyadic values, so the oracle's exact rounding sees the same products
EPSILONS = (0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.5)


def all_sets(n, k):
    return list(combinations(range(1, n + 1), k))


def rounded(x: Fraction, round_mode: str) -> int:
    return math.floor(x) if round_mode == "floor" else math.ceil(x)


def best_excluded(s, n):
    """Smallest position not chosen (n + 1 when every position is)."""
    return min(set(range(1, n + 2)) - set(s))


def requirement_rule(n, k, eps, variant, round_mode):
    e = Fraction(eps)
    if variant == "topband":
        return lambda s: max(s) <= rounded((1 + e) * k, round_mode)
    if variant == "multiplicative":
        return lambda s: max(s) <= rounded((1 + e) * best_excluded(s, n), round_mode)
    if variant == "additive":
        return lambda s: max(s) <= rounded(best_excluded(s, n) + e, round_mode)
    return lambda s: sum(s) <= rounded((1 + e) * Fraction(k * (k + 1), 2), round_mode)


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
    @pytest.mark.parametrize("round_mode", ["floor", "ceil"])
    @pytest.mark.parametrize("variant", ["topband", "multiplicative", "additive", "ranksum"])
    def test_matches_rule(self, variant, round_mode, rng):
        for n, k in small_instances(rng, 60):
            eps = EPSILONS[int(rng.integers(len(EPSILONS)))]
            family = family_requirement(n, k, eps, variant, round_mode)
            check_against_rule(family, requirement_rule(n, k, eps, variant, round_mode), rng)

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
        for variant in ("topband", "multiplicative", "additive", "ranksum"):
            with pytest.raises(ValueError):
                family_requirement(5, 2, 0.5, variant, round_mode="nearest")

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


def test_position_set_checks():
    assert position_set([1, 3], 4, 2) == (1, 3)
    with pytest.raises(ValueError):
        position_set([1, 3], 4, 3)
    with pytest.raises(ValueError):
        position_set([0, 3], 4)
    with pytest.raises(ValueError):
        position_set([3, 3], 4)
