"""Lenient metrics against brute force over tie-class permutations.

Interchanging items of equal score is valid, so the lenient verdict of
each criterion is its best case over every true order obtained by
permuting items within their tie classes.  The oracle takes the tie
classes from the generating quality vector (equal qualities, equal
scores), not from :func:`ground_truth`.
"""

from itertools import chain, combinations, permutations, product

import numpy as np
import pytest

from pairrank import (
    allowed_success,
    exact_success,
    favorable_positions,
    gen_parametric,
    ground_truth,
    hamming_success,
    membership,
    parse_family_spec,
)

SPECS = ("exact", "hamming:h=1", "topband:eps=0.5", "mult:eps=0.5", "add:eps=1", "ranksum:eps=0.5")


def quality_classes(quality):
    """Items grouped by equal quality, best group first."""
    levels = sorted(set(quality), reverse=True)
    return [[i for i, q in enumerate(quality) if q == level] for level in levels]


def tie_orders(quality):
    """Every true order: items within each equal-quality class permuted."""
    classes = quality_classes(quality)
    for parts in product(*(permutations(c) for c in classes)):
        yield list(chain.from_iterable(parts))


def positions_under(order, est):
    rank_of = {item: pos for pos, item in enumerate(order, start=1)}
    return tuple(sorted(rank_of[item] for item in est))


def tied_cases(seeds=range(30)):
    """(quality, k, truth) for small BTL models with tied qualities."""
    for seed in seeds:
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 7))
        quality = [float(x) for x in rng.integers(0, 3, size=n)]
        k = int(rng.integers(1, n))
        truth = ground_truth(gen_parametric(np.array(quality), "logistic"), k)
        yield quality, k, truth


def test_cases_have_ties():
    tied = [t for _, _, t in tied_cases() if any(len(c) > 1 for c in t.tie_classes)]
    assert len(tied) >= 25


def test_tie_classes_match_qualities():
    for quality, _, truth in tied_cases():
        assert sorted(map(sorted, truth.tie_classes)) == sorted(quality_classes(quality))


def test_favorable_positions_are_the_best_case():
    for quality, _, truth in tied_cases():
        orders = list(tie_orders(quality))
        for size in range(len(quality) + 1):
            for est in combinations(range(len(quality)), size):
                got = favorable_positions(est, truth)
                every = [positions_under(order, est) for order in orders]
                assert got in every
                assert all(all(g <= e for g, e in zip(got, pos)) for pos in every)


def test_exact_and_hamming_are_the_best_case():
    for quality, k, truth in tied_cases():
        orders = list(tie_orders(quality))
        for est in combinations(range(len(quality)), k):
            best = min(len(set(est) ^ set(order[:k])) for order in orders)
            assert exact_success(est, truth) == (best == 0)
            for h in range(k + 1):
                assert hamming_success(est, truth, h) == (best <= 2 * h, best)


@pytest.mark.parametrize("spec", SPECS)
def test_allowed_is_the_best_case(spec):
    checked = 0
    for quality, k, truth in tied_cases():
        n = len(quality)
        try:
            family = parse_family_spec(spec, n, k)
        except ValueError:  # e.g. hamming needs h < k and k + h <= n
            continue
        orders = list(tie_orders(quality))
        for est in combinations(range(n), k):
            best = any(membership(family, positions_under(order, est)) for order in orders)
            assert allowed_success(est, truth, family) == best
            checked += 1
    assert checked > 0


@pytest.mark.parametrize("bad", [-1, 5])
def test_unknown_items_rejected(bad):
    truth = ground_truth(gen_parametric(np.array([2.0, 1.0, 1.0, 0.0, 0.0]), "logistic"), 2)
    with pytest.raises(ValueError, match="unknown items"):
        favorable_positions([0, bad], truth)


def test_positions_accept_numpy_items():
    _, _, truth = next(tied_cases())
    est = np.arange(truth.k)
    assert favorable_positions(est, truth) == favorable_positions(est.tolist(), truth)
