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
    evaluate,
    family_exact,
    favorable_positions,
    gen_parametric,
    ground_truth,
    make_matrix,
    parse_family_spec,
    scores,
)
from pairrank import metrics

from conftest import membership

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


def tie_classes(truth):
    """Items grouped by equal best position, best group first."""
    best = truth.best_position.tolist()
    return [[i for i, b in enumerate(best) if b == level] for level in sorted(set(best))]


def test_cases_have_ties():
    tied = [t for _, _, t in tied_cases() if len(set(t.best_position.tolist())) < t.n]
    assert len(tied) >= 25


def test_tie_classes_match_qualities():
    for quality, _, truth in tied_cases():
        classes = tie_classes(truth)
        assert classes == quality_classes(quality)
        # each class starts right after the items of the better classes
        starts = [1 + sum(map(len, classes[:c])) for c in range(len(classes))]
        assert [truth.best_position[c[0]] for c in classes] == starts


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
            exact, hamming, _ = evaluate(est, truth, family_exact(len(quality), k))
            assert (exact, hamming) == (best == 0, best)


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
            assert evaluate(est, truth, family)[2] == best
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


def near_tie_matrix(gaps):
    """A matrix whose scores, from the last item down to item 0, fall by ``gaps``.

    ``M[i, j] = 1/2 + (s_i - s_j) / 2`` gives score differences
    ``(s_i - s_j) / 2``.
    """
    s = -2 * np.concatenate(([0.0], np.cumsum(gaps)))[::-1]
    return make_matrix(0.5 + (s[:, None] - s[None, :]) / 2)


def test_ground_truth_chains_near_ties(monkeypatch):
    atol = metrics.TIE_ATOL
    # items 4, 3, 2, 1 chain (their scores span 1.5 atol); item 0 is 3 atol below
    matrix = near_tie_matrix([atol / 2, atol / 2, atol / 2, 3 * atol])
    truth = ground_truth(matrix, 2)
    assert truth.best_position.tolist() == [5, 1, 1, 1, 1]
    assert evaluate((1, 2), truth, family_exact(5, 2)) == (True, 0, True)
    assert evaluate((0, 4), truth, family_exact(5, 2)) == (False, 2, False)
    # a gap of exactly the tolerance still chains
    tau = np.sort(scores(matrix))
    monkeypatch.setattr(metrics, "TIE_ATOL", tau[1] - tau[0])
    assert ground_truth(matrix, 2).best_position.tolist() == [1] * 5


@pytest.mark.parametrize(
    "items, family, message",
    [
        ((0,), None, "estimate has size 1, expected k=2"),
        ((0, 0), None, "duplicate items"),
        ((0, 5), None, "unknown items"),
        ((0, 1), family_exact(5, 3), r"family is for \(n=5, k=3\), truth is for \(n=5, k=2\)"),
    ],
    ids=["wrong-size", "duplicate", "unknown-item", "other-family"],
)
def test_evaluate_input_errors(items, family, message):
    truth = ground_truth(gen_parametric(np.array([2.0, 1.0, 1.0, 0.0, 0.0]), "logistic"), 2)
    with pytest.raises(ValueError, match=message):
        evaluate(items, truth, family or family_exact(5, 2))
