import numpy as np
import pytest

from pairrank import copeland_ranking, copeland_topk, topk_from_scores, win_counts

from conftest import observation_set, oracle_topk, random_observation_set


class TestCopeland:
    def test_matches_brute_force_oracle(self, rng):
        for _ in range(200):
            n = int(rng.integers(2, 9))
            obs = random_observation_set(rng, n, max_count=int(rng.integers(1, 5)))
            counts = win_counts(obs)
            for k in range(1, n + 1):
                assert set(copeland_topk(obs, k).items) == oracle_topk(counts, k)

    def test_topk_is_prefix_of_ranking(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 12))
            obs = random_observation_set(rng, n)
            order = copeland_ranking(obs).order
            assert sorted(order) == list(range(n))
            for k in range(1, n + 1):
                assert copeland_topk(obs, k).items == order[:k]

    def test_tie_broken_is_python_bool(self, rng):
        seen = set()
        for _ in range(100):
            n = int(rng.integers(2, 8))
            obs = random_observation_set(rng, n, max_count=2)
            counts = win_counts(obs)
            for k in range(1, n + 1):
                est = copeland_topk(obs, k)
                assert type(est.tie_broken) is bool
                ordered = np.sort(counts)[::-1]
                assert est.tie_broken == (k < n and ordered[k - 1] == ordered[k])
                seen.add(est.tie_broken)
        assert seen == {True, False}

    def test_ties_go_to_smaller_index(self):
        obs = observation_set(np.array([[0, 1, 0], [1, 0, 0], [1, 1, 0]]))
        est = copeland_topk(obs, 2)
        assert est.items == (2, 0)
        assert est.tie_broken is True

    def test_k_validated(self, rng):
        obs = random_observation_set(rng, 4)
        for k in (0, 5):
            with pytest.raises(ValueError):
                copeland_topk(obs, k)


def test_topk_from_scores_tie_flag():
    assert topk_from_scores([0.5, 0.2, 0.2], 2).tie_broken is True
    assert topk_from_scores([0.5, 0.3, 0.2], 2).tie_broken is False
    assert topk_from_scores([0.5, 0.3, 0.2], 3).tie_broken is False
