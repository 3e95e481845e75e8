import numpy as np
import pytest
from scipy.optimize import minimize
from scipy.sparse.csgraph import connected_components
from scipy.special import expit, log_expit

from pairrank import (
    btl_loglikelihood,
    copeland_ranking,
    copeland_topk,
    mle_refine,
    rank_centrality,
    spectral_baseline,
    topk_from_scores,
    win_counts,
)
from pairrank import rank

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


def finite_mle_exists(obs) -> bool:
    """Hunter (2004): a finite BTL MLE exists iff, for every split of the
    items into two groups, someone in each group beats someone in the
    other, i.e. the "i beat j" digraph is strongly connected."""
    return connected_components(obs.wins > 0, connection="strong")[0] == 1


def well_posed_sets(rng, count):
    found = []
    while len(found) < count:
        obs = random_observation_set(rng, int(rng.integers(3, 16)))
        if finite_mle_exists(obs):
            found.append(obs)
    return found


def gradient(obs, weights) -> np.ndarray:
    w = np.log(weights)
    return obs.wins.sum(axis=1) - (obs.comparisons * expit(w[:, None] - w[None, :])).sum(axis=1)


def lbfgs_loglikelihood(obs) -> float:
    """Maximize the BTL log-likelihood with a general-purpose optimizer."""
    wins = obs.wins.astype(np.float64)

    def negative(w):
        d = w[:, None] - w[None, :]
        grad = wins.sum(axis=1) - (obs.comparisons * expit(d)).sum(axis=1)
        return -float(np.sum(wins * log_expit(d))), -grad

    res = minimize(
        negative, np.zeros(obs.n), jac=True, method="L-BFGS-B",
        options={"ftol": 1e-15, "gtol": 1e-11, "maxiter": 10000},
    )
    return -float(res.fun)


class TestMleRefine:
    def test_converges_to_the_maximum_likelihood(self, rng):
        for obs in well_posed_sets(rng, 40):
            init = rank_centrality(obs)
            weights = mle_refine(obs, init)
            assert np.all(weights > 0) and weights.sum() == pytest.approx(1.0)
            tol = 1e-10 * (1.0 + obs.comparisons.sum(axis=1))
            assert np.all(np.abs(gradient(obs, weights)) <= tol)
            ll = btl_loglikelihood(obs, weights)
            assert ll >= btl_loglikelihood(obs, init)
            reference = lbfgs_loglikelihood(obs)
            assert ll >= reference - 1e-8 * abs(reference)
            assert ll == pytest.approx(reference, rel=1e-8)

    def test_complete_balanced_design_orders_by_wins(self, rng):
        # with every pair compared equally often the MLE is monotone in
        # the win totals: strictly so wherever the totals differ
        checked = 0
        while checked < 30:
            n, m = int(rng.integers(3, 12)), int(rng.integers(1, 6))
            upper = np.triu(rng.integers(0, m + 1, size=(n, n)), k=1)
            obs = observation_set(upper + np.triu(m - upper, k=1).T)
            if not finite_mle_exists(obs):
                continue
            checked += 1
            scores = spectral_baseline(obs)
            totals = win_counts(obs)
            higher = totals[:, None] > totals[None, :]
            assert np.all((scores[:, None] > scores[None, :])[higher])

    def test_saturated_counts_do_not_lower_the_likelihood(self):
        # item 0 wins every comparison: no finite MLE exists, and without
        # a ridge the Newton system is singular
        obs = observation_set(np.array([[0, 3, 3], [0, 0, 2], [0, 1, 0]]))
        start = rank_centrality(obs)
        scores = spectral_baseline(obs)
        assert np.all(np.isfinite(scores)) and np.all(scores > 0)
        assert btl_loglikelihood(obs, scores) >= btl_loglikelihood(obs, start)
        assert topk_from_scores(scores, 1).items == (0,)

    def test_zero_mass_item_starts_at_the_bound(self):
        # item 2 never wins and has maximal degree, so its random-walk
        # mass is exactly zero; the refinement still starts from it
        obs = observation_set(np.array([[0, 2, 1], [1, 0, 1], [0, 0, 0]]))
        start = rank_centrality(obs)
        assert start[2] == 0.0
        scores = spectral_baseline(obs)
        assert np.all(scores > 0) and scores.sum() == pytest.approx(1.0)
        assert scores.argmin() == 2
        assert scores[0] > scores[1]

    @pytest.mark.parametrize(
        "init",
        [[0.5, 0.5], [0.0, 0.0, 0.0], [0.5, -0.1, 0.6], [0.5, np.inf, 0.5], [0.5, np.nan, 0.5]],
    )
    def test_init_validated(self, init):
        obs = observation_set(np.array([[0, 2, 1], [1, 0, 1], [1, 1, 0]]))
        with pytest.raises(ValueError):
            mle_refine(obs, init)

    def test_baseline_calls_stages_through_the_module(self, monkeypatch):
        obs = observation_set(np.array([[0, 2, 1], [1, 0, 1], [1, 1, 0]]))
        calls = []
        start = np.ones(3)
        monkeypatch.setattr(rank, "rank_centrality", lambda o, **kw: calls.append("rc") or start)
        monkeypatch.setattr(rank, "mle_refine", lambda o, init: calls.append("mle") or init / 3)
        assert spectral_baseline(obs).tolist() == [1 / 3] * 3
        assert calls == ["rc", "mle"]


def test_connected_matches_scipy(rng):
    for n in [1] * 5 + list(range(2, 40)) * 5:
        adjacency = np.triu(rng.random((n, n)) < rng.uniform(0.0, 3.0 / n), k=1)
        adjacency |= adjacency.T
        assert rank._connected(adjacency) == (connected_components(adjacency)[0] == 1)
    isolated = np.ones((4, 4), dtype=bool)
    np.fill_diagonal(isolated, False)
    isolated[3, :] = isolated[:, 3] = False
    assert not rank._connected(isolated)


def test_rank_centrality_is_stationary(rng):
    for _ in range(40):
        obs = random_observation_set(rng, int(rng.integers(2, 14)))
        compared = obs.comparisons > 0
        if connected_components(compared)[0] != 1:
            continue
        pi = rank_centrality(obs)
        # the walk restated: i -> j at j's win rate over i, scaled by the
        # maximum degree; the remaining mass stays put
        rates = np.zeros((obs.n, obs.n))
        rates[compared] = obs.wins.T[compared] / obs.comparisons[compared]
        move = rates / compared.sum(axis=1).max()
        step = move + np.diag(1.0 - move.sum(axis=1))
        assert np.all(pi >= 0) and pi.sum() == pytest.approx(1.0)
        np.testing.assert_allclose(pi @ step, pi, atol=1e-9)
