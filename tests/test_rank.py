import warnings

import numpy as np
import pytest
from scipy.optimize import minimize
from scipy.sparse.csgraph import connected_components, shortest_path
from scipy.special import expit, log_expit

from pairrank import harness, model, rank
from pairrank.analysis import rank_order
from pairrank.rank import (
    btl_loglikelihood,
    copeland_ranking,
    copeland_topk,
    mle_refine,
    rank_centrality,
    spectral_baseline,
    topk_from_scores,
)
from pairrank.sample import draw_observations

from conftest import observation_set, oracle_topk, random_observation_set


class TestCopeland:
    def test_matches_brute_force_oracle(self, rng):
        for _ in range(200):
            n = int(rng.integers(2, 9))
            obs = random_observation_set(rng, n, max_count=int(rng.integers(1, 5)))
            counts = obs.win_totals()
            for k in range(1, n + 1):
                assert set(copeland_topk(obs, k).items) == oracle_topk(counts, k)

    def test_topk_is_prefix_of_ranking(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 12))
            obs = random_observation_set(rng, n)
            order = copeland_ranking(obs)
            assert sorted(order) == list(range(n))
            for k in range(1, n + 1):
                assert copeland_topk(obs, k).items == order[:k]

    def test_tie_broken_is_python_bool(self, rng):
        seen = set()
        for _ in range(100):
            n = int(rng.integers(2, 8))
            obs = random_observation_set(rng, n, max_count=2)
            counts = obs.win_totals()
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
        # an exact oracle: with every pair compared equally often (a p = 1
        # draw) the MLE is a function of the win totals, strictly
        # increasing in them, so equal totals get equal scores
        checked = 0
        while checked < 30:
            n, m = int(rng.integers(3, 12)), int(rng.integers(1, 6))
            upper = np.triu(rng.integers(0, m + 1, size=(n, n)), k=1)
            obs = observation_set(upper + np.triu(m - upper, k=1).T)
            if not finite_mle_exists(obs):
                continue
            checked += 1
            scores = spectral_baseline(obs)
            totals = obs.win_totals()
            higher = totals[:, None] > totals[None, :]
            assert np.all((scores[:, None] > scores[None, :])[higher])
            same = totals[:, None] == totals[None, :]
            assert np.all(np.abs(scores[:, None] - scores[None, :])[same] <= 1e-9 * scores.max())

    def test_saturated_counts_do_not_lower_the_likelihood(self):
        # item 0 wins every comparison: no finite MLE exists, and without
        # a ridge the Newton system is singular
        obs = observation_set(np.array([[0, 3, 3], [0, 0, 2], [0, 1, 0]]))
        start = rank_centrality(obs)
        scores = spectral_baseline(obs)
        assert np.all(np.isfinite(scores)) and np.all(scores > 0)
        assert start.tolist() == [1.0, 0.0, 0.0]  # item 0 absorbs the walk
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

    def test_loglikelihood_at_positive_weights(self, rng):
        for _ in range(30):
            obs = random_observation_set(rng, int(rng.integers(2, 10)))
            weights = rng.uniform(0.01, 1.0, obs.n)
            expected = sum(
                obs.wins[i, j] * np.log(weights[i] / (weights[i] + weights[j]))
                for i in range(obs.n) for j in range(obs.n) if i != j
            )
            assert btl_loglikelihood(obs, weights) == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_loglikelihood_reads_zero_weights_as_the_refinement_start(self, rng):
        # a zero weight sits _W_BOUND logits below the mean log of the
        # positive ones, where mle_refine starts it
        for _ in range(30):
            obs = random_observation_set(rng, int(rng.integers(2, 10)))
            weights = np.where(rng.random(obs.n) < 0.5, 0.0, rng.uniform(0.01, 1.0, obs.n))
            weights[int(rng.integers(obs.n))] = 0.5
            floor = np.exp(np.log(weights[weights > 0]).mean() - rank._W_BOUND)
            bounded = np.where(weights > 0, weights, floor)
            expected = btl_loglikelihood(obs, bounded)
            assert btl_loglikelihood(obs, weights) == pytest.approx(expected, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize(
        "weights", [[0.5, 0.5], [0.0, 0.0, 0.0], [0.5, -0.1, 0.6], [0.5, np.inf, 0.5], [0.5, np.nan, 0.5]]
    )
    def test_loglikelihood_weights_validated(self, weights):
        obs = observation_set(np.array([[0, 2, 1], [1, 0, 1], [1, 1, 0]]))
        with pytest.raises(ValueError):
            btl_loglikelihood(obs, weights)

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
        reached, last = rank._reach(adjacency, np.arange(n) == 0)
        _, labels = connected_components(adjacency)
        assert np.array_equal(reached, labels == labels[0])
        # the last frontier is the items farthest from item 0
        hops = shortest_path(adjacency, unweighted=True, indices=0)
        assert np.array_equal(last, hops == hops[reached].max())
    isolated = np.ones((4, 4), dtype=bool)
    np.fill_diagonal(isolated, False)
    isolated[3, :] = isolated[:, 3] = False
    assert rank._reach(isolated, np.arange(4) == 0)[0].tolist() == [True, True, True, False]


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


def test_rank_centrality_on_one_item():
    obs = observation_set(np.zeros((1, 1)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert rank_centrality(obs).tolist() == [1.0]


def test_strongly_connected_matches_scipy(rng):
    seen = set()
    for n in [1] * 5 + list(range(2, 40)) * 5:
        density = rng.uniform(0.0, 3.0 * np.log(n + 1) / n)
        adjacency = rng.random((n, n)) < density
        np.fill_diagonal(adjacency, False)
        strong = connected_components(adjacency, directed=True, connection="strong")[0] == 1
        try:
            whole = rank._closed_class(adjacency).all()
        except rank.StationaryError:
            whole = False
        assert whole == strong
        seen.add(strong)
    assert seen == {True, False}
    assert rank._closed_class(np.zeros((1, 1), dtype=bool)).tolist() == [True]
    for n in (2, 5):  # no edges: each item is its own closed class
        with pytest.raises(rank.StationaryError, match=f"has {n} closed classes"):
            rank._closed_class(np.zeros((n, n), dtype=bool))
    cycle = np.roll(np.eye(6, dtype=bool), 1, axis=1)
    assert rank._closed_class(cycle).all()
    cycle[5, 0] = False  # a path: every item reached from 0, but 0 from none
    assert rank._reach(cycle, np.arange(6) == 0)[0].all()
    assert rank._closed_class(cycle).tolist() == [False] * 5 + [True]


def uniform_start_walk(obs, tol=1e-10, max_iters=100000):
    """The power iteration of rank_centrality restated from a uniform
    start; ``None`` where it does not converge in ``max_iters`` steps."""
    compared = obs.comparisons > 0
    rates = np.where(compared, obs.wins.T / np.maximum(obs.comparisons, 1), 0.0)
    transition = rates / int(compared.sum(axis=1).max())
    np.fill_diagonal(transition, 0.0)
    np.fill_diagonal(transition, 1.0 - transition.sum(axis=1))
    pi = np.full(obs.n, 1.0 / obs.n)
    for _ in range(max_iters):
        nxt = pi @ transition
        nxt /= nxt.sum()
        if np.abs(nxt - pi).max() < tol:
            return nxt
        pi = nxt
    return None


def random_design(rng, n_max=30):
    """Random counts, dense or sparse, over a connected comparison graph."""
    while True:
        obs = random_observation_set(rng, int(rng.integers(2, n_max)),
                                     max_count=int(rng.integers(1, 7)))
        if connected_components(obs.comparisons > 0)[0] == 1:
            return obs


def with_extreme_item(obs, item, wins_all):
    """The same comparisons with ``item`` winning (or losing) every one."""
    wins = obs.wins.copy()
    wins[item, :] = obs.comparisons[item, :] if wins_all else 0
    wins[:, item] = obs.comparisons[:, item] - wins[item, :]
    return observation_set(wins)


class TestExactStart:
    def test_one_step_on_strongly_connected_designs(self, rng):
        checked = 0
        while checked < 150:
            obs = random_design(rng)
            if not finite_mle_exists(obs):
                continue
            checked += 1
            pi = rank_centrality(obs)
            assert np.all(pi > 0) and pi.sum() == pytest.approx(1.0)
            np.testing.assert_allclose(pi, uniform_start_walk(obs), rtol=0, atol=1e-8)

    def test_hand_made_reducible_designs(self):
        # item 0 never loses, so it absorbs the walk
        obs = observation_set(np.array([[0, 3, 3], [0, 0, 2], [0, 1, 0]]))
        assert rank_centrality(obs).tolist() == [1.0, 0.0, 0.0]
        # item 2 never wins, so the walk never enters it; on {0, 1} the
        # flows balance at pi_0 / 3 == 2 pi_1 / 3
        obs = observation_set(np.array([[0, 2, 1], [1, 0, 1], [0, 0, 0]]))
        pi = rank_centrality(obs)
        assert pi[2] == 0.0
        np.testing.assert_allclose(pi, [2 / 3, 1 / 3, 0.0], rtol=0, atol=1e-15)


def walk_moves(obs):
    """The walk's possible steps: ``i -> j`` when j beat i."""
    return obs.wins.T > 0


def closed_class_oracle(moves):
    """(items reached from every item, number of closed classes), from a
    boolean transitive closure.  With one closed class the first is that
    class; with several it is empty."""
    n = moves.shape[0]
    reach = moves | np.eye(n, dtype=bool)
    for k in range(n):  # Warshall: paths through items 0..k
        reach |= reach[:, [k]] & reach[[k], :]
    # an item is in a closed class when every item it reaches reaches it back
    in_closed = ~(reach & ~reach.T).any(axis=1)
    return reach.all(axis=0), len({tuple(row) for row in reach[in_closed]})


# A uniform-start walk that meets its 1e-10 step tolerance within 3,000
# steps contracts by at least (1e-10) ** (1 / 3000) ~ 0.9924 per step, so
# it stops within about 1e-10 / (1 - 0.9924) ~ 1.3e-8 of its limit.
UNIFORM_LIMIT_ATOL = 1e-6


def drain_design():
    """Items 0-28 beat each other 3 times each; item 29 beats item 0 once
    in 6; item 30 meets only item 29 and beats it 6 times.  Item 30 never
    loses, so the walk drains into it through the one weak item 29."""
    wins = np.zeros((31, 31), dtype=np.int64)
    wins[:29, :29] = 3
    np.fill_diagonal(wins, 0)
    wins[29, 0], wins[0, 29] = 1, 5
    wins[30, 29] = 6
    return observation_set(wins)


class TestClosedClass:
    def test_matches_transitive_closure(self, rng):
        outcomes = set()
        for n in [1] * 3 + list(range(2, 30)) * 6:
            moves = rng.random((n, n)) < rng.uniform(0.0, 3.0 * np.log(n + 1) / n)
            np.fill_diagonal(moves, False)
            expected, count = closed_class_oracle(moves)
            if count == 1:
                assert np.array_equal(rank._closed_class(moves), expected)
            else:
                with pytest.raises(rank.StationaryError, match=f"has {count} closed classes"):
                    rank._closed_class(moves)
            outcomes.add("several" if count != 1 else "all" if expected.all() else "part")
        assert outcomes == {"all", "part", "several"}

    def test_one_closed_class_is_stationary_and_zero_off_it(self, rng):
        reducible = near_walk_limit = 0
        while reducible < 150:
            obs = random_design(rng)
            if rng.random() < 0.5:
                obs = with_extreme_item(obs, int(rng.integers(obs.n)), bool(rng.integers(2)))
            closed, count = closed_class_oracle(walk_moves(obs))
            if count != 1 or closed.all():
                continue
            reducible += 1
            pi = rank_centrality(obs)
            assert np.all(pi >= 0) and pi.sum() == pytest.approx(1.0)
            assert np.all(pi[~closed] == 0.0) and np.all(pi[closed] > 0)
            degrees = (obs.comparisons > 0).sum(axis=1)
            move = obs.wins.T / obs.comparisons.clip(1) / degrees.max()
            step = move + np.diag(1.0 - move.sum(axis=1))
            np.testing.assert_allclose(pi @ step, pi, rtol=0, atol=1e-12)
            limit = uniform_start_walk(obs, max_iters=3000)
            if limit is not None:
                near_walk_limit += 1
                assert np.abs(pi - limit).max() <= UNIFORM_LIMIT_ATOL
            # the refinement keeps the likelihood of the zero-mass start
            start_ll = btl_loglikelihood(obs, pi)
            refined_ll = btl_loglikelihood(obs, spectral_baseline(obs))
            assert refined_ll >= start_ll - 1e-12 * abs(start_ll)
        assert near_walk_limit >= 50

    def test_unbeaten_items_that_never_met(self):
        # items 0 and 1 each beat items 2 and 3 and never met: each one
        # alone is a closed class of the walk
        obs = observation_set(np.array([[0, 0, 2, 1], [0, 0, 1, 3], [0, 0, 0, 2], [0, 0, 1, 0]]))
        assert connected_components(obs.comparisons > 0)[0] == 1
        for estimator in (rank_centrality, spectral_baseline):
            with pytest.raises(rank.StationaryError, match="has 2 closed classes"):
                estimator(obs)

    @pytest.mark.parametrize("n", [8, 12, 20])
    def test_lopsided_chain(self, n):
        # item i + 1 beats item i 174 times and loses once; by detailed
        # balance the walk's mass grows 174-fold along the chain, so the
        # bottom items hold less than round-off of the solve
        wins = np.zeros((n, n), dtype=np.int64)
        i = np.arange(n - 1)
        wins[i + 1, i], wins[i, i + 1] = 174, 1
        expected = 174.0 ** np.arange(n)
        expected /= expected.sum()
        for design, mass in ((wins, expected), (wins[::-1, ::-1], expected[::-1])):
            pi = rank_centrality(observation_set(design))
            assert np.all(pi >= 0)
            np.testing.assert_allclose(pi, mass, rtol=0, atol=1e-12)

    def test_a_failed_solve_is_a_stationary_error(self, monkeypatch):
        obs = observation_set(np.array([[0, 2, 1], [1, 0, 1], [1, 1, 0]]))
        with monkeypatch.context() as patch:
            # the confirming step rejects a vector that is not stationary
            patch.setattr(rank, "_stationary", lambda rates: np.full(len(rates), 1 / 3))
            with pytest.raises(rank.StationaryError, match="one walk step moves"):
                rank_centrality(obs)

        def singular(*args):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", singular)
        with pytest.raises(rank.StationaryError, match="singular"):
            rank_centrality(obs)

    def test_drain_is_solved_without_iterating(self):
        obs = drain_design()
        # the uniform-start power iteration does not settle in 20,000 steps,
        # while the closed-class solve is exact
        assert uniform_start_walk(obs, max_iters=20000) is None
        expected = np.zeros(31)
        expected[30] = 1.0
        assert np.array_equal(rank_centrality(obs), expected)
        assert topk_from_scores(spectral_baseline(obs), 1).items == (30,)

    @pytest.mark.parametrize("design", ["chain", "total_order", "chain_into_dense_class"])
    def test_descent_takes_few_searches(self, rng, monkeypatch, design):
        # a step rule that follows the walk one item at a time, or to a
        # random item ahead, makes many searches on one of these designs;
        # the descent starts at label 0, here the item farthest from the class
        n = 300
        moves = np.zeros((n, n), dtype=bool)
        start = 0
        if design == "chain":  # item i + 1 beats item i, so i -> i + 1
            moves[np.arange(n - 1), np.arange(1, n)] = True
        elif design == "total_order":  # item j beats every item after it
            moves = np.tril(np.ones((n, n), dtype=bool), k=-1)
            start = n - 1
        else:  # items 0..149 chain into items 150..299, which beat each other
            moves[np.arange(n // 2), np.arange(1, n // 2 + 1)] = True
            moves[n // 2:, n // 2:] = True
            np.fill_diagonal(moves, False)
        expected, _ = closed_class_oracle(moves)
        perm = np.concatenate([[start], rng.permutation(np.delete(np.arange(n), start))])
        calls = []
        reach = rank._reach
        monkeypatch.setattr(rank, "_reach", lambda *args: calls.append(1) or reach(*args))
        assert np.array_equal(rank._closed_class(moves[np.ix_(perm, perm)]), expected[perm])
        assert len(calls) <= 6
        calls.clear()
        strong = moves | moves.T  # strongly connected: one search each way
        assert rank._closed_class(strong[np.ix_(perm, perm)]).all()
        assert len(calls) == 2

    @pytest.mark.parametrize("n", [50, 200, 1000])
    def test_best_item_absorbs_a_wide_btl_draw(self, n):
        # at quality spread 10^4 item 0 wins nearly every comparison it
        # makes, and the walk ends in it
        spec = model.ModelSpec(kind="btl", quality_spread=1e4)
        obs = draw_observations(model.instantiate(spec, n), 1.0, 4, seed=1)
        assert np.flatnonzero(rank._closed_class(walk_moves(obs))).tolist() == [0]
        assert rank_centrality(obs)[0] == 1.0


def numpy_logistic(x):
    """The logistic as mle_refine builds it, with numpy's exp."""
    return 1.0 / (1.0 + np.exp(-x))


def reference_mle_refine(obs, init, logistic):
    """mle_refine with the line search that evaluates ``logistic`` on the
    won pairs of each trial and recomputes the full matrix per Newton step."""
    init = np.asarray(init, dtype=np.float64)
    n = obs.n
    w = np.full(n, -rank._W_BOUND)
    positive = init > 0
    logs = np.log(init[positive])
    w[positive] = np.clip(logs - logs.mean(), -rank._W_BOUND, rank._W_BOUND)
    comps = obs.comparisons.astype(np.float64)
    win_totals = obs.wins.sum(axis=1).astype(np.float64)
    degree = comps.sum(axis=1)
    gtol = 1e-10 * (1.0 + degree)
    regular = np.diag(1e-9 * (1.0 + degree)) + 1.0 / n
    won_i, won_j = np.nonzero(obs.wins)
    won = obs.wins[won_i, won_j].astype(np.float64)

    def gain(w, cand):
        d_new = cand[won_i] - cand[won_j]
        delta = cand - w
        with np.errstate(divide="ignore"):
            terms = np.log1p(np.expm1(delta[won_i] - delta[won_j]) * logistic(-d_new))
        return float(won @ terms)

    for _ in range(rank._NEWTON_ITERS):
        s = logistic(w[:, None] - w[None, :])
        cs = comps * s
        grad = win_totals - cs.sum(axis=1)
        if np.all(np.abs(grad) <= gtol):
            break
        a = cs * (1.0 - s)
        step = np.linalg.solve(np.diag(a.sum(axis=1)) - a + regular, grad)
        for _ in range(60):
            cand = w + step
            cand = np.clip(cand - cand.mean(), -rank._W_BOUND, rank._W_BOUND)
            if gain(w, cand) >= 0:
                break
            step *= 0.5
        else:
            break
        w = cand
    weights = np.exp(w)
    return weights / weights.sum()


class TestLineSearchReference:
    def test_matches_the_won_pair_line_search(self, rng):
        for _ in range(300):
            obs = random_design(rng)
            if rng.random() < 0.3:
                obs = with_extreme_item(obs, int(rng.integers(obs.n)), bool(rng.integers(2)))
            if rng.random() < 0.5:
                init = rng.random(obs.n) * (rng.random(obs.n) < 0.8)
                init[int(rng.integers(obs.n))] += 0.5
            else:
                init = uniform_start_walk(obs, max_iters=3000)
                if init is None:
                    continue
            expected = reference_mle_refine(obs, init, numpy_logistic)
            assert np.array_equal(mle_refine(obs, init), expected)

    def test_hand_made_designs(self):
        # the saturated and zero-mass designs above, from their walk starts
        for wins in ([[0, 3, 3], [0, 0, 2], [0, 1, 0]], [[0, 2, 1], [1, 0, 1], [0, 0, 0]]):
            obs = observation_set(np.array(wins))
            init = rank_centrality(obs)
            expected = reference_mle_refine(obs, init, numpy_logistic)
            assert np.array_equal(mle_refine(obs, init), expected)

    def test_logistic_matches_scipy_expit(self):
        # differences of log-weights in the box span [-80, 80]
        w = np.linspace(-rank._W_BOUND, rank._W_BOUND, 801)
        s = rank._logistic(w)
        assert np.array_equal(s, numpy_logistic(w[:, None] - w[None, :]))
        d = np.linspace(-2 * rank._W_BOUND, 2 * rank._W_BOUND, 100001)
        for x in (w[:, None] - w[None, :], d):
            exact = expit(x)
            assert np.all(np.abs(numpy_logistic(x) - exact) <= 1e-15 * exact)

    def test_scipy_expit_reference_on_the_figure_suite(self, monkeypatch):
        calls = []
        refine = rank.mle_refine

        def recorded(obs, init):
            calls.append((obs, init))
            return refine(obs, init)

        monkeypatch.setattr(rank, "mle_refine", recorded)
        for cfg in harness.figure_suite(n=100, trials=3):
            harness.run_experiment(cfg)
        assert len(calls) == 18
        for obs, init in calls:
            weights, expected = refine(obs, init), reference_mle_refine(obs, init, expit)
            assert np.array_equal(rank_order(weights), rank_order(expected))
            assert np.all(np.abs(weights - expected) <= 1e-12 * expected)
