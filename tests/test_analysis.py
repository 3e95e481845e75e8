import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairrank import (
    adjacent_swap_kl_bound,
    family_exact,
    family_hamming,
    fano_lower_bound,
    gen_adjacent_swap,
    gen_hamming_planted,
    gen_parametric,
    gen_planted,
    implied_alpha,
    kl_divergence,
    make_matrix,
    planted_kl_bound,
    required_repetitions,
    scores,
    separation_report,
)

from conftest import separation_hamming, separation_topk


def uniform_matrix(n):
    return make_matrix(np.full((n, n), 0.5))


class TestScores:
    def test_uniform_matrix(self):
        assert np.all(scores(uniform_matrix(6)) == 0.5)

    def test_planted_profile(self):
        n, k, d = 12, 5, 0.25
        tau = scores(gen_planted(n, k, d))
        assert tau[:k] == pytest.approx(0.5 + d * (n - k) / n, abs=1e-12)
        assert tau[k:] == pytest.approx(0.5 - d * k / n, abs=1e-12)

    def test_sum_is_half_n(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 30))
            w = rng.normal(size=n)
            tau = scores(gen_parametric(w, "logistic"))
            assert tau.sum() == pytest.approx(n / 2, abs=1e-9)

    def test_quality_order_preserved(self, rng):
        for _ in range(10):
            w = rng.normal(size=12)
            while len(np.unique(w)) < 12:
                w = rng.normal(size=12)
            tau = scores(gen_parametric(w, "logistic"))
            assert np.array_equal(np.argsort(-tau), np.argsort(-w))


class TestSeparationTopk:
    def test_planted_equals_delta(self):
        assert separation_topk(gen_planted(30, 7, 0.15), 7) == pytest.approx(0.15, abs=1e-12)

    def test_uniform_is_zero(self):
        assert separation_topk(uniform_matrix(8), 3) == 0.0

    def test_adjacent_swap_every_k(self):
        n = 12
        d0 = 1.0 / (9 * (n - 1))
        m = gen_adjacent_swap(n, d0, 5)
        for k in range(1, n):
            assert separation_topk(m, k) == pytest.approx(d0, abs=1e-12)

    def test_bounds(self):
        m = uniform_matrix(5)
        for k in (0, 5, 6):
            with pytest.raises(ValueError):
                separation_topk(m, k)


class TestSeparationHamming:
    def test_h_zero_equals_topk(self, rng):
        for _ in range(10):
            m = gen_parametric(rng.normal(size=9), "logistic")
            k = int(rng.integers(1, 8))
            assert separation_hamming(m, k, 0) == separation_topk(m, k)

    def test_hamming_planted_equals_delta0(self):
        n, k, d0 = 20, 6, 0.2
        m = gen_hamming_planted(n, k, d0)
        for h in range(0, k):
            if k + h + 1 <= n:
                assert separation_hamming(m, k, h) == pytest.approx(d0, abs=1e-12)

    def test_monotone_in_h(self, rng):
        for _ in range(10):
            m = gen_parametric(rng.normal(size=11), "logistic")
            vals = [separation_hamming(m, 5, h) for h in range(5)]
            assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))

    def test_bounds(self):
        m = uniform_matrix(6)
        with pytest.raises(ValueError):
            separation_hamming(m, 3, 3)
        with pytest.raises(ValueError):
            separation_hamming(m, 3, -1)
        with pytest.raises(ValueError):
            separation_hamming(m, 5, 1)  # k + h + 1 > n


class TestRequiredRepetitions:
    def test_hand_computed_example(self):
        # ceil(64 * log(100) / (100 * 0.01)) = ceil(294.73..) = 295
        assert required_repetitions(100, 1.0, 0.1, 8.0) == 295

    def test_doubling_delta_quarters_r(self):
        r1 = required_repetitions(200, 0.5, 0.05, 8.0)
        r2 = required_repetitions(200, 0.5, 0.1, 8.0)
        assert r2 == math.ceil(64 * math.log(200) / (200 * 0.5 * 0.01))
        assert abs(r1 - 4 * r2) <= 4

    def test_alpha_four_quarters_alpha_eight(self):
        r8 = required_repetitions(100, 1.0, 0.1, 8.0)
        r4 = required_repetitions(100, 1.0, 0.1, 4.0)
        assert abs(r8 - 4 * r4) <= 4

    def test_zero_delta_rejected(self):
        with pytest.raises(ValueError, match="separation is zero"):
            required_repetitions(100, 1.0, 0.0, 8.0)

    @pytest.mark.parametrize(
        "p, delta, alpha",
        [(1.0, 0.1, 1e308), (1.0, 1e-200, 8.0), (1e-300, 0.1, 8.0), (1.0, 1e-8, 1e2)],
        ids=["alpha-squared-overflows", "delta-squared-underflows", "tiny-p", "large-ratio"],
    )
    def test_count_past_two_to_the_53_rejected(self, p, delta, alpha):
        with pytest.raises(ValueError, match=r"more than 2\*\*53"):
            required_repetitions(100, p, delta, alpha)

    def test_count_just_below_the_cap_is_exact(self):
        r = required_repetitions(100, 1.0, 1e-7, 1.0)
        assert r == math.ceil(math.log(100) / (100 * 1e-14) - 1e-12)
        assert r < 2**53

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(2, 5000),
        p=st.floats(0.01, 1.0),
        delta=st.floats(1e-4, 0.49),
        alpha=st.floats(0.1, 16.0),
    )
    def test_minimality_invariant(self, n, p, delta, alpha):
        r = required_repetitions(n, p, delta, alpha)
        threshold = lambda rr: alpha * math.sqrt(math.log(n) / (n * p * rr))
        assert delta >= threshold(r)
        if r > 1:
            assert delta < threshold(r - 1)


class TestKLDivergence:
    def test_identical_matrices(self):
        m = gen_planted(10, 3, 0.2)
        assert kl_divergence(m, m, 0.7, 5) == 0.0

    def test_nonnegative(self, rng):
        for _ in range(10):
            a = gen_parametric(rng.normal(size=6), "logistic")
            b = gen_parametric(rng.normal(size=6), "logistic")
            assert kl_divergence(a, b, 0.5, 2) >= 0.0

    def test_additive_in_r(self, rng):
        a = gen_parametric(rng.normal(size=7), "logistic")
        b = gen_parametric(rng.normal(size=7), "logistic")
        assert kl_divergence(a, b, 0.3, 8) == 2.0 * kl_divergence(a, b, 0.3, 4)

    def test_planted_pair_within_closed_form_bound(self, rng):
        for _ in range(25):
            n = int(rng.integers(5, 40))
            k = int(rng.integers(1, max(2, n // 2)))
            delta = float(rng.uniform(0.01, 0.45))
            p = float(rng.uniform(0.05, 1.0))
            r = int(rng.integers(1, 50))
            a_idx, b_idx = rng.choice(np.arange(k - 1, n), size=2, replace=False)
            ma = gen_planted(n, k, delta, plant_index=int(a_idx))
            mb = gen_planted(n, k, delta, plant_index=int(b_idx))
            assert kl_divergence(ma, mb, p, r) <= planted_kl_bound(n, p, r, delta)

    def test_adjacent_swap_pair_within_closed_form_bound(self, rng):
        for _ in range(25):
            n = int(rng.integers(9, 40))
            d0 = float(rng.uniform(0.1, 1.0)) / (9 * (n - 1))
            p = float(rng.uniform(0.05, 1.0))
            r = int(rng.integers(1, 50))
            a_idx, b_idx = rng.choice(n - 1, size=2, replace=False)
            ma = gen_adjacent_swap(n, d0, int(a_idx))
            mb = gen_adjacent_swap(n, d0, int(b_idx))
            assert kl_divergence(ma, mb, p, r) <= adjacent_swap_kl_bound(n, p, r, d0)

    def test_zero_mass_mismatch_is_infinite(self):
        a = make_matrix([[0.5, 1.0], [0.0, 0.5]])
        b = make_matrix([[0.5, 0.0], [1.0, 0.5]])
        c = make_matrix([[0.5, 0.6], [0.4, 0.5]])
        assert kl_divergence(c, b, 1.0, 1) == math.inf
        # zero probability on the first argument contributes nothing
        assert math.isfinite(kl_divergence(b, c, 1.0, 1))
        assert kl_divergence(a, a, 1.0, 1) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="sizes differ"):
            kl_divergence(uniform_matrix(4), uniform_matrix(5), 1.0, 1)

    def test_monte_carlo_log_likelihood_ratio(self, rng):
        # the mean log-likelihood ratio under the first model estimates
        # the divergence; 1e5 sampled observation sets, 3 standard errors
        n, p, r = 4, 0.6, 3
        ma = gen_parametric(np.array([0.8, 0.2, -0.3, -0.7]), "logistic")
        mb = gen_planted(n, 2, 0.2)
        reps = 100_000
        iu, ju = np.triu_indices(n, 1)
        pa = ma.entries[iu, ju]
        pb = mb.entries[iu, ju]
        counts = rng.binomial(r, p, size=(reps, iu.size))
        wins = rng.binomial(counts, pa)
        llr = wins @ np.log(pa / pb) + (counts - wins) @ np.log((1 - pa) / (1 - pb))
        exact = kl_divergence(ma, mb, p, r)
        se = llr.std(ddof=1) / math.sqrt(reps)
        assert abs(llr.mean() - exact) <= 3 * se


class TestFano:
    def test_two_hypotheses_zero_kl(self):
        assert fano_lower_bound(2, 0.0) == 0.0

    def test_hand_computed_value(self):
        # L = 2 e^2 makes log L = 2 + log 2
        expected = 1.0 - math.log(2.0) / (2.0 + math.log(2.0))
        assert fano_lower_bound(2.0 * math.e**2, 0.0) == pytest.approx(expected, abs=1e-12)

    def test_clamped_at_zero(self):
        assert fano_lower_bound(3, 100.0) == 0.0

    def test_needs_two_hypotheses(self):
        with pytest.raises(ValueError):
            fano_lower_bound(1, 0.0)

    def test_planted_ensemble_reaches_one_seventh(self):
        for n in (7, 20, 50, 120, 200):
            for k in (1, n // 4, n // 2):
                if k < 1:
                    continue
                for r in (1, 5, 40):
                    p = min(1.0, math.log(n) / (2 * n * r))
                    delta = math.sqrt(math.log(n) / (n * p * r)) / 7.0
                    bound = planted_kl_bound(n, p, r, delta)
                    assert fano_lower_bound(n - k + 1, bound) >= 1.0 / 7.0


class TestSeparationReport:
    def test_fields_and_inversion(self):
        m = gen_planted(50, 10, 0.1)
        rep = separation_report(m, family_hamming(50, 10, 0), p=1.0, r=200, alpha=8.0)
        assert rep.n == 50 and rep.k == 10 and rep.family == "hamming(h=0)"
        assert rep.delta == pytest.approx(0.1, abs=1e-12)
        assert rep.alpha_implied == pytest.approx(implied_alpha(50, 1.0, 200, rep.delta))
        assert rep.r_required == required_repetitions(50, 1.0, rep.delta, 8.0)
        d = rep.to_dict()
        assert set(d) == {"n", "k", "family", "delta", "alpha_implied", "r_required"}

    def test_missing_inputs_give_none(self):
        rep = separation_report(gen_planted(20, 5, 0.2), family_exact(20, 5))
        assert rep.alpha_implied is None and rep.r_required is None

    def test_unconstrained_family_serializes_as_strict_json(self):
        # k + h == n allows every set: the separation is infinite
        family = family_hamming(8, 5, 3)
        rep = separation_report(gen_planted(8, 5, 0.2), family, p=1.0, r=2, alpha=8.0)
        assert rep.delta == math.inf and rep.alpha_implied == math.inf and rep.r_required == 1
        assert json.dumps(rep.to_dict(), allow_nan=False, sort_keys=True) == (
            '{"alpha_implied": null, "delta": null, "family": "hamming(h=3)", '
            '"k": 5, "n": 8, "r_required": 1}'
        )

    @pytest.mark.parametrize("h", [0, 1, 2])
    def test_report_delta_is_the_hamming_closed_form(self, rng, h):
        for _ in range(30):
            n = int(rng.integers(h + 3, 40))
            k = int(rng.integers(h + 1, n - h))
            m = gen_parametric(rng.normal(size=n))
            rep = separation_report(m, family_hamming(n, k, h))
            assert rep.delta == separation_hamming(m, k, h)
