import csv
import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from collections import Counter
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pairrank import sample
from pairrank.model import gen_parametric, gen_planted, make_matrix
from pairrank.rank import copeland_topk
from pairrank.sample import (
    ObservationSet,
    draw_observations,
    read_comparisons,
    read_observations_csv,
    subsample,
    write_observations_csv,
)

from conftest import oracle_topk


def certain_matrix():
    # item 0 always beats item 1, item 2 is a coin flip against both
    return make_matrix(
        [
            [0.5, 1.0, 0.5],
            [0.0, 0.5, 0.5],
            [0.5, 0.5, 0.5],
        ]
    )


class TestDrawObservations:
    def test_p_one_gives_exactly_r_everywhere(self):
        m = gen_planted(10, 3, 0.2)
        obs = draw_observations(m, 1.0, 17, seed=4)
        iu, ju = np.triu_indices(10, 1)
        assert np.all(obs.comparisons[iu, ju] == 17)

    def test_certain_winner_takes_all(self):
        obs = draw_observations(certain_matrix(), 1.0, 50, seed=9)
        assert obs.wins[0, 1] == obs.comparisons[0, 1] == 50
        assert obs.wins[1, 0] == 0

    def test_win_split_consistency(self):
        m = gen_parametric(np.linspace(1, -1, 8), "logistic")
        obs = draw_observations(m, 0.7, 25, seed=1)
        assert np.array_equal(obs.wins + obs.wins.T, obs.comparisons)
        assert np.array_equal(obs.comparisons, obs.comparisons.T)
        assert np.all(obs.comparisons <= 25)
        assert np.all(np.diagonal(obs.comparisons) == 0)

    def test_deterministic(self):
        m = gen_planted(12, 4, 0.3)
        a = draw_observations(m, 0.5, 9, seed=77)
        b = draw_observations(m, 0.5, 9, seed=77)
        assert np.array_equal(a.wins, b.wins)
        assert np.array_equal(a.comparisons, b.comparisons)
        c = draw_observations(m, 0.5, 9, seed=78)
        assert not np.array_equal(a.wins, c.wins)

    def test_mean_comparisons_matches_binomial(self):
        # p=0.5, r=20: mean count per pair is 10; the pooled mean over
        # all pairs and replications must land within 3 standard errors,
        # at n=50 (one pair block) and n=300 (six blocks)
        for n, reps in ((50, 10_000), (300, 20)):
            m = gen_planted(n, 10, 0.1)
            iu, ju = np.triu_indices(n, 1)
            total = 0
            for i in range(reps):
                total += int(draw_observations(m, 0.5, 20, seed=i).comparisons[iu, ju].sum())
            samples = reps * iu.size
            mean = total / samples
            se = math.sqrt(20 * 0.5 * 0.5 / samples)
            assert abs(mean - 10.0) <= 3 * se, n

    def test_empirical_frequency_tracks_matrix(self):
        # r*p = 1e4: every pair's win frequency within 5 binomial sigmas
        m = gen_parametric(np.linspace(0.8, -0.8, 6), "logistic")
        iu, ju = np.triu_indices(6, 1)
        probs = m.entries[iu, ju]
        for seed in (0, 1, 2):
            obs = draw_observations(m, 1.0, 10_000, seed=seed)
            freq = obs.wins[iu, ju] / obs.comparisons[iu, ju]
            bound = 5 * np.sqrt(probs * (1 - probs) / obs.comparisons[iu, ju])
            assert np.all(np.abs(freq - probs) <= bound)

    def test_parameter_validation(self):
        m = gen_planted(5, 2, 0.1)
        with pytest.raises(ValueError):
            draw_observations(m, 0.0, 5, seed=0)
        with pytest.raises(ValueError):
            draw_observations(m, 0.5, 0, seed=0)
        with pytest.raises(ValueError):
            draw_observations(m, 0.5, 5, seed=-1)

    @pytest.mark.parametrize("r", [2.5, 3.0, True, "4", None])
    def test_r_must_be_an_integer(self, r):
        with pytest.raises(ValueError, match="r must be an integer"):
            draw_observations(gen_planted(5, 2, 0.1), 0.5, r, seed=0)

    def test_numpy_integer_r_is_stored_as_int(self, tmp_path):
        obs = draw_observations(gen_planted(5, 2, 0.1), 0.5, np.int64(6), seed=0)
        assert type(obs.r) is int and obs.r == 6
        path = tmp_path / "obs.csv"
        write_observations_csv(obs, path)
        assert path.read_text().splitlines()[0] == "# n=5 r=6 p=0.5"
        assert read_observations_csv(path).r == 6


class TestArrayConstructor:
    # column wins differ from row wins in every pair, so a set that took one for
    # the other would read back other arrays
    WINS = np.array([[0, 3, 1, 0], [2, 0, 0, 4], [5, 1, 0, 2], [1, 0, 6, 0]])

    def build(self, comparisons, wins, n=4):
        return ObservationSet(n=n, r=9, p=None, comparisons=comparisons, wins=wins)

    def test_reads_back_the_arrays_it_was_given(self):
        comparisons = self.WINS + self.WINS.T
        obs = self.build(comparisons, self.WINS)
        for got, given in (obs.wins, self.WINS), (obs.comparisons, comparisons):
            assert got.dtype == np.int64 and not got.flags.writeable
            np.testing.assert_array_equal(got, given)
        np.testing.assert_array_equal(obs.win_totals(), self.WINS.sum(axis=1))
        assert obs.total_comparisons() == int(comparisons.sum()) // 2
        assert (obs.n, obs.r, obs.p) == (4, 9, None)

    def test_keeps_no_reference_to_the_arrays(self):
        wins = self.WINS.copy()
        obs = self.build(wins + wins.T, wins)
        wins[0, 1] = 7
        assert obs.wins[0, 1] == 3

    def test_a_nonzero_diagonal_is_rejected(self):
        wins = self.WINS.copy()
        wins[2, 2] = 1
        with pytest.raises(ValueError, match="wins must have a zero diagonal"):
            self.build(wins + wins.T, wins)

    def test_comparisons_other_than_wins_plus_transpose_are_rejected(self):
        wins = np.zeros((2, 2), dtype=np.int64)
        wins[0, 1] = 1
        with pytest.raises(ValueError, match=r"comparisons must equal wins \+ wins\.T"):
            self.build(np.zeros((2, 2), dtype=np.int64), wins, n=2)
        with pytest.raises(ValueError, match=r"comparisons must equal wins \+ wins\.T"):
            self.build(self.WINS + self.WINS, self.WINS)

    @pytest.mark.parametrize("shapes", [((4, 4), (3, 3)), ((3, 3), (4, 4)), ((5, 5), (5, 5)),
                                        ((4, 4), (4, 5)), ((16,), (16,))])
    def test_a_shape_other_than_n_by_n_is_rejected(self, shapes):
        comparisons, wins = (np.zeros(shape, dtype=np.int64) for shape in shapes)
        with pytest.raises(ValueError, match="comparisons and wins must be 4 x 4"):
            self.build(comparisons, wins)


def binomial_pmf(r, p):
    """Exact ``Binomial(r, p)`` probabilities of k = 0..r, as floats."""
    p = Fraction(p)
    return [float(math.comb(r, k) * p**k * (1 - p) ** (r - k)) for k in range(r + 1)]


def binomial_cdf(r, p):
    """The exact ``Binomial(r, p)`` CDF at k = 0..r, each rounded once."""
    p = Fraction(p)
    total, cdf = Fraction(0), []
    for k in range(r + 1):
        total += math.comb(r, k) * p**k * (1 - p) ** (r - k)
        cdf.append(float(total))
    return np.array(cdf)


class TestCountDraw:
    # (r, p) with r * min(p, 1 - p) <= 30, where numpy's binomial inverts
    # the CDF with one uniform per draw, as the count draw does
    @pytest.mark.parametrize(
        "r, p",
        [(1, 0.3), (16, 0.25), (65, 0.25), (120, 0.25), (60, 0.5), (30, 0.7), (40, 0.75),
         (100, 0.9), (3 * 10**7, 1e-6)],
    )
    def test_counts_match_numpy_where_numpy_inverts(self, r, p):
        n, seed = 128, 12
        obs = draw_observations(gen_planted(n, 4, 0.2), p, r, seed)
        rng = np.random.default_rng(np.random.SeedSequence((seed, DRAW_TAG)))
        expected = rng.binomial(r, p, size=n * (n - 1) // 2)
        np.testing.assert_array_equal(obs.comparisons[np.triu_indices(n, 1)], expected)

    @pytest.mark.parametrize("r, p", [(405, 0.25), (2177, 0.75)])
    def test_counts_fit_the_binomial(self, r, p):
        # chi-square goodness of fit at r * min(p, 1 - p) > 30 on one
        # 44,850-pair draw; each tail pooled into the outermost count that
        # expects >= 5 draws; 0.1% level
        from scipy.stats import chi2

        n = 300
        counts = draw_observations(gen_planted(n, 10, 0.1), p, r, seed=5).comparisons
        counts = counts[np.triu_indices(n, 1)]
        expected = counts.size * np.array(binomial_pmf(r, p))
        observed = np.bincount(counts, minlength=r + 1).astype(float)
        lo, hi = np.flatnonzero(expected >= 5)[[0, -1]]
        cells_e, cells_o = (
            np.array([x[: lo + 1].sum(), *x[lo + 1 : hi], x[hi:].sum()])
            for x in (expected, observed)
        )
        stat = ((cells_o - cells_e) ** 2 / cells_e).sum()
        assert stat <= chi2.ppf(0.999, cells_e.size - 1)

    @pytest.mark.parametrize("r, p", [(1, 0.5), (7, 0.5), (4, 0.75), (40, 0.3), (400, 0.25)])
    def test_count_at_table_steps(self, r, p):
        # u exactly on each tabulated CDF value and guide bucket edge, and
        # one step below each: the count is offset + #{i : cdf[i] <= u}
        class FixedUniforms:
            def random(self, size):
                return us

        q = 1.0 - p if p > 0.5 else p
        offset, cdf, guide = sample._count_table(r, q)
        exact = binomial_cdf(r, q)
        assert np.all(exact[:offset] < 2**-53)
        np.testing.assert_allclose(cdf, exact[offset : offset + cdf.size], rtol=1e-12, atol=2**-52)
        assert np.all(exact[offset + cdf.size :] == 1.0)
        steps = np.concatenate([cdf, np.arange(guide.size) / guide.size, [1.0]])
        us = np.unique(np.concatenate([steps, np.nextafter(steps, 0.0)]))[:-1]
        expected = offset + (cdf[None, :] <= us[:, None]).sum(axis=1)
        if p > 0.5:
            expected = r - expected
        counts = sample._draw_counts(FixedUniforms(), r, p, us.size, (offset, cdf, guide))
        np.testing.assert_array_equal(counts, expected)

    @pytest.mark.parametrize("p", [0.25, 1e-6, 0.999])
    def test_huge_r_is_fast(self, p):
        sample._count_table.cache_clear()
        start = time.perf_counter()
        obs = draw_observations(gen_planted(4, 1, 0.2), p, 10**9, seed=3)
        assert time.perf_counter() - start < 1.0
        assert_valid(obs, 10**9)
        assert obs.r == 10**9


class TestSubsample:
    def test_q_one_is_identity(self):
        m = gen_planted(8, 2, 0.2)
        obs = draw_observations(m, 0.8, 12, seed=3)
        thin = subsample(obs, 1.0, seed=5)
        assert np.array_equal(thin.wins, obs.wins)
        assert np.array_equal(thin.comparisons, obs.comparisons)
        assert thin.p == obs.p

    @pytest.mark.parametrize("q", [0.0, -0.5, 1.5])
    def test_q_outside_zero_one_is_rejected(self, q):
        # a thinning at q = 0 would have p = 0, which no observations file can hold
        m = gen_planted(8, 2, 0.2)
        obs = draw_observations(m, 0.8, 12, seed=3)
        with pytest.raises(ValueError, match=r"q must lie in \(0, 1\]"):
            subsample(obs, q, seed=5)

    def test_half_thinning_total(self):
        # ~1e4 comparisons thinned at q = 1/2: retained total within 3
        # standard errors of one half
        m = gen_planted(46, 10, 0.1)
        obs = draw_observations(m, 1.0, 10, seed=21)
        total = obs.total_comparisons()
        assert total == math.comb(46, 2) * 10
        thin = subsample(obs, 0.5, seed=22)
        se = math.sqrt(total * 0.25)
        assert abs(thin.total_comparisons() - total / 2) <= 3 * se

    def test_matches_fresh_draw_distribution(self):
        # thinning a (p, r) draw matches a (p*q, r) draw: chi-square on
        # the per-pair count histogram over 1e4 replications, 1% level
        from scipy.stats import chi2

        m = gen_planted(4, 1, 0.2)
        p, q, r, reps = 0.6, 0.5, 8, 10_000
        thinned = np.empty(reps, dtype=np.int64)
        fresh = np.empty(reps, dtype=np.int64)
        for i in range(reps):
            obs = draw_observations(m, p, r, seed=i)
            thinned[i] = subsample(obs, q, seed=reps + i).comparisons[0, 1]
            fresh[i] = draw_observations(m, p * q, r, seed=2 * reps + i).comparisons[0, 1]
        table = np.zeros((2, r + 1))
        for row, data in enumerate((thinned, fresh)):
            for value in data:
                table[row, value] += 1
        keep = table.sum(axis=0) >= 10
        pooled = table[:, ~keep].sum(axis=1)
        table = table[:, keep]
        if pooled.sum() > 0:
            table = np.column_stack([table, pooled])
        col = table.sum(axis=0)
        row = table.sum(axis=1)
        expected = np.outer(row, col) / table.sum()
        stat = ((table - expected) ** 2 / expected).sum()
        dof = table.shape[1] - 1
        assert stat <= chi2.ppf(0.99, dof)

    def test_deterministic(self):
        obs = draw_observations(gen_planted(10, 3, 0.2), 1.0, 20, seed=8)
        a = subsample(obs, 0.3, seed=1)
        b = subsample(obs, 0.3, seed=1)
        assert np.array_equal(a.wins, b.wins)
        assert not np.array_equal(a.wins, subsample(obs, 0.3, seed=2).wins)

    def test_p_metadata_scales(self):
        obs = draw_observations(gen_planted(6, 2, 0.2), 0.8, 10, seed=0)
        assert subsample(obs, 0.5, seed=1).p == pytest.approx(0.4)

    def test_q_validated(self):
        obs = draw_observations(gen_planted(6, 2, 0.2), 0.8, 10, seed=0)
        with pytest.raises(ValueError):
            subsample(obs, 1.5, seed=0)


# The stream contract, restated.  A draw cuts the pairs i < j, in
# row-major order, into blocks of DRAW_BLOCK pairs: block 0 reads the
# generator seeded by (seed, tag), block b >= 1 child b - 1 of that seed
# sequence, and each block draws all its counts, then all its row wins.
# Below p = 1 a count is #{k : F(k) <= u}, for one uniform u and F the
# CDF of Binomial(r, min(p, 1 - p)), reflected to r - count above 1/2.
# A thinning reads one generator seeded by (seed, tag), each quantity
# drawn for all pairs in row-major order.
DRAW_TAG, THIN_TAG = 0x0B5E, 0x7811
DRAW_BLOCK = 8192


def _from_upper(n, row_wins, col_wins):
    """The count arrays by pair indexing: pair ``(i, j)``, ``i < j``, in row-major order."""
    iu, ju = np.triu_indices(n, 1)
    wins = np.zeros((n, n), dtype=np.int64)
    wins[iu, ju] = row_wins
    wins[ju, iu] = col_wins
    return wins + wins.T, wins


def draw_oracle(matrix, p, r, seed):
    """Per pair block, one after another: its counts, then its row wins."""
    n = matrix.n
    iu, ju = np.triu_indices(n, 1)
    root = np.random.SeedSequence((seed, DRAW_TAG))
    starts = range(0, iu.size, DRAW_BLOCK)
    children = root.spawn(len(starts) - 1)
    q = 1.0 - p if p > 0.5 else p
    cdf = binomial_cdf(r, q)[:-1]
    row_wins, col_wins = [], []
    for b, start in enumerate(starts):
        rng = np.random.default_rng(root if b == 0 else children[b - 1])
        stop = start + DRAW_BLOCK
        probs = matrix.entries[iu[start:stop], ju[start:stop]]
        if p == 1.0:
            counts = np.full(probs.size, r)
        else:
            u = rng.random(probs.size)
            counts = (cdf[None, :] <= u[:, None]).sum(axis=1)
            if p > 0.5:
                counts = r - counts
        wins = rng.binomial(counts, probs)
        row_wins.extend(wins)
        col_wins.extend(counts - wins)
    return _from_upper(n, row_wins, col_wins)


def refuse_pool():
    raise AssertionError("a draw on one CPU started the thread pool")


def subsample_oracle(obs, q, seed):
    """All kept row wins, then all kept column wins, from one generator."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, THIN_TAG)))
    iu, ju = np.triu_indices(obs.n, 1)
    kept = rng.binomial(obs.wins[iu, ju], q)
    return _from_upper(obs.n, kept, rng.binomial(obs.wins[ju, iu], q))


@st.composite
def matrices(draw, max_n=12):
    """Comparison matrices with some certain (0/1) and coin-flip entries."""
    n = draw(st.integers(2, max_n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    upper = rng.random((n, n))
    special = rng.random((n, n)) < 0.2
    upper[special] = rng.choice([0.0, 0.5, 1.0], size=int(special.sum()))
    grid = np.triu(upper, 1) + np.tril(1.0 - upper.T, -1) + np.eye(n) / 2
    return make_matrix(grid)


def builds_nothing():
    """A context in which building a set's ``n x n`` wins fails the test."""
    return mock.patch.object(sample, "_assemble", side_effect=AssertionError("an n x n array was built"))


def assert_valid(obs, r):
    assert np.array_equal(obs.comparisons, obs.comparisons.T)
    assert np.array_equal(obs.wins + obs.wins.T, obs.comparisons)
    assert not np.diagonal(obs.comparisons).any()
    assert np.all(0 <= obs.wins) and np.all(obs.wins <= obs.comparisons)
    assert np.all(obs.comparisons <= r)
    assert obs.wins.dtype == np.int64 and obs.comparisons.dtype == np.int64


class TestStreamContract:
    @pytest.mark.parametrize(
        "n, p, r, seed",
        [
            (2, 0.5, 3, 0),
            (7, 1.0, 9, 5),
            (30, 0.3, 20, 2**40),
            (128, 0.4, 6, 3),  # 8,128 pairs: one block
            (129, 0.5, 7, 11),  # 8,256 pairs: two blocks
            (300, 0.25, 9, 2**40),  # 44,850 pairs: six blocks, the last short
            (300, 1.0, 5, 1),
            (129, 0.25, 400, 3),  # r * p > 30: numpy would switch to BTPE
            (200, 0.8, 300, 9),  # r * (1 - p) > 30, reflected
            # 8,192-pair blocks: one (up to 127), two from 129, and several with
            # a short last block (200, 256, 1000)
            *((n, p, r, n) for n in (63, 64, 65, 127, 129, 200, 256, 1000)
              for p, r in ((0.3, 9), (1.0, 5))),
        ],
    )
    def test_draw_matches_oracle(self, n, p, r, seed):
        m = gen_parametric(np.linspace(1.5, -1.5, n), "logistic")
        obs = draw_observations(m, p, r, seed)
        comparisons, wins = draw_oracle(m, p, r, seed)
        np.testing.assert_array_equal(obs.comparisons, comparisons)
        np.testing.assert_array_equal(obs.wins, wins)

    @pytest.mark.parametrize("cpus", [1, 2, 3, 4])
    def test_draw_does_not_depend_on_worker_count(self, monkeypatch, cpus):
        m = gen_parametric(np.linspace(2.0, -2.0, 300), "logistic")
        default = draw_observations(m, 0.5, 7, seed=4)
        monkeypatch.setattr(sample, "_usable_cpus", lambda: cpus)
        again = draw_observations(m, 0.5, 7, seed=4)
        np.testing.assert_array_equal(again.wins, default.wins)
        np.testing.assert_array_equal(again.comparisons, default.comparisons)

    @pytest.mark.parametrize("n, p, r", [(64, 0.25, 16), (129, 1.0, 5), (300, 0.3, 9)])
    def test_draws_ahead_match_the_oracle(self, monkeypatch, n, p, r):
        # a budget of three draws: the seven seeds are drawn in three calls
        # that find no set, and the others take the sets stored in ``ahead``
        m = gen_parametric(np.linspace(1.5, -1.5, n), "logistic")
        seeds = [5, 2**40, 7, 11, 3, 2**64 - 1, 0]
        expected = {seed: draw_oracle(m, p, r, seed) for seed in seeds}
        monkeypatch.setattr(sample, "_AHEAD_PAIRS", 3 * n * (n - 1) // 2 + 1)
        # (seed index, seeds holding a set after the call): a call that finds no
        # set draws the next seeds that hold none, and leaves the others alone
        calls = [(0, {1, 2}), (2, {1}), (3, {1, 4, 5}), (1, {4, 5}), (6, {4, 5}), (5, {4}),
                 (4, set())]
        pool = sample._draw_pool
        for cpus in (1, 2, 3, 4):
            monkeypatch.setattr(sample, "_usable_cpus", lambda cpus=cpus: cpus)
            monkeypatch.setattr(sample, "_draw_pool", refuse_pool if cpus == 1 else pool)
            ahead = dict.fromkeys(seeds)
            asked = set()
            for index, held in calls:
                obs = draw_observations(m, p, r, seeds[index], ahead=ahead)
                asked.add(index)
                assert set(ahead) == {seeds[i] for i in range(len(seeds)) if i not in asked}
                assert {s for s, o in ahead.items() if o is not None} == {seeds[i] for i in held}
                comparisons, wins = expected[seeds[index]]
                np.testing.assert_array_equal(obs.comparisons, comparisons)
                np.testing.assert_array_equal(obs.wins, wins)
            # with every seed taken, a seed that ``ahead`` does not list draws alone
            obs = draw_observations(m, p, r, seed=1, ahead=ahead)
            assert ahead == {}
            np.testing.assert_array_equal(obs.wins, draw_oracle(m, p, r, 1)[1])

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_draws_after_the_parent(self):
        # the child inherits the started pool but none of its threads
        code = (
            "import os, signal, numpy as np\n"
            "from pairrank.model import gen_parametric\n"
            "from pairrank.sample import draw_observations\n"
            "m = gen_parametric(np.linspace(2.0, -2.0, 300), 'logistic')\n"
            "first = draw_observations(m, 0.5, 7, seed=4)\n"
            "pid = os.fork()\n"
            "if pid == 0:\n"
            "    signal.alarm(20)  # a hung child dies, and the parent sees it\n"
            "    again = draw_observations(m, 0.5, 7, seed=4)\n"
            "    os._exit(0 if np.array_equal(again.wins, first.wins) else 1)\n"
            "assert os.waitpid(pid, 0)[1] == 0\n"
        )
        src = str(Path(sample.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)

    def test_blocks_draw_distinct_counts(self):
        n = 300
        obs = draw_observations(gen_planted(n, 10, 0.1), 0.5, 20, seed=6)
        counts = obs.comparisons[np.triu_indices(n, 1)]
        blocks = [counts[start:start + DRAW_BLOCK] for start in range(0, counts.size, DRAW_BLOCK)]
        assert len(blocks) == 6
        for a in range(len(blocks)):
            for b in range(a + 1, len(blocks)):
                size = min(blocks[a].size, blocks[b].size)
                assert not np.array_equal(blocks[a][:size], blocks[b][:size]), (a, b)

    @pytest.mark.parametrize(
        "n, q, seed", [(2, 0.5, 0), (7, 0.02, 5), (30, 0.3, 2**40), (129, 0.3, 7)]
    )
    def test_subsample_matches_oracle(self, n, q, seed):
        obs = draw_observations(gen_planted(n, 1, 0.2), 0.7, 12, seed=1)
        thin = subsample(obs, q, seed)
        comparisons, wins = subsample_oracle(obs, q, seed)
        np.testing.assert_array_equal(thin.comparisons, comparisons)
        np.testing.assert_array_equal(thin.wins, wins)

    def test_a_draw_holds_at_most_two_count_arrays(self):
        n = 512
        array = n * n * 8
        m = gen_parametric(np.linspace(2.0, -2.0, n), "logistic")
        # the first draw fills the caches: the triangle mask, the count table, the pool
        draw_observations(m, 0.25, 16, seed=1).comparisons
        tracemalloc.start()
        try:
            obs = draw_observations(m, 0.25, 16, seed=2)
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            assert obs.wins.nbytes == array
            wins_peak = tracemalloc.get_traced_memory()[1] - held
            tracemalloc.reset_peak()
            assert obs.comparisons.nbytes == array
            comparisons_peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        # a draw holds no count array; a wins read peaks at one, a comparisons read at two
        assert held < array, held
        assert wins_peak <= 1.05 * array, wins_peak
        assert comparisons_peak <= 1.05 * 2 * array, comparisons_peak

    def test_a_draw_counted_by_copeland_holds_one_count_array(self, monkeypatch):
        n = 1024
        pairs = n * (n - 1) // 2
        # two int8 pair vectors (r = 16) and 1 MiB for the block-length temporaries
        # of two groups of draw blocks: 2.0 MiB, a quarter of one n x n int64 array
        bound = 2 * pairs + 2**20
        monkeypatch.setattr(sample, "_usable_cpus", lambda: 2)
        m = gen_parametric(np.linspace(2.0, -2.0, n), "logistic")
        # the first draw and count fill the caches: the triangle mask, the count
        # table, the pair index and the pool
        copeland_topk(draw_observations(m, 0.25, 16, seed=1), n // 4)
        tracemalloc.start()
        try:
            obs = draw_observations(m, 0.25, 16, seed=2)
            held, peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            copeland_topk(obs, n // 4)
            counted = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 2 * pairs <= held < n * n * 8  # the pair vectors, and no count array
        assert peak <= bound, (peak, bound)
        # the count widens one chunk of the pair vectors at a time
        assert counted <= held + 2**20, (counted, held)

    def test_a_first_wins_read_holds_one_count_array(self):
        n = 1024
        # the wins array and 1 MiB for the scatters' small objects; the parent's
        # build formed the comparisons too (16 MiB)
        bound = n * n * 8 + 2**20
        m = gen_parametric(np.linspace(2.0, -2.0, n), "logistic")
        # the first draw and build fill the caches: the triangle mask, the count table, the pool
        draw_observations(m, 0.25, 16, seed=1).wins
        obs = draw_observations(m, 0.25, 16, seed=2)
        tracemalloc.start()
        try:
            wins = obs.wins
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound, (peak, bound)
        # the set keeps no array: once the read is dropped, the set holds its pair vectors alone
        tracemalloc.start()
        try:
            obs.wins
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert kept < 2**20, kept
        comparisons = obs.comparisons
        assert comparisons.dtype == np.int64
        assert comparisons.tobytes() == (wins + wins.T).tobytes()
        assert not comparisons.flags.writeable
        # every read builds afresh, and reads agree
        assert obs.comparisons.tobytes() == comparisons.tobytes()
        assert obs.wins.tobytes() == wins.tobytes()

    def test_threads_reading_one_unbuilt_set_agree(self):
        # a set is never written after construction, so readers on many threads
        # need no lock: each gets what a lone later read of the set gives
        m = gen_parametric(np.linspace(2.0, -2.0, 300), "logistic")
        reference = draw_observations(m, 0.5, 7, seed=4)
        thinned = subsample(reference, 0.5, seed=1)
        expected = (
            reference.wins.sum(axis=1), reference.wins, thinned.wins, reference.comparisons,
            reference.total_comparisons(),
        )
        readers = [
            lambda obs: obs.win_totals(),
            lambda obs: obs.wins,
            lambda obs: subsample(obs, 0.5, seed=1).wins,
            lambda obs: obs.comparisons,
            lambda obs: obs.total_comparisons(),
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                obs = draw_observations(m, 0.5, 7, seed=4)
                got = [None] * 15
                barrier = threading.Barrier(len(got))

                def read(i, obs=obs, got=got, barrier=barrier):
                    barrier.wait(timeout=30)
                    got[i] = readers[i % len(readers)](obs)

                threads = [threading.Thread(target=read, args=(i,)) for i in range(len(got))]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                assert not any(thread.is_alive() for thread in threads)
                for i, value in enumerate(got):
                    np.testing.assert_array_equal(value, expected[i % len(readers)])
                for i in range(len(got)):
                    np.testing.assert_array_equal(got[i], readers[i % len(readers)](obs))
        finally:
            sys.setswitchinterval(interval)

    def test_outputs_are_read_only(self):
        obs = draw_observations(gen_planted(6, 2, 0.2), 0.5, 4, seed=3)
        thin = subsample(obs, 0.5, seed=4)
        for arr in (obs.comparisons, obs.wins, thin.comparisons, thin.wins):
            with pytest.raises(ValueError):
                arr[0, 1] = 1

    def test_copeland_on_an_observations_file_holds_one_count_array(self, tmp_path):
        n = 1024
        # the set's one n x n int64 buffer, and 1 MiB for the reader's and the
        # count's small objects; the parent's reader built two n x n arrays (16 MiB)
        bound = n * n * 8 + 2**20
        path = tmp_path / "obs.csv"
        m = gen_parametric(np.linspace(2.0, -2.0, n), "logistic")
        write_observations_csv(draw_observations(m, 0.02, 3, seed=1), path)
        # the first read and count fill the caches: the pair index and the triangle mask
        copeland_topk(read_observations_csv(path), n // 4)
        tracemalloc.start()
        try:
            obs = read_observations_csv(path)
            copeland_topk(obs, n // 4)
            current = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert obs.n == n
        assert current <= bound, (current, bound)

    @pytest.mark.parametrize("n", [2, 64, 128, 129, 200, 256, 300, 1024])
    @pytest.mark.parametrize("kind", ["draw", "thinning", "comparisons-file", "observations-file"])
    def test_win_totals_from_pairs_match_the_arrays(self, tmp_path, n, kind):
        # 128 items are the most one draw block holds and 129 start a second;
        # 300 end in a short block; threshold-sweep draws at 256 and 1024
        m = gen_parametric(np.linspace(1.5, -1.5, n), "logistic")
        oracle = None
        if kind == "draw":
            counted, built = (draw_observations(m, 0.3, 9, seed=n) for _ in range(2))
        elif kind == "thinning":
            # a thinning of a set whose wins were read, against one of a set never read
            source = draw_observations(m, 0.7, 12, seed=n)
            counted = subsample(draw_observations(m, 0.7, 12, seed=n), 0.4, seed=5)
            source.wins
            built = subsample(source, 0.4, seed=5)
        elif kind == "comparisons-file":
            rng = np.random.default_rng(n)
            records = []
            for _ in range(4 * n):
                a, b = (int(x) for x in rng.choice(n, size=2, replace=False))
                records.append((a, b, a if rng.random() < 0.5 else b))
            # repeated records, and records with their items in the other order
            records += records[::3] + [(b, a, w) for a, b, w in records[1::3]]
            rows = [(f"it{a}", f"it{b}", f"it{w}") for a, b, w in records]
            path = write_comparisons(tmp_path / "cmp.csv", rows)
            index = {f"it{i}": i for i in range(n)}
            counted, built = (read_comparisons(path, index) for _ in range(2))
            wins = np.zeros((n, n), dtype=np.int64)
            for a, b, w in records:
                wins[w, a + b - w] += 1
            oracle = wins + wins.T, wins
        else:
            path = tmp_path / "obs.csv"
            write_observations_csv(draw_observations(m, min(1.0, 20 / n), 3, seed=n), path)
            counted, built = (read_observations_csv(path) for _ in range(2))
            comparisons, wins = (np.zeros((n, n), dtype=np.int64) for _ in range(2))
            with open(path, newline="") as fh:
                rows = csv.reader(fh.readlines()[2:])
                for i, j, c, w in ([int(x) for x in row] for row in rows):
                    comparisons[i, j] = comparisons[j, i] = c
                    wins[i, j], wins[j, i] = w, c - w
            oracle = comparisons, wins
        # totals first, then the arrays, against the arrays first, then the totals
        with builds_nothing():
            totals = counted.win_totals()
            picks = {k: copeland_topk(counted, k).items for k in (1, 2)}
            total = counted.total_comparisons()
        arrays = built.comparisons, built.wins
        assert totals.dtype == np.int64
        assert total == built.total_comparisons() == int(arrays[0].sum()) // 2
        np.testing.assert_array_equal(totals, built.wins.sum(axis=1))
        np.testing.assert_array_equal(built.win_totals(), totals)
        np.testing.assert_array_equal(counted.comparisons, arrays[0])
        np.testing.assert_array_equal(counted.wins, arrays[1])
        np.testing.assert_array_equal(counted.win_totals(), totals)
        np.testing.assert_array_equal(built.wins + built.wins.T, built.comparisons)
        for k, pick in picks.items():
            assert set(pick) == oracle_topk(arrays[1].sum(axis=1), k)
        if oracle is not None:
            np.testing.assert_array_equal(arrays[0], oracle[0])
            np.testing.assert_array_equal(arrays[1], oracle[1])
            assert built.r == oracle[0].max()

    @settings(max_examples=80, deadline=None)
    @given(
        m=matrices(),
        p=st.floats(0.01, 1.0) | st.just(1.0),
        r=st.integers(1, 30) | st.integers(31, 5000),
        seed=st.integers(0, 2**63),
    )
    def test_draw_properties(self, m, p, r, seed):
        obs = draw_observations(m, p, r, seed)
        assert_valid(obs, r)
        assert (obs.n, obs.r, obs.p) == (m.n, r, p)
        if p == 1.0:
            assert np.all(obs.comparisons[np.triu_indices(m.n, 1)] == r)
        certain = np.triu(m.entries == 1.0, 1)
        assert np.array_equal(obs.wins[certain], obs.comparisons[certain])

    @settings(max_examples=80, deadline=None)
    @given(
        m=matrices(),
        p=st.floats(0.01, 1.0),
        r=st.integers(1, 30),
        q=st.floats(0.0, 1.0, exclude_min=True),
        seeds=st.tuples(st.integers(0, 2**32), st.integers(0, 2**32)),
    )
    def test_subsample_properties(self, m, p, r, q, seeds):
        obs = draw_observations(m, p, r, seeds[0])
        thin = subsample(obs, q, seeds[1])
        assert_valid(thin, r)
        assert np.all(thin.wins <= obs.wins)
        assert np.all(thin.comparisons <= obs.comparisons)
        assert thin.r == obs.r and thin.p == pytest.approx(p * q)
        again = subsample(obs, q, seeds[1])
        assert np.array_equal(again.wins, thin.wins)
        assert np.array_equal(again.comparisons, thin.comparisons)


# the widest count of each pair type, and one past it
PAIR_DTYPES = {127: np.int8, 128: np.int16, 32767: np.int16, 32768: np.int32,
               2**31 - 1: np.int32, 2**31: np.int64}


class TestPairDtype:
    @pytest.mark.parametrize("r", list(PAIR_DTYPES))
    @settings(max_examples=15, deadline=None)
    @given(
        m=matrices(max_n=6),
        p=st.just(1.0) | st.floats(0.01, 0.99),
        seeds=st.tuples(st.integers(0, 2**32), st.integers(0, 2**32)),
    )
    # a certain winner: at p = 1 its row wins are r, the widest count
    @example(m=certain_matrix(), p=1.0, seeds=(1, 2))
    def test_narrow_pairs_match_an_int64_draw(self, tmp_path_factory, r, m, p, seeds):
        def observe():
            """A draw and what is read from its pair vectors, building no array."""
            obs = draw_observations(m, p, r, seeds[0])
            path = tmp_path_factory.mktemp("pairs") / "obs.csv"
            with builds_nothing():
                totals, total = obs.win_totals(), obs.total_comparisons()
                thin = subsample(obs, 0.5, seeds[1])
                write_observations_csv(obs, path)
                back = read_observations_csv(path)
            return obs, totals, total, thin, path.read_bytes(), back

        narrow = observe()
        # the oracle: the same draw with int64 pair vectors throughout
        with mock.patch.object(sample, "_pair_dtype", lambda r: np.dtype(np.int64)):
            wide = observe()
            for obs in wide[0], wide[3], wide[5]:
                assert obs._pairs[0].dtype == obs._pairs[1].dtype == np.int64
                obs.wins
        for obs in narrow[0], narrow[3], narrow[5]:
            assert obs._pairs[0].dtype == obs._pairs[1].dtype == PAIR_DTYPES[r]
        np.testing.assert_array_equal(narrow[1], wide[1])
        assert narrow[2] == wide[2]
        assert narrow[4] == wide[4]
        for i in 0, 3, 5:  # the draw, its thinning and its file read back
            got, expected = narrow[i], wide[i]
            np.testing.assert_array_equal(got.wins, expected.wins)
            np.testing.assert_array_equal(got.comparisons, expected.comparisons)
            assert got.wins.dtype == got.comparisons.dtype == np.int64
            assert got.total_comparisons() == expected.total_comparisons()
        drawn = wide[0]
        np.testing.assert_array_equal(narrow[1], drawn.wins.sum(axis=1))
        assert narrow[2] == int(drawn.comparisons.sum()) // 2
        if p == 1.0:
            assert np.all(drawn.comparisons[np.triu_indices(m.n, 1)] == r)

    @pytest.mark.parametrize("r", [127, 128, 32767, 32768])
    def test_a_comparisons_file_holds_narrow_pairs(self, tmp_path, r):
        # a beats b r times, the widest count, and wins and losses elsewhere
        rng = np.random.default_rng(r)
        rows = [("a", "b", "a")] * r + [("c", "a", "c"), ("b", "c", "b"), ("d", "a", "a")]
        rows += [("c", "d", "c" if rng.random() < 0.5 else "d") for _ in range(40)]
        path = write_comparisons(tmp_path / "cmp.csv", rows)

        def observe(name):
            """A file read, what is read from its pair vectors, and its thinning, building no array."""
            with builds_nothing():
                obs = read_comparisons(path, indexed("abcd"))
                thin = subsample(obs, 0.5, seed=3)
                files = []
                for i, written in enumerate((obs, thin)):
                    write_observations_csv(written, tmp_path / f"{name}{i}.csv")
                    files.append((tmp_path / f"{name}{i}.csv").read_bytes())
                totals = obs.win_totals(), obs.total_comparisons(), thin.win_totals()
            return obs, thin, totals, files

        narrow = observe("narrow")
        # the oracle: the same file read into int64 pair vectors
        with mock.patch.object(sample, "_pair_dtype", lambda r: np.dtype(np.int64)):
            wide = observe("wide")
            for obs in wide[:2]:
                assert obs._pairs[0].dtype == obs._pairs[1].dtype == np.int64
                obs.wins
        assert narrow[0].r == r
        for obs in narrow[:2]:
            assert obs._pairs[0].dtype == obs._pairs[1].dtype == PAIR_DTYPES[r]
        for got, expected in zip(narrow[2], wide[2]):
            np.testing.assert_array_equal(got, expected)
        assert narrow[3] == wide[3]
        for got, expected in zip(narrow[:2], wide[:2]):
            np.testing.assert_array_equal(got.wins, expected.wins)
            np.testing.assert_array_equal(got.comparisons, expected.comparisons)


def write_comparisons(path, rows):
    """Write ``rows`` of ``(item_a, item_b, winner)`` as a comparisons CSV; return ``path``."""
    lines = ["item_a,item_b,winner", *(",".join(row) for row in rows)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def indexed(items):
    return {item: i for i, item in enumerate(items)}


class TestIngest:
    def test_counts_example(self, tmp_path):
        rows = [("A", "B", "A"), ("A", "B", "B"), ("A", "B", "A")]
        path = write_comparisons(tmp_path / "cmp.csv", rows)
        obs = read_comparisons(path, indexed("AB"))
        assert obs.n == 2
        assert obs.comparisons[0, 1] == 3
        assert obs.wins[0, 1] == 2
        assert obs.wins[1, 0] == 1
        assert obs.r == 3
        assert obs.p is None

    def test_self_comparison_rejected(self, tmp_path):
        path = write_comparisons(tmp_path / "cmp.csv", [("A", "A", "A")])
        with pytest.raises(ValueError) as exc:
            read_comparisons(path, indexed("AB"))
        assert str(exc.value) == f"{path}:2: self-comparison of item 'A'"

    def test_foreign_winner_rejected(self, tmp_path):
        path = write_comparisons(tmp_path / "cmp.csv", [("A", "B", "A"), ("A", "B", "C")])
        with pytest.raises(ValueError) as exc:
            read_comparisons(path, indexed("ABC"))
        assert str(exc.value) == f"{path}:3: winner 'C' is neither 'A' nor 'B'"

    def test_counts_add_up_exactly(self, tmp_path):
        # four of the five distinct lines have a beating b: a buffered sum would keep one count
        path = tmp_path / "cmp.csv"
        path.write_bytes(b'item_a,item_b,winner\na,b,a\nb,a,a\na,b,b\n"a",b,a\na,b,a\r\nb,a,a\n')
        obs = read_comparisons(path, indexed("ab"))
        assert obs.wins[0, 1] == 5 and obs.wins[1, 0] == 1 and obs.r == 6

    @pytest.mark.parametrize("text", ["", "\n\r\n\n"])
    def test_empty_rejected(self, tmp_path, text):
        path = tmp_path / "cmp.csv"
        path.write_text("item_a,item_b,winner\n" + text, encoding="utf-8")
        with pytest.raises(ValueError) as exc:
            read_comparisons(path, indexed("ab"))
        assert str(exc.value) == f"{path}: no comparison records"

    @pytest.mark.parametrize(
        "rows, message",
        [
            ([("a", "b", "a"), ("c", "c", "c"), ("a", "x", "a")], "3: self-comparison of item 'c'"),
            ([("a", "b", "a"), ("a", "x", "a"), ("c", "c", "c")], "3: item 'x' appears in comparisons"),
            ([("a", "b", "c"), ("a", "x", "a")], "2: winner 'c' is neither 'a' nor 'b'"),
            ([("a", "x", "a"), ("a", "b", "c")], "2: item 'x' appears in comparisons"),
        ],
    )
    def test_first_bad_row_decides_the_error(self, tmp_path, rows, message):
        path = write_comparisons(tmp_path / "cmp.csv", rows)
        with pytest.raises(ValueError) as exc:
            read_comparisons(path, indexed("abc"))
        assert str(exc.value).startswith(f"{path}:{message}")


NAMES = "pqrstu"


def counter_oracle(records, items):
    """Restated aggregation: a Counter of (winner, loser) name pairs, indexed in ``items`` order."""
    beats = Counter()
    for a, b, w in records:
        beats[w, b if w == a else a] += 1
    wins = np.zeros((len(items), len(items)), dtype=np.int64)
    for (w, loser), count in beats.items():
        wins[items.index(w), items.index(loser)] = count
    return wins


@st.composite
def record_lists(draw):
    pairs = st.lists(st.sampled_from(NAMES), min_size=2, max_size=2, unique=True)
    rows = draw(st.lists(st.tuples(pairs, st.booleans()), min_size=1, max_size=40))
    return [(a, b, a if first else b) for (a, b), first in rows]


def shuffled_items(records, extra, seed):
    """The items of ``records`` and ``extra`` in an order drawn from ``seed``."""
    named = sorted({x for a, b, _ in records for x in (a, b)} | set(extra))
    return [named[i] for i in np.random.default_rng(seed).permutation(len(named))]


class TestIngestOracle:
    @settings(max_examples=150, deadline=None)
    @given(
        records=record_lists(),
        extra=st.sampled_from(["", "v", "vw"]),
        seed=st.integers(0, 2**16),
    )
    def test_matches_counter(self, tmp_path_factory, records, extra, seed):
        items = shuffled_items(records, extra, seed)
        path = write_comparisons(tmp_path_factory.mktemp("oracle") / "cmp.csv", records)
        obs = read_comparisons(path, indexed(items))
        np.testing.assert_array_equal(obs.wins, counter_oracle(records, items))
        np.testing.assert_array_equal(obs.wins + obs.wins.T, obs.comparisons)
        pair_counts = Counter(frozenset((a, b)) for a, b, _ in records)
        assert obs.r == max(pair_counts.values())
        assert obs.n == len(items) and obs.p is None
        assert obs.wins.dtype == np.int64 and obs.comparisons.dtype == np.int64


@st.composite
def csv_files(draw):
    """``record_lists()`` records written as a comparisons CSV: ``(records, text)``.

    Each record is written one to three times, every copy with its own
    quoting of each field, LF or CRLF ending and blank lines before it;
    the final newline is sometimes dropped.  ``records`` lists every copy.
    """
    header = "item_a,item_b,winner" + draw(st.sampled_from(["\n", "\r\n"]))
    lines, records = [header], []
    for record in draw(record_lists()):
        for _ in range(draw(st.integers(1, 3))):
            quoted = draw(st.tuples(st.booleans(), st.booleans(), st.booleans()))
            blanks = draw(st.lists(st.sampled_from(["\n", "\r\n"]), max_size=2))
            text = ",".join(f'"{x}"' if q else x for x, q in zip(record, quoted))
            lines += [*blanks, text + draw(st.sampled_from(["\n", "\r\n"]))]
            records.append(record)
    text = "".join(lines)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    return records, text


class TestCsvOracle:
    @settings(max_examples=150, deadline=None)
    @given(drawn=csv_files(), seed=st.integers(0, 2**16))
    def test_read_back_matches_counter(self, tmp_path_factory, drawn, seed):
        records, text = drawn
        items = shuffled_items(records, "", seed)
        path = tmp_path_factory.mktemp("oracle") / "cmp.csv"
        path.write_bytes(text.encode("utf-8"))
        obs = read_comparisons(path, indexed(items))
        np.testing.assert_array_equal(obs.wins, counter_oracle(records, items))
        np.testing.assert_array_equal(obs.wins + obs.wins.T, obs.comparisons)


XYZ = indexed("xyz")


class TestComparisonsCsv:
    def test_header_required(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,w\nx,y,x\n")
        with pytest.raises(ValueError) as exc:
            read_comparisons(path, XYZ)
        assert str(exc.value) == f"{path}:1: expected header 'item_a,item_b,winner', got 'a,b,w'"

    def test_field_count_error_names_physical_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("item_a,item_b,winner\nx,y,x\n\n\ny,z\n", encoding="utf-8")
        with pytest.raises(ValueError) as exc:
            read_comparisons(path, XYZ)
        assert str(exc.value) == f"{path}:5: expected 3 fields, got 2"

    def test_oversize_field_is_a_value_error(self, tmp_path):
        path = tmp_path / "big.csv"
        big = "x" * (csv.field_size_limit() + 1)
        path.write_text(f"item_a,item_b,winner\nx,y,x\n\n{big},y,y\n", encoding="utf-8")
        with pytest.raises(ValueError) as exc:
            read_comparisons(path, XYZ)
        limit = csv.field_size_limit()
        assert str(exc.value) == f"{path}:4: field larger than field limit ({limit})"

    def test_rows_skip_blank_lines(self, tmp_path):
        path = tmp_path / "rows.csv"
        path.write_text("item_a,item_b,winner\n\nx,y,x\n\ny,z,z\n", encoding="utf-8")
        obs = read_comparisons(path, XYZ)
        assert obs.total_comparisons() == 2 and obs.wins[0, 1] == 1 and obs.wins[2, 1] == 1

    def test_every_copy_of_a_line_counts(self, tmp_path):
        path = tmp_path / "rows.csv"
        path.write_bytes(b'item_a,item_b,winner\nx,y,x\r\ny,z,z\nx,y,x\r\n"x",y,x\r\ny,z,z')
        obs = read_comparisons(path, XYZ)
        assert obs.wins[0, 1] == 3 and obs.wins[2, 1] == 2 and obs.total_comparisons() == 5

    @pytest.mark.parametrize(
        "bad",
        ["y,z", "x" * (csv.field_size_limit() + 1) + ",y,y", "z,z,z", "x,y,z", "x,w,x"],
        ids=["field-count", "oversize-field", "self-comparison", "foreign-winner", "unknown-item"],
    )
    def test_repeated_bad_line_names_its_first_line(self, tmp_path, bad):
        path = tmp_path / "bad.csv"
        lines = ["item_a,item_b,winner", "x,y,x", "x,y,x", "", "x,y,x", bad, "x,y,x", bad]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ValueError) as exc:
            read_comparisons(path, XYZ)
        assert str(exc.value).startswith(f"{path}:6: ")

    @pytest.mark.parametrize("text", ['x,y,x\n"a\nx",b,b\n', 'x,y,x\nb,"a\nx",b\nx,y,x\n'])
    def test_quoted_field_spanning_lines_rejected(self, tmp_path, text):
        path = tmp_path / "span.csv"
        path.write_text("item_a,item_b,winner\n" + text, encoding="utf-8")
        with pytest.raises(ValueError) as exc:
            read_comparisons(path, XYZ)
        assert str(exc.value) == f"{path}:3: quoted field spans lines"

    @pytest.mark.parametrize(
        "text, problem",
        [
            ('x,y,x\nx,y,"y', "unexpected end of data"),
            ('x,y,x\nx,y,"y"z\nx,y,x\n', "',' expected after '\"'"),
            ('x,y,x\n"x,y,x\nx,y,x\ny,x,y\n', "quoted field spans lines"),
        ],
        ids=["open-at-end", "text-after-quote", "never-closed"],
    )
    def test_malformed_quoting_names_the_line_it_opens_on(self, tmp_path, text, problem):
        path = tmp_path / "quote.csv"
        path.write_text("item_a,item_b,winner\n" + text, encoding="utf-8")
        with pytest.raises(ValueError) as exc:
            read_comparisons(path, XYZ)
        assert str(exc.value) == f"{path}:3: {problem}"

    @pytest.mark.parametrize("before", [1, 20_000])
    def test_non_utf8_names_the_file_and_line(self, tmp_path, before):
        # 20,000 lines put the bad byte past the decoder's first chunk
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"item_a,item_b,winner\n" + b"x,y,x\r\n" * before + b"\xff,y,y\n")
        with pytest.raises(ValueError) as exc:
            read_comparisons(path, XYZ)
        line = before + 2
        assert str(exc.value) == f"{path}:{line}: 'utf-8' codec can't decode byte 0xff: invalid start byte"


class TestObservationsCsv:
    def test_round_trip(self, tmp_path):
        obs = draw_observations(gen_planted(9, 3, 0.25), 0.5, 7, seed=13)
        path = tmp_path / "obs.csv"
        write_observations_csv(obs, path)
        back = read_observations_csv(path)
        assert back.n == obs.n and back.r == obs.r and back.p == obs.p
        assert np.array_equal(back.comparisons, obs.comparisons)
        assert np.array_equal(back.wins, obs.wins)

    def test_every_line_ends_in_lf(self, tmp_path):
        obs = draw_observations(gen_planted(9, 3, 0.25), 0.5, 7, seed=13)
        path = tmp_path / "obs.csv"
        write_observations_csv(obs, path)
        data = path.read_bytes()
        assert b"\r" not in data
        assert data.count(b"\n") == 2 + int(np.count_nonzero(np.triu(obs.comparisons, 1)))
        back = read_observations_csv(path)
        assert (back.n, back.r, back.p) == (obs.n, obs.r, obs.p)
        assert np.array_equal(back.comparisons, obs.comparisons)
        assert np.array_equal(back.wins, obs.wins)

    def test_crlf_reads_like_lf(self, tmp_path):
        obs = draw_observations(gen_planted(9, 3, 0.25), 0.5, 7, seed=13)
        lf, crlf = tmp_path / "lf.csv", tmp_path / "crlf.csv"
        write_observations_csv(obs, lf)
        crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
        back, back_crlf = read_observations_csv(lf), read_observations_csv(crlf)
        assert (back_crlf.n, back_crlf.r, back_crlf.p) == (back.n, back.r, back.p)
        assert np.array_equal(back_crlf.comparisons, back.comparisons)
        assert np.array_equal(back_crlf.wins, back.wins)

    @pytest.mark.parametrize(
        "kind", ["p=0.5", "p=1", "p=0.02", "comparisons-file", "observations-file"]
    )
    def test_writing_matches_a_per_pair_writer_over_a_built_twin(self, tmp_path, kind):
        # 300 items: 44,850 pairs, eleven chunks of rows, the last short
        n = 300
        m = gen_parametric(np.linspace(1.5, -1.5, n), "logistic")
        if kind.startswith("p="):
            written, twin = (draw_observations(m, float(kind[2:]), 3, seed=n) for _ in range(2))
        elif kind == "comparisons-file":
            rng = np.random.default_rng(n)
            rows = [(f"it{a}", f"it{b}", f"it{a if rng.random() < 0.5 else b}")
                    for a, b in (rng.choice(n, size=2, replace=False) for _ in range(20 * n))]
            path = write_comparisons(tmp_path / "cmp.csv", rows)
            index = {f"it{i}": i for i in range(n)}
            written, twin = (read_comparisons(path, index) for _ in range(2))
        else:
            path = tmp_path / "source.csv"
            write_observations_csv(draw_observations(m, 0.3, 5, seed=n), path)
            written, twin = (read_observations_csv(path) for _ in range(2))
        out, expected = tmp_path / "obs.csv", tmp_path / "expected.csv"
        with builds_nothing():
            write_observations_csv(written, out)
        p_text = "na" if twin.p is None else repr(float(twin.p))
        comparisons, wins = twin.comparisons, twin.wins
        with open(expected, "w", newline="") as fh:
            fh.write(f"# n={n} r={twin.r} p={p_text}\n")
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["i", "j", "comparisons", "wins_i"])
            for i in range(n):
                for j in range(i + 1, n):
                    if comparisons[i, j] > 0:
                        writer.writerow([i, j, comparisons[i, j], wins[i, j]])
        assert out.read_bytes() == expected.read_bytes()
        write_observations_csv(twin, out)  # a set whose arrays were read
        assert out.read_bytes() == expected.read_bytes()

    def test_writing_holds_less_than_one_count_array(self, tmp_path):
        # 400 items at p = 0.5 and r = 3: ~70,000 rows; a writer that builds both
        # n x n arrays and indexes them per pair peaks at 3.8 MiB
        n = 400
        m = gen_parametric(np.linspace(1.5, -1.5, n), "logistic")
        path = tmp_path / "obs.csv"
        write_observations_csv(draw_observations(m, 0.5, 3, seed=1), path)  # fills the caches
        obs = draw_observations(m, 0.5, 3, seed=1)
        tracemalloc.start()
        try:
            write_observations_csv(obs, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8, peak

    def test_unknown_p_round_trips(self, tmp_path):
        rows = [("a", "b", "a"), ("b", "c", "c")]
        obs = read_comparisons(write_comparisons(tmp_path / "cmp.csv", rows), indexed("abc"))
        path = tmp_path / "obs.csv"
        write_observations_csv(obs, path)
        assert read_observations_csv(path).p is None

    def test_reading_holds_one_count_buffer_and_a_flag_per_pair(self, tmp_path):
        n = 300
        pairs = n * (n - 1) // 2
        # the n x n int64 buffer, one byte per pair to find a repeated pair, and
        # 1 MiB for the reader's small objects: 1.8 MiB; a set of the pairs read
        # holds a 56-byte tuple per pair in a 2 MiB hash table, over 4 MiB
        bound = n * n * 8 + pairs + 2**20
        path = tmp_path / "obs.csv"
        iu, ju = np.triu_indices(n, 1)
        rows = "".join(f"{i},{j},3,{(i + j) % 4}\n" for i, j in zip(iu.tolist(), ju.tolist()))
        path.write_text(f"# n={n} r=3 p=1.0\ni,j,comparisons,wins_i\n{rows}", encoding="utf-8")
        read_observations_csv(path)  # fills the cache of the pair index
        tracemalloc.start()
        try:
            obs = read_observations_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert obs.n == n
        assert peak <= bound, (peak, bound)

    def test_metadata_line_required(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("i,j,comparisons,wins_i\n0,1,3,2\n")
        with pytest.raises(ValueError, match="metadata"):
            read_observations_csv(path)
