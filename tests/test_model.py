import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairrank import _textio, model
from pairrank.analysis import scores
from pairrank.model import (
    MODEL_KINDS,
    ModelSpec,
    _mirror_upper,
    equispaced_quality,
    gen_adjacent_swap,
    gen_btl_mixture,
    gen_btl_outlier,
    gen_hamming_planted,
    gen_parametric,
    gen_planted,
    gen_sst_diagonal,
    instantiate,
    make_matrix,
    read_matrix_csv,
    write_matrix_csv,
)

from conftest import is_sst

LOGISTIC_1 = 0.7310585786300049  # 1 / (1 + e^-1) to double precision


def all_generated(n=8, k=3):
    w = equispaced_quality(n, 4.0)
    return [
        gen_parametric(w, "logistic"),
        gen_parametric(w, "gaussian"),
        gen_btl_outlier(w, n - 1),
        gen_sst_diagonal(n, 0.03, seed=5),
        gen_btl_mixture(w, 0.8),
        gen_planted(n, k, 0.2),
        gen_adjacent_swap(n, 1.0 / (9 * (n - 1)), 2),
        gen_hamming_planted(n, k, 0.25, ordering=[3, 1, 7, 0, 2, 4, 5, 6]),
    ]


class TestMakeMatrix:
    def test_valid_two_by_two(self):
        m = make_matrix([[0.5, 0.7], [0.3, 0.5]])
        assert m.entries[0, 1] == 0.7
        assert m.entries[1, 0] == pytest.approx(0.3)

    def test_asymmetric_pair_rejected(self):
        with pytest.raises(ValueError, match="sum to 1"):
            make_matrix([[0.5, 0.7], [0.4, 0.5]])

    def test_bad_diagonal_rejected(self):
        with pytest.raises(ValueError, match="diagonal"):
            make_matrix([[0.6, 0.7], [0.3, 0.6]])

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            make_matrix([[0.5, 0.7, 0.1], [0.3, 0.5, 0.2]])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            make_matrix([[0.5, 1.2], [-0.2, 0.5]])

    def test_symmetrizes_exactly(self, rng):
        upper = rng.uniform(0.2, 0.8, size=(6, 6))
        grid = np.full((6, 6), 0.5)
        iu, ju = np.triu_indices(6, 1)
        grid[iu, ju] = upper[iu, ju]
        grid[ju, iu] = 1.0 - upper[iu, ju] + rng.uniform(-1e-10, 1e-10, size=iu.size)
        m = make_matrix(grid)
        assert np.all(m.entries + m.entries.T == 1.0)
        assert np.all(np.diagonal(m.entries) == 0.5)

    def test_entries_read_only(self):
        m = make_matrix([[0.5, 0.7], [0.3, 0.5]])
        with pytest.raises(ValueError):
            m.entries[0, 1] = 0.9


class TestParametric:
    def test_equal_qualities_give_half(self):
        for cdf in ("logistic", "gaussian"):
            m = gen_parametric([1.3, 1.3, 1.3], cdf)
            assert np.all(m.entries == 0.5)

    def test_logistic_unit_gap(self):
        m = gen_parametric([1.0, 0.0], "logistic")
        assert m.entries[0, 1] == pytest.approx(LOGISTIC_1, abs=1e-12)

    def test_gaussian_unit_gap(self):
        from scipy.special import ndtr

        m = gen_parametric([1.0, 0.0], "gaussian")
        assert m.entries[0, 1] == pytest.approx(float(ndtr(1.0)), abs=1e-15)

    def test_score_order_matches_quality_order(self, rng):
        for _ in range(20):
            w = rng.normal(size=9)
            while len(np.unique(w)) < 9:
                w = rng.normal(size=9)
            m = gen_parametric(w, rng.choice(["logistic", "gaussian"]))
            assert np.array_equal(np.argsort(-scores(m)), np.argsort(-w))

    def test_row_dominance_for_higher_quality(self, rng):
        # for w_i > w_j every entry of row i beats the same entry of row j
        w = np.sort(rng.normal(size=7))[::-1]
        m = gen_parametric(w, "logistic").entries
        for i in range(6):
            assert np.all(m[i] >= m[i + 1])

    def test_unknown_cdf(self):
        with pytest.raises(ValueError, match="cdf"):
            gen_parametric([0.0, 1.0], "cauchy")


class TestOutlier:
    def test_beats_top_quarter_loses_rest(self):
        n = 8
        w = equispaced_quality(n, 4.0)
        m = gen_btl_outlier(w, outlier=n - 1)
        # highest-quality non-outlier items are 0 and 1 (n // 4 = 2)
        assert m.entries[n - 1, 0] == 1.0
        assert m.entries[n - 1, 1] == 1.0
        assert m.entries[0, n - 1] == 0.0
        for j in range(2, n - 1):
            assert m.entries[n - 1, j] == 0.0

    def test_non_outlier_block_is_btl(self):
        w = equispaced_quality(8, 4.0)
        m = gen_btl_outlier(w, outlier=7)
        btl = gen_parametric(w, "logistic")
        assert np.array_equal(m.entries[:7, :7], btl.entries[:7, :7])

    def test_outlier_index_validated(self):
        with pytest.raises(ValueError, match="out of range"):
            gen_btl_outlier([0.0, 1.0, 2.0], outlier=3)


class TestSSTDiagonal:
    def test_satisfies_sst_for_identity_order(self):
        m = gen_sst_diagonal(6, 0.05, seed=3)
        assert is_sst(m)

    def test_scores_non_increasing(self):
        m = gen_sst_diagonal(12, 0.02, seed=4)
        tau = scores(m)
        assert np.all(np.diff(tau) <= 1e-12)

    def test_deterministic(self):
        a = gen_sst_diagonal(5, 0.05, seed=11)
        b = gen_sst_diagonal(5, 0.05, seed=11)
        assert np.array_equal(a.entries, b.entries)
        c = gen_sst_diagonal(5, 0.05, seed=12)
        assert not np.array_equal(a.entries, c.entries)

    def test_constant_along_diagonals(self):
        m = gen_sst_diagonal(7, 0.05, seed=0).entries
        for d in range(1, 7):
            diag = np.diagonal(m, offset=d)
            assert np.all(diag == diag[0])

    def test_infeasible_gap(self):
        with pytest.raises(ValueError, match="infeasible"):
            gen_sst_diagonal(10, 0.2, seed=0)


class TestMixture:
    def test_lambda_one_degenerates_to_btl(self):
        w = [0.3, -0.2, 1.1]
        assert np.array_equal(
            gen_btl_mixture(w, 1.0).entries, gen_parametric(w, "logistic").entries
        )

    def test_equal_qualities_give_half(self):
        m = gen_btl_mixture([0.7, 0.7], 0.9)
        assert np.all(m.entries == 0.5)

    def test_hand_evaluated_entry(self):
        m = gen_btl_mixture([1.0, 0.0], 0.8)
        expected = 0.8 * LOGISTIC_1 + 0.2 * (1.0 - LOGISTIC_1)
        assert m.entries[0, 1] == pytest.approx(expected, abs=1e-12)

    def test_weight_range_enforced(self):
        for lam in (0.5, 0.2, 1.2):
            with pytest.raises(ValueError, match="mixture weight"):
                gen_btl_mixture([0.0, 1.0], lam)


class TestPlanted:
    def test_score_profile(self):
        n, k, delta = 10, 3, 0.2
        tau = scores(gen_planted(n, k, delta))
        assert tau[:k] == pytest.approx(0.5 + delta * (n - k) / n, abs=1e-12)
        assert tau[k:] == pytest.approx(0.5 - delta * k / n, abs=1e-12)

    def test_is_sst_for_planted_order(self):
        assert is_sst(gen_planted(9, 4, 0.3))

    def test_tiny_delta_approaches_uniform(self):
        m = gen_planted(6, 2, 1e-12)
        assert np.allclose(m.entries, 0.5, atol=2e-12)

    def test_plant_index_variant(self):
        m = gen_planted(6, 3, 0.2, plant_index=4)
        tau = scores(m)
        planted = {0, 1, 4}
        for i in range(6):
            expected = 0.5 + 0.2 * 3 / 6 if i in planted else 0.5 - 0.2 * 3 / 6
            assert tau[i] == pytest.approx(expected, abs=1e-12)

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="delta"):
            gen_planted(6, 2, 0.6)
        with pytest.raises(ValueError, match="k"):
            gen_planted(6, 6, 0.1)
        with pytest.raises(ValueError, match="plant_index"):
            gen_planted(6, 2, 0.1, plant_index=0)


class TestAdjacentSwap:
    def test_score_formula(self):
        n, a = 11, 4
        delta0 = 1.0 / (9 * (n - 1))
        tau = scores(gen_adjacent_swap(n, delta0, a))
        ranks = np.arange(1, n + 1, dtype=float)
        ranks[a], ranks[a + 1] = ranks[a + 1], ranks[a]
        expected = 0.5 - (ranks - (n + 1) / 2) * delta0
        assert tau == pytest.approx(expected, abs=1e-12)

    def test_consecutive_gaps_constant(self):
        n = 15
        delta0 = 0.9 / (9 * (n - 1))
        tau = np.sort(scores(gen_adjacent_swap(n, delta0, 7)))[::-1]
        assert np.diff(tau) == pytest.approx(-delta0, abs=1e-12)

    def test_swap_locality(self):
        # neighbouring swap indices yield matrices differing only in the
        # rows and columns of the three items involved
        n = 9
        delta0 = 1.0 / (9 * (n - 1))
        a = gen_adjacent_swap(n, delta0, 0).entries
        b = gen_adjacent_swap(n, delta0, 1).entries
        di, dj = np.nonzero(a != b)
        assert len(di) > 0
        assert np.all((di < 3) | (dj < 3))
        assert np.array_equal(a[3:, 3:], b[3:, 3:])

    def test_delta0_bound_enforced(self):
        with pytest.raises(ValueError, match="delta0"):
            gen_adjacent_swap(10, 0.5 / 9, 0)


class TestHammingPlanted:
    def test_identity_ordering_equals_planted(self):
        a = gen_hamming_planted(8, 3, 0.25)
        b = gen_planted(8, 3, 0.25)
        assert np.array_equal(a.entries, b.entries)

    def test_two_valued_score_profile(self):
        n, k, d = 10, 4, 0.2
        ordering = [5, 2, 9, 0, 1, 3, 4, 6, 7, 8]
        tau = scores(gen_hamming_planted(n, k, d, ordering))
        top = sorted(ordering[:k])
        assert len(np.unique(np.round(tau, 12))) == 2
        for i in range(n):
            expected = 0.5 + d * (n - k) / n if i in top else 0.5 - d * k / n
            assert tau[i] == pytest.approx(expected, abs=1e-12)

    def test_depends_only_on_top_block(self):
        a = gen_hamming_planted(6, 2, 0.3, [4, 1, 0, 2, 3, 5])
        b = gen_hamming_planted(6, 2, 0.3, [1, 4, 5, 3, 2, 0])
        assert np.array_equal(a.entries, b.entries)

    def test_validation(self):
        with pytest.raises(ValueError, match="delta0"):
            gen_hamming_planted(6, 2, 0.4)
        with pytest.raises(ValueError, match="permutation"):
            gen_hamming_planted(6, 2, 0.2, [0, 0, 1, 2, 3, 4])


class TestGeneratorInvariants:
    def test_all_outputs_revalidate(self):
        for m in all_generated():
            make_matrix(m.entries)

    def test_entry_sum_is_half_n_squared(self):
        for m in all_generated():
            assert m.entries.sum() == pytest.approx(m.n**2 / 2, abs=1e-9)

    def test_planted_constructions_are_sst(self):
        assert is_sst(gen_planted(10, 4, 0.3))
        ordering = [7, 3, 1, 9, 0, 2, 4, 5, 6, 8]
        assert is_sst(gen_hamming_planted(10, 4, 0.3, ordering), order=ordering)

    @pytest.mark.parametrize(
        "generate",
        [
            lambda w: gen_parametric(w),
            lambda w: gen_btl_outlier(w, 0),
            lambda w: gen_btl_mixture(w, 0.8),
        ],
        ids=["parametric", "outlier", "mixture"],
    )
    @pytest.mark.parametrize("w", [[5.0], [], [[1.0, 2.0], [3.0, 4.0]]], ids=["one", "no", "grid"])
    def test_quality_generators_need_a_vector_of_two(self, generate, w):
        with pytest.raises(ValueError, match="w must be a vector of at least 2 qualities"):
            generate(w)


def mirror_by_pair_indices(upper):
    """The fancy-index construction: copy each pair i < j, then 1 - it."""
    n = upper.shape[0]
    out = np.full((n, n), 0.5, dtype=np.float64)
    iu, ju = np.triu_indices(n, k=1)
    out[iu, ju] = upper[iu, ju]
    out[ju, iu] = 1.0 - upper[iu, ju]
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 17, 64, 65, 129, 300, 1000])
def test_mirror_upper_is_byte_identical_to_pair_indexing(n):
    rng = np.random.default_rng(n)
    sources = (
        rng.random((n, n)), rng.normal(size=(n, n)), np.full((n, n), 0.1),
        rng.integers(-3, 4, size=(n, n)),
    )
    for upper in sources:
        got = _mirror_upper(upper)
        expected = mirror_by_pair_indices(upper)
        assert got.dtype == expected.dtype and got.flags.c_contiguous
        assert got.tobytes() == expected.tobytes()


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(2, 10),
    spread=st.floats(0.1, 8.0, allow_nan=False),
    cdf=st.sampled_from(["logistic", "gaussian"]),
)
def test_parametric_matrices_always_valid(n, spread, cdf):
    m = gen_parametric(equispaced_quality(n, spread), cdf)
    make_matrix(m.entries)
    assert m.entries.sum() == pytest.approx(n**2 / 2, abs=1e-9)


class TestModelSpec:
    def test_instantiate_each_kind(self, tmp_path):
        n = 8
        base = gen_planted(n, 2, 0.2)
        path = tmp_path / "m.csv"
        write_matrix_csv(base, path)
        specs = [
            ModelSpec(kind="btl"),
            ModelSpec(kind="thurstone"),
            ModelSpec(kind="btl_outlier", outlier=0),
            ModelSpec(kind="sst_diagonal", gap=0.02, model_seed=9),
            ModelSpec(kind="btl_mixture", lam=0.75),
            ModelSpec(kind="planted", k=2, delta=0.1),
            ModelSpec(kind="adjacent_swap", delta0=1.0 / (9 * (n - 1)), swap_index=1),
            ModelSpec(kind="hamming_planted", k=2, delta0=0.2),
            ModelSpec(kind="explicit", entries_path=str(path)),
        ]
        for spec in specs:
            m = instantiate(spec, n, seed=3)
            assert m.n == n

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            ModelSpec(kind="elo")

    def test_sst_requires_seed(self):
        with pytest.raises(ValueError, match="seed"):
            instantiate(ModelSpec(kind="sst_diagonal"), 6)

    @pytest.mark.parametrize(
        "as_list, as_tuple",
        [(ModelSpec(kind="btl", w=[1.0, 0.0, -1.0]), ModelSpec(kind="btl", w=(1.0, 0.0, -1.0)))],
        ids=["w"],
    )
    def test_list_and_tuple_specs_are_one_spec(self, as_list, as_tuple):
        assert as_list == as_tuple
        assert hash(as_list) == hash(as_tuple)
        model._build_memoized.cache_clear()
        first = instantiate(as_list, 3).entries.tobytes()
        model._build_memoized.cache_clear()
        assert instantiate(as_tuple, 3).entries.tobytes() == first

    def test_non_numeric_quality_rejected(self):
        with pytest.raises(ValueError, match="w must be a sequence of numbers"):
            ModelSpec(kind="btl", w=1.0)

    @pytest.mark.parametrize(
        "kind, message",
        [
            ("planted", "planted model requires k and delta"),
            ("adjacent_swap", "adjacent_swap model requires delta0"),
            ("hamming_planted", "hamming_planted model requires k and delta0"),
            ("explicit", "explicit model requires entries_path"),
        ],
    )
    def test_missing_required_parameter_rejected(self, kind, message):
        with pytest.raises(ValueError) as exc:
            ModelSpec(kind=kind, k=2)
        assert str(exc.value) == message

    @pytest.mark.parametrize("kind", sorted(set(MODEL_KINDS) - {"explicit"}))
    def test_one_item_is_too_few_for_every_kind(self, kind):
        spec = ModelSpec(kind=kind, k=1, delta=0.1, delta0=0.1, model_seed=3)
        with pytest.raises(ValueError) as exc:
            instantiate(spec, 1)
        assert str(exc.value) == "need at least 2 items, got n=1"

    def test_ordering_seed_draws_the_order_of_the_items(self):
        spec = ModelSpec(kind="hamming_planted", k=3, delta0=0.2, ordering_seed=5)
        ordering = np.random.default_rng(5).permutation(9)
        expected = gen_hamming_planted(9, 3, 0.2, ordering).entries
        assert instantiate(spec, 9).entries.tobytes() == expected.tobytes()

    def test_model_keys_are_the_spec_parameters(self):
        # the kind is the configuration key ``model``, and the list ``w`` is gen-matrix --quality
        parameters = {f.name for f in dataclasses.fields(ModelSpec)} - {"kind", "w"}
        assert set(_textio.MODEL_KEYS) == parameters
        assert _textio.MODEL_KEYS.items() <= _textio.CONFIG_KEYS.items()


class TestInstantiateMemo:
    @pytest.fixture(autouse=True)
    def fresh_memo(self):
        model._build_memoized.cache_clear()
        yield
        model._build_memoized.cache_clear()

    @staticmethod
    def fresh(spec, n, seed):
        model._build_memoized.cache_clear()
        return instantiate(spec, n, seed).entries.tobytes()

    def test_memo_matches_fresh_builds(self, tmp_path):
        path = tmp_path / "m.csv"
        specs = {
            "btl": ModelSpec(kind="btl"),
            "thurstone": ModelSpec(kind="thurstone", quality_spread=2.0),
            "btl_outlier": ModelSpec(kind="btl_outlier"),
            "sst_diagonal": ModelSpec(kind="sst_diagonal"),
            "btl_mixture": ModelSpec(kind="btl_mixture", lam=0.7),
            "planted": ModelSpec(kind="planted", k=2, delta=0.1),
            "adjacent_swap": ModelSpec(kind="adjacent_swap", delta0=0.01),
            "hamming_planted": ModelSpec(kind="hamming_planted", k=2, delta0=0.2),
            "explicit": ModelSpec(kind="explicit", entries_path=str(path)),
        }
        assert sorted(specs) == sorted(MODEL_KINDS)
        # each call repeated, so every memoized kind is hit and then replaced
        calls = [
            (kind, n, seed) for n in (5, 11) for kind in MODEL_KINDS for seed in (1, 1, 2)
        ]
        got = []
        for kind, n, seed in calls:
            write_matrix_csv(gen_planted(n, 1, 0.1 * seed), path)
            got.append(instantiate(specs[kind], n, seed).entries.tobytes())
        info = model._build_memoized.cache_info()
        assert info.hits > 0 and info.misses > 0
        for (kind, n, seed), entries in zip(calls, got):
            write_matrix_csv(gen_planted(n, 1, 0.1 * seed), path)
            assert entries == self.fresh(specs[kind], n, seed), (kind, n, seed)

    def test_repeated_call_returns_the_shared_matrix(self):
        spec = ModelSpec(kind="btl")
        assert instantiate(spec, 6) is instantiate(spec, 6, seed=4)
        assert not instantiate(spec, 6).entries.flags.writeable

    def test_fallback_seed_is_part_of_the_key(self):
        spec = ModelSpec(kind="sst_diagonal")
        one, two = instantiate(spec, 9, seed=1), instantiate(spec, 9, seed=2)
        assert not np.array_equal(one.entries, two.entries)
        assert two.entries.tobytes() == self.fresh(spec, 9, 2)

    def test_spec_seed_overrides_the_fallback(self):
        spec = ModelSpec(kind="sst_diagonal", model_seed=5)
        assert instantiate(spec, 9, seed=1) is instantiate(spec, 9, seed=2)

    def test_explicit_file_is_read_again(self, tmp_path):
        path = tmp_path / "m.csv"
        spec = ModelSpec(kind="explicit", entries_path=str(path))
        write_matrix_csv(gen_planted(4, 1, 0.1), path)
        before = instantiate(spec, 4)
        write_matrix_csv(gen_planted(4, 1, 0.3), path)
        after = instantiate(spec, 4)
        assert np.array_equal(after.entries, gen_planted(4, 1, 0.3).entries)
        assert not np.array_equal(before.entries, after.entries)

    def test_failed_build_is_not_memoized(self):
        spec = ModelSpec(kind="planted", k=2, delta=0.1)
        with pytest.raises(ValueError, match="k must satisfy"):
            instantiate(spec, 2)
        assert model._build_memoized.cache_info().currsize == 0

    @pytest.mark.parametrize("n", [1, 2, 3, 64, 257])
    def test_upper_mask_is_cached_read_only(self, n):
        mask = model._upper_mask(n)
        assert mask is model._upper_mask(n)
        assert not mask.flags.writeable
        assert np.array_equal(mask, np.triu(np.ones((n, n), bool), 1))


class TestMatrixCsv:
    def test_round_trip_bit_exact(self, tmp_path, rng):
        grid = rng.uniform(0.0, 1.0, size=(7, 7))
        m = make_matrix(np.full((7, 7), 0.5) + np.triu(grid - 0.5, 1) - np.tril(grid.T - 0.5, -1))
        path = tmp_path / "matrix.csv"
        write_matrix_csv(m, path)
        back = read_matrix_csv(path)
        assert np.array_equal(back.entries, m.entries)

    def test_read_validates(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0.5,0.8\n0.3,0.5\n")
        with pytest.raises(ValueError, match="sum to 1"):
            read_matrix_csv(path)
