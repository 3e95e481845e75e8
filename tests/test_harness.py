import numpy as np
import pytest

from pairrank import (
    ExperimentConfig,
    ModelSpec,
    copeland_topk,
    figure_suite,
    hamming_distance,
    ingest_comparisons,
    iter_comparisons_csv,
    run_experiment,
    run_realdata,
    write_results_csv,
)
from pairrank.harness import ESTIMATORS, default_k, write_realdata_csv

from conftest import NAMES, boolean_cells, write_dataset


class TestIngestWithItems:
    def test_indices_follow_item_order(self):
        rows = [("a", "b", "a"), ("c", "a", "c"), ("a", "b", "b")]
        obs, index = ingest_comparisons(rows, items=["c", "z", "b", "a"])
        assert index == {"c": 0, "z": 1, "b": 2, "a": 3}
        assert obs.n == 4
        assert obs.comparisons[3, 2] == 2 and obs.wins[3, 2] == 1 and obs.wins[2, 3] == 1
        assert obs.wins[0, 3] == 1 and obs.wins[3, 0] == 0
        assert obs.comparisons[1].sum() == 0
        np.testing.assert_array_equal(obs.wins + obs.wins.T, obs.comparisons)

    def test_unknown_item_rejected(self):
        with pytest.raises(ValueError, match="'x'"):
            ingest_comparisons([("a", "x", "a")], items=["a", "b"])

    def test_duplicate_items_rejected(self):
        with pytest.raises(ValueError):
            ingest_comparisons([("a", "b", "a")], items=["a", "b", "a"])


class TestRunRealdata:
    def test_matches_ingest(self, tmp_path, rng):
        obs_path, truth_path = write_dataset(tmp_path, rng)
        obs, _ = ingest_comparisons(iter_comparisons_csv(obs_path), items=NAMES)
        k = default_k(len(NAMES))
        result = run_realdata(obs_path, truth_path, q_grid=(1.0,), trials=2, seed=3)
        assert (result.n, result.k) == (len(NAMES), k)
        expected = copeland_topk(obs, k)
        for row in result.rows:
            if row.estimator == "copeland":
                assert row.hamming_error == hamming_distance(expected.items, set(range(k)))
                assert row.tie_broken is expected.tie_broken
        assert result.summary["items"] == NAMES

    def test_zero_trials_rejected_before_reading(self, tmp_path):
        with pytest.raises(ValueError, match="trials must be at least 1"):
            run_realdata(tmp_path / "missing.csv", tmp_path / "missing.txt", trials=0)

    @pytest.mark.parametrize("q_grid", [(0.5, 0.5), [0.1, 1.0, 0.1]])
    def test_repeated_q_rejected_before_reading(self, tmp_path, q_grid):
        with pytest.raises(ValueError, match=f"q_grid repeats {q_grid[0]}"):
            run_realdata(tmp_path / "missing.csv", tmp_path / "missing.txt", q_grid=q_grid)

    @pytest.mark.parametrize("q", [0.0, -0.1, 1.5])
    def test_q_outside_unit_interval_rejected_before_reading(self, tmp_path, q):
        with pytest.raises(ValueError, match=rf"q_grid fractions must lie in \(0, 1\], got {q}"):
            run_realdata(tmp_path / "missing.csv", tmp_path / "missing.txt", q_grid=(0.5, q))

    def test_unknown_item_rejected(self, tmp_path, rng):
        obs_path, truth_path = write_dataset(tmp_path, rng)
        truth_path.write_text("\n".join(NAMES[:-1]) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match="'f'"):
            run_realdata(obs_path, truth_path, q_grid=(1.0,), trials=1)

    def test_zero_mass_item_is_ranked_not_fatal(self, tmp_path):
        # c never wins and is compared with both others: its random-walk
        # mass is exactly zero, which used to abort the whole run
        obs_path, truth_path = tmp_path / "cmp.csv", tmp_path / "truth.txt"
        rows = ["a,b,a", "a,b,a", "a,b,b", "a,c,a", "b,c,b"]
        obs_path.write_text("item_a,item_b,winner\n" + "\n".join(rows) + "\n", encoding="utf-8")
        truth_path.write_text("a\nb\nc\n", encoding="utf-8")
        result = run_realdata(obs_path, truth_path, k=1, q_grid=(1.0,), trials=1)
        by_name = {row.estimator: row for row in result.rows}
        assert by_name["spectral_baseline"].error is None
        assert by_name["spectral_baseline"].hamming_error == 0

    def test_several_closed_classes_are_a_failed_trial(self, tmp_path):
        # a and b each beat c and d and never met: the baseline's walk has
        # two closed classes and no unique stationary vector
        obs_path, truth_path = tmp_path / "cmp.csv", tmp_path / "truth.txt"
        rows = ["a,c,a", "a,c,a", "a,d,a", "b,c,b", "b,d,b", "c,d,c", "c,d,d"]
        obs_path.write_text("item_a,item_b,winner\n" + "\n".join(rows) + "\n", encoding="utf-8")
        truth_path.write_text("a\nb\nc\nd\n", encoding="utf-8")
        result = run_realdata(obs_path, truth_path, k=1, q_grid=(1.0,), trials=1)
        by_name = {row.estimator: row for row in result.rows}
        failed = by_name["spectral_baseline"]
        assert failed.hamming_error is None
        assert failed.error.startswith("StationaryError: ") and "2 closed classes" in failed.error
        assert by_name["copeland"].error is None
        stats = result.summary["per_q"][0]["estimators"]
        assert stats["spectral_baseline"]["failed_trials"] == 1
        assert stats["copeland"]["failed_trials"] == 0

    def test_rerun_is_byte_identical(self, tmp_path, rng):
        obs_path, truth_path = write_dataset(tmp_path, rng)
        outs = []
        for i in range(2):
            result = run_realdata(obs_path, truth_path, q_grid=(0.3, 1.0), trials=3, seed=9)
            outs.append(tmp_path / f"real-{i}.csv")
            write_realdata_csv(result, outs[-1])
        assert outs[0].read_bytes() == outs[1].read_bytes()
        assert boolean_cells(outs[0], ["tie_broken"]) <= {"true", "false"}


class TestRunExperiment:
    CONFIG = ExperimentConfig(
        model=ModelSpec(kind="btl", quality_spread=4.0), n=12, k=3, trials=3,
        master_seed=11, r=2, h=1, family="ranksum:eps=0.5",
    )

    def test_rerun_is_byte_identical(self, tmp_path):
        paths = []
        for i in range(2):
            paths.append(tmp_path / f"res-{i}.csv")
            write_results_csv(run_experiment(self.CONFIG), paths[-1])
        assert paths[0].read_bytes() == paths[1].read_bytes()
        cells = boolean_cells(paths[0], ["exact_success", "allowed_success", "tie_broken"])
        assert cells <= {"true", "false"}

    def test_summary_counts_are_python_ints(self):
        summary = run_experiment(self.CONFIG).summary
        assert set(summary["estimators"]) == set(ESTIMATORS)
        for stats in summary["estimators"].values():
            assert type(stats["tie_broken_trials"]) is int
            assert type(stats["errors"]) is int


def test_default_k_shared_by_bench_and_eval_real():
    assert [default_k(n) for n in (1, 3, 4, 5, 100, 120)] == [1, 1, 1, 2, 25, 30]
    assert {cfg.k for cfg in figure_suite(n=10, trials=1)} == {3}
