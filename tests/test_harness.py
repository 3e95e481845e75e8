import dataclasses
import gc
import tracemalloc

import numpy as np
import pytest

from pairrank import _textio, harness, metrics, rank, sample, setfamily
from pairrank.harness import (
    _REAL_STAGE,
    ESTIMATORS,
    ExperimentConfig,
    config_from_mapping,
    default_k,
    derive_seed,
    figure_suite,
    load_config,
    run_experiment,
    run_realdata,
    write_realdata_csv,
    write_results_csv,
)
from pairrank.model import ModelSpec
from pairrank.rank import (
    DisconnectedGraphError,
    StationaryError,
    copeland_topk,
    spectral_baseline,
    topk_from_scores,
)
from pairrank.sample import read_comparisons, subsample

from conftest import NAMES, boolean_cells, hamming_distance, write_dataset


class TestIngestWithItems:
    def test_indices_follow_item_order(self, tmp_path):
        path = tmp_path / "cmp.csv"
        path.write_text("item_a,item_b,winner\na,b,a\nc,a,c\na,b,b\n", encoding="utf-8")
        obs = read_comparisons(path, {"c": 0, "z": 1, "b": 2, "a": 3})
        assert obs.n == 4
        assert obs.comparisons[3, 2] == 2 and obs.wins[3, 2] == 1 and obs.wins[2, 3] == 1
        assert obs.wins[0, 3] == 1 and obs.wins[3, 0] == 0
        assert obs.comparisons[1].sum() == 0
        np.testing.assert_array_equal(obs.wins + obs.wins.T, obs.comparisons)

    def test_unknown_item_rejected(self, tmp_path):
        path = tmp_path / "cmp.csv"
        path.write_text("item_a,item_b,winner\na,b,a\n\na,x,a\n", encoding="utf-8")
        with pytest.raises(ValueError) as exc:
            read_comparisons(path, {"a": 0, "b": 1})
        assert str(exc.value) == (
            f"{path}:4: item 'x' appears in comparisons but not in the item list"
        )

    @pytest.mark.parametrize(
        "text, where",
        [
            ("a\r\n\r\n b \r\na\r\n", "4: duplicate item id 'a'"),
            ("a\rb\n\n\nb", "5: duplicate item id 'b'"),
            ("a\nb\nc\n  \nc\na\n", "5: duplicate item id 'c'"),
        ],
        ids=["crlf", "cr-and-no-final-newline", "two-repeats"],
    )
    def test_duplicate_items_rejected(self, tmp_path, text, where):
        obs_path = tmp_path / "cmp.csv"
        obs_path.write_text("item_a,item_b,winner\na,b,a\n", encoding="utf-8")
        truth_path = tmp_path / "truth.txt"
        truth_path.write_bytes(text.encode("utf-8"))
        with pytest.raises(ValueError) as exc:
            run_realdata(obs_path, truth_path, q_grid=(1.0,), trials=1)
        assert str(exc.value) == f"{truth_path}:{where}"


class TestRunRealdata:
    def test_matches_ingest(self, tmp_path, rng):
        obs_path, truth_path = write_dataset(tmp_path, rng)
        obs = read_comparisons(obs_path, {name: i for i, name in enumerate(NAMES)})
        k = default_k(len(NAMES))
        result = run_realdata(obs_path, truth_path, q_grid=(1.0,), trials=2, seed=3)
        assert (result.n, result.k) == (len(NAMES), k)
        expected = copeland_topk(obs, k)
        for rec in result.records[1.0]:
            if rec.estimator == "copeland":
                assert rec.hamming_error == hamming_distance(expected.items, set(range(k)))
                assert rec.tie_broken is expected.tie_broken
        assert result.summary["items"] == NAMES

    def test_records_match_the_symmetric_difference_oracle(self, tmp_path, rng):
        # at q = 0.02 about 6 of the 300 comparisons survive, so the baseline fails some trials
        obs_path, truth_path = write_dataset(tmp_path, rng)
        obs = read_comparisons(obs_path, {name: i for i, name in enumerate(NAMES)})
        k, q_grid, seed = default_k(len(NAMES)), (0.02, 0.1, 0.3, 1.0), 5
        result = run_realdata(obs_path, truth_path, q_grid=q_grid, trials=6, seed=seed)
        write_realdata_csv(result, tmp_path / "real.csv")
        cells = [line.split(",") for line in (tmp_path / "real.csv").read_text().splitlines()[1:]]
        estimators = {
            "copeland": lambda sub: copeland_topk(sub, k),
            "spectral_baseline": lambda sub: topk_from_scores(spectral_baseline(sub), k),
        }
        assert list(result.records) == list(q_grid)
        failures = 0
        for qi, (q, entry) in enumerate(zip(q_grid, result.summary["per_q"])):
            assert [(rec.trial, rec.estimator) for rec in result.records[q]] == [
                (trial, name) for trial in range(6) for name in ESTIMATORS
            ]
            errors = {name: [] for name in ESTIMATORS}
            failed = {name: 0 for name in ESTIMATORS}
            for rec in result.records[q]:
                sub = subsample(obs, q, derive_seed(seed, _REAL_STAGE, qi, rec.trial))
                row = cells.pop(0)
                assert row[:3] == [repr(q), str(rec.trial), rec.estimator]
                try:
                    est = estimators[rec.estimator](sub)
                except (DisconnectedGraphError, StationaryError) as exc:
                    assert rec.error == f"{type(exc).__name__}: {exc}"
                    assert row[3] == "" and row[4] == "false"
                    failed[rec.estimator] += 1
                    continue
                distance = hamming_distance(est.items, range(k))
                assert rec.error is None
                assert (rec.hamming_error, rec.exact_success) == (distance, distance == 0)
                assert rec.tie_broken is est.tie_broken
                assert row[3:] == [str(distance), str(est.tie_broken).lower(), ""]
                errors[rec.estimator].append(distance)
            for name, stats in entry["estimators"].items():
                got = errors[name]
                assert stats["failed_trials"] == failed[name]
                assert stats["mean_hamming_error"] == (sum(got) / len(got) if got else None)
            failures += sum(failed.values())
        assert not cells
        assert failures > 0

    def test_summary_reads_the_design_imbalance(self, tmp_path):
        obs_path, truth_path = tmp_path / "cmp.csv", tmp_path / "truth.txt"
        rows = ["a,b,a", "a,b,a", "b,a,b", "a,c,c"]
        obs_path.write_text("item_a,item_b,winner\n" + "\n".join(rows) + "\n", encoding="utf-8")
        truth_path.write_text("a\nb\nc\nd\n", encoding="utf-8")
        summary = run_realdata(obs_path, truth_path, k=1, q_grid=(1.0,), trials=1).summary
        per_item = np.array([4, 3, 1, 0])
        assert summary["comparisons"] == {
            "total": 4,
            "per_item_min": 0,
            "per_item_max": 4,
            "per_item_cv": float(per_item.std() / per_item.mean()),
        }
        assert type(summary["comparisons"]["total"]) is int

    def test_duplicate_truth_id_names_the_file(self, tmp_path, rng):
        obs_path, truth_path = write_dataset(tmp_path, rng)
        truth_path.write_text("\n".join([*NAMES, NAMES[2]]) + "\n", encoding="utf-8")
        with pytest.raises(ValueError) as exc:
            run_realdata(obs_path, truth_path, q_grid=(1.0,), trials=1)
        assert str(exc.value) == f"{truth_path}:{len(NAMES) + 1}: duplicate item id {NAMES[2]!r}"

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
        with pytest.raises(ValueError) as exc:
            run_realdata(obs_path, truth_path, q_grid=(1.0,), trials=1)
        rows = obs_path.read_text(encoding="utf-8").splitlines()
        line = next(i for i, row in enumerate(rows, start=1) if "f" in row.split(",")[:2])
        assert str(exc.value) == (
            f"{obs_path}:{line}: item 'f' appears in comparisons but not in the item list "
            f"{truth_path}"
        )

    @pytest.mark.parametrize(
        "bad, problem",
        [("c,c,c", "self-comparison of item 'c'"), ("a,b,e", "winner 'e' is neither 'a' nor 'b'")],
    )
    def test_bad_row_names_the_comparisons_file_and_line(self, tmp_path, rng, bad, problem):
        obs_path, truth_path = write_dataset(tmp_path, rng)
        rows = obs_path.read_text(encoding="utf-8").splitlines()
        rows[4:4] = [bad]
        obs_path.write_text("\n".join([*rows, "", bad]) + "\n", encoding="utf-8")
        with pytest.raises(ValueError) as exc:
            run_realdata(obs_path, truth_path, q_grid=(1.0,), trials=1)
        assert str(exc.value) == f"{obs_path}:5: {problem}"

    def test_zero_mass_item_is_ranked_not_fatal(self, tmp_path):
        # c never wins and is compared with both others: its random-walk
        # mass is exactly zero, which used to abort the whole run
        obs_path, truth_path = tmp_path / "cmp.csv", tmp_path / "truth.txt"
        rows = ["a,b,a", "a,b,a", "a,b,b", "a,c,a", "b,c,b"]
        obs_path.write_text("item_a,item_b,winner\n" + "\n".join(rows) + "\n", encoding="utf-8")
        truth_path.write_text("a\nb\nc\n", encoding="utf-8")
        result = run_realdata(obs_path, truth_path, k=1, q_grid=(1.0,), trials=1)
        by_name = {rec.estimator: rec for rec in result.records[1.0]}
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
        by_name = {rec.estimator: rec for rec in result.records[1.0]}
        failed = by_name["spectral_baseline"]
        # the worst-case record that bench writes for a failed trial
        assert (failed.exact_success, failed.hamming_error, failed.tie_broken) == (False, 2, False)
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


    @pytest.mark.parametrize(
        "n, trials, p, estimators",
        [(64, 30, 0.25, ("copeland",)), (129, 3, 0.5, ESTIMATORS), (20, 9, 1.0, ESTIMATORS)],
    )
    def test_records_match_a_loop_of_lone_draws(self, monkeypatch, n, trials, p, estimators):
        pairs = n * (n - 1) // 2
        # chunks of two draws, so the trials cross chunk boundaries
        monkeypatch.setattr(sample, "_AHEAD_PAIRS", 2 * pairs)
        cfg = ExperimentConfig(
            model=ModelSpec(kind="btl", quality_spread=6.0), n=n, k=n // 4, trials=trials,
            master_seed=3, p=p, alpha=0.5, estimators=estimators,
        )
        result = run_experiment(cfg)
        matrix = harness._matrix(cfg)
        truth = metrics.ground_truth(matrix, cfg.k)
        family = setfamily.parse_family_spec(cfg.family_spec(), n, cfg.k)
        expected = []
        for trial in range(trials):
            seed = derive_seed(cfg.master_seed, harness._OBS_STAGE, trial)
            obs = sample.draw_observations(matrix, p, result.r, seed)
            expected += harness._score(trial, obs, truth, family, estimators, seed)
        untimed = [dataclasses.replace(rec, elapsed_ns=0) for rec in result.records]
        assert untimed == [dataclasses.replace(rec, elapsed_ns=0) for rec in expected]

    def test_draws_held_ahead_stay_within_the_budget(self, monkeypatch):
        n, trials = 64, 300
        pairs = n * (n - 1) // 2
        per_call = sample._AHEAD_PAIRS // pairs  # 260 draws at n = 64
        draw, dicts, held = sample.draw_observations, [], []

        def recorded(matrix, p, r, seed, ahead=None):
            obs = draw(matrix, p, r, seed, ahead=ahead)
            dicts.append(ahead)
            held.append(sum(o.n * (o.n - 1) // 2 for o in ahead.values() if o is not None))
            return obs

        monkeypatch.setattr(sample, "draw_observations", recorded)
        run_experiment(ExperimentConfig(
            model=ModelSpec(kind="btl", quality_spread=6.0), n=n, k=n // 4, trials=trials,
            master_seed=3, p=0.25, alpha=0.2, estimators=("copeland",),
        ))
        assert len(dicts) == trials and all(d is dicts[0] for d in dicts)
        assert max(held) <= sample._AHEAD_PAIRS
        assert held[0] == (per_call - 1) * pairs
        assert held[per_call] == (trials - per_call - 1) * pairs
        assert dicts[0] == {}  # every trial took its set

    def test_a_scoring_error_frees_the_sets_drawn_ahead(self, monkeypatch):
        # the first trial draws all 80 sets; the second one's scoring raises
        n = 64
        cfg = ExperimentConfig(
            model=ModelSpec(kind="btl", quality_spread=6.0), n=n, k=n // 4, trials=80,
            master_seed=3, p=0.25, alpha=0.2, estimators=("copeland",),
        )
        run_experiment(cfg)  # fills the caches: the matrix memo, the pair index, the count table
        copeland, calls = rank.copeland_topk, []

        def failing(obs, k):
            calls.append(k)
            if len(calls) == 2:
                raise RuntimeError("scoring failed")
            return copeland(obs, k)

        monkeypatch.setattr(rank, "copeland_topk", failing)
        tracemalloc.start()
        try:
            with pytest.raises(RuntimeError, match="scoring failed"):
                run_experiment(cfg)
            gc.collect()
            current = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        # less than the n x n buffer of one set: the 78 sets left untaken are gone
        assert current < n * n * 8, current


def test_estimator_names_are_the_registry_keys():
    assert _textio.ESTIMATORS == tuple(harness._ESTIMATOR_FNS) == ESTIMATORS


def test_default_k_shared_by_bench_and_eval_real():
    assert [default_k(n) for n in (1, 3, 4, 5, 100, 120)] == [1, 1, 1, 2, 25, 30]
    assert {cfg.k for cfg in figure_suite(n=10, trials=1)} == {3}


def experiment(**changes):
    """Build an experiment config that is valid bar ``changes``."""
    settings = dict(model=ModelSpec(kind="btl"), n=8, k=2, trials=1, master_seed=0, r=2)
    return lambda _: ExperimentConfig(**{**settings, **changes})


def config_file(text):
    """Load ``text`` as the configuration file ``<tmp>/bench.cfg``."""

    def build(tmp_path):
        path = tmp_path / "bench.cfg"
        path.write_text(text, encoding="utf-8")
        return load_config(path)

    return build


@pytest.mark.parametrize(
    "build, message",
    [
        (experiment(trials=0), "trials must be at least 1"),
        (experiment(alpha=1.0), "exactly one of alpha and r must be given"),
        (experiment(r=None), "exactly one of alpha and r must be given"),
        *[(experiment(estimators=value),
           f"estimators must list distinct names of copeland, spectral_baseline, got {value!r}")
          for value in ((), ("copeland", "borda"), ("copeland", "copeland"))],
        (experiment(label="a\nb"), "label must not contain a comma or a line break, got 'a\\nb'"),
        (experiment(h=-1), "h must be nonnegative"),
        # items 0 and 1 are planted and the rest tie, so no top 3 is separated
        (lambda tmp_path: run_experiment(experiment(
            model=ModelSpec(kind="planted", k=2, delta=0.2), k=3, r=None, alpha=1.0)(tmp_path)),
         "alpha target is infeasible: the instantiated matrix has zero separation"),
        (config_file("model = btl\nn 8\n"), "<tmp>/bench.cfg:2: expected 'key = value', got 'n 8'"),
        (lambda _: config_from_mapping({"n": 8, "k": 2}), "configuration must set 'model'"),
        *[(config_file(f"model = btl\nn = 8\nk = 2\nr = 2\nestimators = {value}\n"),
           "<tmp>/bench.cfg:5: configuration key 'estimators': must list distinct names of "
           f"copeland, spectral_baseline, got {value!r}")
          for value in ("foo", ",", "copeland,copeland", "copeland,borda")],
    ],
    ids=["no-trials", "alpha-and-r", "neither-alpha-nor-r", "no-estimators", "unknown-estimator",
         "repeated-estimator", "line-break-label", "negative-h", "zero-separation-alpha",
         "line-without-equals", "no-model",
         "config-unknown-estimator", "config-no-estimators", "config-repeated-estimator",
         "config-one-unknown-estimator"],
)
def test_config_rejections(tmp_path, build, message):
    with pytest.raises(ValueError) as exc:
        build(tmp_path)
    assert str(exc.value) == message.replace("<tmp>", str(tmp_path))
