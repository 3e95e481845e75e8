"""The benchmark's workloads, driven through the public ``pairrank`` API.

Each workload builds its inputs from the run seed (``prepare``), runs
one *unit* of program work (``run``, the only timed call), turns the
unit's outputs into per-evaluation outcomes (``evaluations``), and
checks those outputs against the oracles in ``checks`` (``check``).
One evaluation is one estimator on one trial.

Known defects at the time the benchmark was written, routed around
rather than fixed (the benchmark must read the same once they are
fixed):

* ``pairrank bench --summary`` crashes on the numpy ``int64`` that the
  ``tie_broken_trials`` sum produces, so the bench workloads call
  ``harness.run_experiment`` and ``harness.write_results_csv`` directly
  and build their own summary.
* Copeland rows spell CSV booleans ``False``/``True`` while baseline
  rows spell them ``false``/``true``, so the CSV check counts rows and
  columns and never reads a boolean cell.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.special import expit

from pairrank import cli, harness, model, rank, sample

import checks

RESULT_HEADER = (
    "model", "n", "k", "h", "p", "r", "alpha", "trial", "estimator", "exact_success",
    "hamming_error", "allowed_success", "tie_broken", "elapsed_ns", "derived_seed",
)
REALDATA_HEADER = ("q", "trial", "estimator", "hamming_error", "tie_broken", "error")


@dataclass(frozen=True)
class Evaluation:
    """One estimator on one trial; a failed evaluation has ``hamming = 2k``."""

    group: str
    trial: int
    estimator: str
    k: int
    exact: bool
    hamming: int
    error: str | None = None


def _seed(seed: int, *tags: int) -> int:
    return int(np.random.SeedSequence((seed, *tags)).generate_state(1, dtype=np.uint64)[0])


@contextmanager
def capture_matrices(into: list):
    """Record every matrix ``model.instantiate`` returns, with its arguments."""
    original = model.instantiate

    def capture(*args, **kwargs):
        matrix = original(*args, **kwargs)
        into.append((args, matrix))
        return matrix

    model.instantiate = capture
    try:
        yield
    finally:
        model.instantiate = original


# --------------------------------------------------------------------------
# bench workloads: a list of experiment configs run through the harness


@dataclass
class BenchState:
    configs: list
    csv_paths: list
    params: dict
    captured: list = field(default_factory=list)


def _run_bench(state: BenchState) -> list:
    results = []
    for cfg, path in zip(state.configs, state.csv_paths):
        result = harness.run_experiment(cfg)
        harness.write_results_csv(result, path)
        results.append(result)
    return results


def _bench_evaluations(state: BenchState, results) -> list[Evaluation]:
    out = []
    for result in results:
        cfg = result.config
        group = f"{cfg.display_label}/n={cfg.n}/alpha={cfg.alpha}/{cfg.family_spec()}"
        for rec in result.records:
            failed = rec.error is not None
            out.append(
                Evaluation(
                    group=group,
                    trial=rec.trial,
                    estimator=rec.estimator,
                    k=cfg.k,
                    exact=bool(rec.exact_success) and not failed,
                    hamming=2 * cfg.k if failed else int(rec.hamming_error),
                    error=rec.error,
                )
            )
    return out


def _matrices_by_config(state: BenchState) -> list:
    """Match captured matrices to configs in run order."""
    out, pos = [], 0
    for cfg in state.configs:
        found = None
        while pos < len(state.captured):
            args, matrix = state.captured[pos]
            pos += 1
            if args[0] == cfg.model and args[1] == cfg.n:
                found = matrix
                break
        out.append(found)
    return out


def _bench_check(state: BenchState, results) -> dict[int, list[str]]:
    """Re-draw sampled trials and compare each estimator with its oracle.

    Returns the problems found per evaluation index.  A problem with a
    whole CSV, or a config whose matrix was not observed, marks every
    evaluation of that config.
    """
    per_eval: dict[int, list[str]] = {}
    matrices = _matrices_by_config(state)
    index = 0
    for result, matrix, path in zip(results, matrices, state.csv_paths):
        cfg = result.config
        n_recs = len(result.records)
        whole = checks.check_csv_shape(path, RESULT_HEADER, cfg.trials * len(cfg.estimators))
        if matrix is None:
            whole.append(f"{cfg.display_label}: no instantiated matrix was observed")
        if whole:
            for i in range(index, index + n_recs):
                per_eval.setdefault(i, []).extend(whole)
        if matrix is None:
            index += n_recs
            continue
        tau = checks.true_scores(matrix.entries)
        sampled = {cfg.trials - 1}
        draws = {}
        for offset, rec in enumerate(result.records):
            problems = []
            if rec.exact_success != (rec.hamming_error == 0) and rec.error is None:
                problems.append("exact_success disagrees with hamming_error")
            if rec.trial in sampled and rec.error is None:
                if rec.trial not in draws:
                    draws[rec.trial] = sample.draw_observations(
                        matrix, cfg.p, result.r, rec.derived_seed
                    )
                obs = draws[rec.trial]
                if rec.estimator == "copeland":
                    problems += checks.check_copeland(obs.wins, tau, cfg.k, rec.hamming_error)
                else:
                    problems += checks.check_baseline(
                        obs,
                        tau,
                        cfg.k,
                        rec.hamming_error,
                        rank.spectral_baseline(obs),
                        rank.rank_centrality(obs),
                        rank.btl_loglikelihood,
                    )
            if problems:
                per_eval.setdefault(index + offset, []).extend(problems)
        index += n_recs
    return per_eval


def summarize_evaluations(evaluations: list[Evaluation]) -> dict:
    """Per config and estimator: exact rate and mean Hamming error."""
    groups: dict[str, dict[str, list[Evaluation]]] = {}
    for ev in evaluations:
        groups.setdefault(ev.group, {}).setdefault(ev.estimator, []).append(ev)
    return {
        group: {
            est: {
                "evaluations": len(evs),
                "exact_rate": sum(e.exact for e in evs) / len(evs),
                "mean_hamming": sum(e.hamming for e in evs) / len(evs),
            }
            for est, evs in by_est.items()
        }
        for group, by_est in groups.items()
    }


def _fingerprint_bench(state: BenchState, results) -> tuple:
    return tuple(Path(p).read_bytes() for p in state.csv_paths)


# figure-suite ---------------------------------------------------------------

FIGURE = {"full": {"n": 100, "trials": 3}, "smoke": {"n": 20, "trials": 1}}


def prepare_figure_suite(seed: int, workdir: Path, size: str = "full") -> BenchState:
    params = dict(FIGURE[size], p=1.0, alpha=4.0, estimators=list(harness.ESTIMATORS))
    configs = harness.figure_suite(
        n=params["n"], trials=params["trials"], p=params["p"], alpha=params["alpha"],
        master_seed=_seed(seed, 1),
    )
    paths = [workdir / f"figure-{i}.csv" for i in range(len(configs))]
    params["models"] = [cfg.display_label for cfg in configs]
    return BenchState(configs, paths, params)


# threshold-sweep ------------------------------------------------------------

SWEEP_ALPHAS = (0.05, 0.1, 0.2, 0.35, 0.5)
SWEEP = {
    "full": {
        "sizes": {64: 80, 256: 6, 1024: 1},
        "hamming_n": 256,
        "relaxed_n": 64,
        "relaxed": ("ranksum:eps=0.5", "mult:eps=0.5"),
        "relaxed_alpha": 0.2,
    },
    "smoke": {
        "sizes": {16: 3, 32: 2},
        "hamming_n": 32,
        "relaxed_n": 16,
        "relaxed": ("ranksum:eps=0.5", "mult:eps=0.5"),
        "relaxed_alpha": 0.2,
    },
}


def prepare_threshold_sweep(seed: int, workdir: Path, size: str = "full") -> BenchState:
    plan = SWEEP[size]
    btl = model.ModelSpec(kind="btl", quality_spread=6.0)
    p = 0.25
    rows = []  # (n, trials, alpha, h, family)
    for n, trials in plan["sizes"].items():
        rows += [(n, trials, a, 0, "") for a in SWEEP_ALPHAS]
        if n == plan["hamming_n"]:
            rows += [(n, trials, a, 2, "") for a in SWEEP_ALPHAS]
        if n == plan["relaxed_n"]:
            rows += [(n, trials, plan["relaxed_alpha"], 0, fam) for fam in plan["relaxed"]]
    configs = [
        harness.ExperimentConfig(
            model=btl, label="btl", n=n, k=n // 4, trials=trials, p=p, alpha=alpha, h=h,
            family=family, estimators=("copeland",), master_seed=_seed(seed, 2, i),
        )
        for i, (n, trials, alpha, h, family) in enumerate(rows)
    ]
    params = {
        "model": "btl", "quality_spread": 6.0, "p": p, "alphas": list(SWEEP_ALPHAS),
        "trials_by_n": {str(n): t for n, t in plan["sizes"].items()},
        "hamming_h2_at_n": plan["hamming_n"], "relaxed_at_n": plan["relaxed_n"],
        "relaxed_families": list(plan["relaxed"]), "relaxed_alpha": plan["relaxed_alpha"],
        "estimators": ["copeland"], "configs": len(configs),
    }
    paths = [workdir / f"sweep-{i}.csv" for i in range(len(configs))]
    return BenchState(configs, paths, params)


# --------------------------------------------------------------------------
# eval-real: a generated comparisons CSV through ``pairrank eval-real``

EVAL_REAL = {
    "full": {"items": 120, "records": 200_000, "trials": 1},
    "smoke": {"items": 16, "records": 20_000, "trials": 1},
}
Q_GRID = (0.05, 0.1, 0.2, 0.35, 0.6, 1.0)


@dataclass
class RealState:
    argv: list
    out_csv: Path
    out_summary: Path
    comparisons: np.ndarray
    wins: np.ndarray
    k: int
    trials: int
    params: dict


def prepare_eval_real(seed: int, workdir: Path, size: str = "full") -> RealState:
    """Write a BTL comparisons CSV with a popularity-skewed design.

    Item 0 is the best.  Qualities are equispaced within the top
    quarter and within the rest, with a gap of 1.0 between the two, so
    the likelihood baseline can recover the top set at every q while
    Copeland's raw win totals are pulled by unequal comparison counts.
    Pairs are drawn with probability proportional to the product of
    log-normal popularities.
    """
    plan = EVAL_REAL[size]
    n, records = plan["items"], plan["records"]
    k = -(-n // 4)
    rng = np.random.default_rng(_seed(seed, 3))
    quality = np.r_[np.linspace(5.0, 3.0, k), np.linspace(2.0, 0.0, n - k)]
    popularity = rng.lognormal(0.0, 0.35, n)
    popularity /= popularity.sum()
    a = rng.choice(n, size=2 * records, p=popularity)
    b = rng.choice(n, size=2 * records, p=popularity)
    keep = a != b
    a, b = a[keep][:records], b[keep][:records]
    a_wins = rng.random(records) < expit(quality[a] - quality[b])
    winner = np.where(a_wins, a, b)
    loser = np.where(a_wins, b, a)

    comparisons = np.zeros((n, n), dtype=np.int64)
    np.add.at(comparisons, (a, b), 1)
    comparisons += comparisons.T
    wins = np.zeros((n, n), dtype=np.int64)
    np.add.at(wins, (winner, loser), 1)

    names = [f"item{j:04d}" for j in rng.permutation(10 * n)[:n]]
    obs_path = workdir / "comparisons.csv"
    truth_path = workdir / "truth.txt"
    with obs_path.open("w", encoding="utf-8") as fh:
        fh.write("item_a,item_b,winner\n")
        fh.writelines(
            f"{names[x]},{names[y]},{names[w]}\n"
            for x, y, w in zip(a.tolist(), b.tolist(), winner.tolist())
        )
    truth_path.write_text("\n".join(names) + "\n", encoding="utf-8")

    out_csv, out_summary = workdir / "eval-real.csv", workdir / "eval-real.json"
    argv = [
        "eval-real", "--obs", str(obs_path), "--truth", str(truth_path),
        "--q-grid", ",".join(repr(q) for q in Q_GRID), "--trials", str(plan["trials"]),
        "--seed", str(_seed(seed, 4) % 2**31),
        "--out", str(out_csv), "--summary", str(out_summary),
    ]
    params = {
        "items": n, "records": records, "k": k, "q_grid": list(Q_GRID), "trials": plan["trials"],
        "quality": "top quarter 5..3, rest 2..0", "popularity": "lognormal(0, 0.35)",
        "min_item_comparisons": int(comparisons.sum(axis=1).min()),
        "max_item_comparisons": int(comparisons.sum(axis=1).max()),
    }
    return RealState(argv, out_csv, out_summary, comparisons, wins, k, plan["trials"], params)


def _run_eval_real(state: RealState) -> int:
    return cli.main(state.argv)


def _read_realdata_rows(state: RealState) -> list[list[str]]:
    lines = state.out_csv.read_text(encoding="utf-8").splitlines()
    return [line.split(",") for line in lines[1:]]


def _real_evaluations(state: RealState, code: int) -> list[Evaluation]:
    if code != 0:
        raise RuntimeError(f"pairrank eval-real exited with code {code}")
    out = []
    for q, trial, est, hamming, _tie, error in _read_realdata_rows(state):
        failed = hamming == ""
        h = 2 * state.k if failed else int(hamming)
        exact = h == 0 and not failed
        out.append(Evaluation(f"q={q}", int(trial), est, state.k, exact, h, error or None))
    return out


def _real_check(state: RealState, code: int) -> dict[int, list[str]]:
    per_eval: dict[int, list[str]] = {}
    expected_rows = len(Q_GRID) * state.trials * len(harness.ESTIMATORS)
    shape = checks.check_csv_shape(state.out_csv, REALDATA_HEADER, expected_rows)
    rows = _read_realdata_rows(state)
    if shape:
        return {i: list(shape) for i in range(max(len(rows), expected_rows))}

    summary = json.loads(state.out_summary.read_text(encoding="utf-8"))
    means = {
        (entry["q"], est): stats["mean_hamming_error"]
        for entry in summary["per_q"]
        for est, stats in entry["estimators"].items()
    }
    n = state.comparisons.shape[0]
    tau = -np.arange(n, dtype=np.float64)  # the truth file lists item 0 first
    full = sample.ObservationSet(
        n=n, r=int(state.comparisons.max()), p=None,
        comparisons=state.comparisons.copy(), wins=state.wins.copy(),
    )
    for i, (q, _trial, est, hamming, _tie, error) in enumerate(rows):
        problems = []
        if hamming == "":
            problems.append(f"q={q} {est}: {error}")
        else:
            h = int(hamming)
            got = [int(r[3]) for r in rows if r[0] == q and r[2] == est and r[3] != ""]
            if means.get((float(q), est)) != sum(got) / len(got):
                problems.append(f"q={q} {est}: summary mean disagrees with the CSV")
            if h % 2 or not 0 <= h <= 2 * state.k:
                problems.append(f"q={q} {est}: impossible hamming error {h}")
            elif float(q) == 1.0 and est == "copeland":
                problems += checks.check_copeland(state.wins, tau, state.k, h)
            elif float(q) == 1.0:
                problems += checks.check_baseline(
                    full, tau, state.k, h, rank.spectral_baseline(full),
                    rank.rank_centrality(full), rank.btl_loglikelihood,
                )
        if problems:
            per_eval[i] = problems
    return per_eval


def _fingerprint_real(state: RealState, code: int) -> tuple:
    return (code, state.out_csv.read_bytes())


# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    prepare: object
    run: object
    evaluations: object
    check: object
    fingerprint: object
    captures_matrices: bool


_BENCH = dict(
    run=_run_bench, evaluations=_bench_evaluations, check=_bench_check,
    fingerprint=_fingerprint_bench, captures_matrices=True,
)

# why each workload was chosen: README.md and BENCHMARK.json
WORKLOADS = {
    "figure-suite": Workload(prepare=prepare_figure_suite, **_BENCH),
    "threshold-sweep": Workload(prepare=prepare_threshold_sweep, **_BENCH),
    "eval-real": Workload(
        prepare=prepare_eval_real, run=_run_eval_real, evaluations=_real_evaluations,
        check=_real_check, fingerprint=_fingerprint_real, captures_matrices=False,
    ),
}
