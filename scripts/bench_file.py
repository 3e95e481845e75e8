"""Write a ``BENCH_<label>.json`` file for one or more checkouts of pairrank.

Usage, from anywhere:

    python3 scripts/bench_file.py CHECKOUT [CHECKOUT ...] [--out-dir DIR]

For every checkout it runs that checkout's own ``benchmark/run.py`` on
each workload and seed with ``--trace 0``, each run as long as the
checkout's ``BENCHMARK.json`` sets (``run_seconds``), and times the
model layer (``instantiate``: a first call with its memo cleared, and a
repeated call), the sampling layer (``draw_observations``), the
estimator layers (``copeland_topk``, ``rank_centrality``,
``mle_refine``) under two sampling designs, a fresh draw counted by
Copeland (``draw_copeland``), the scoring layer
(``ground_truth`` and ``evaluate``), ``rank_centrality`` on a reducible
walk, the ingest layer (``read_comparisons``) on a comparisons CSV, the
output layers (``write_results_csv`` rewriting one results CSV, and
``write_observations`` writing a fresh draw as ``simulate`` does),
and the harness (``run_experiment``) on the trials of one
``threshold-sweep`` config at n = 64, in a fresh interpreter
that imports ``pairrank`` from the checkout's ``src/``.  It also times
whole launches of a fresh interpreter: ``import pairrank``, ``pairrank
--help`` and ``pairrank rank`` on a 50-item observations file (a real
command, which loads numpy).  Rounds
alternate the order of the checkouts, so side-by-side files see the
same drift of a shared machine.  Each file records every run and, per
workload and seed, each metric's median, minimum and maximum over the
rounds, so a reader can see when two files' ranges overlap and a
difference is not resolved.  It also records the git SHA (with
``-dirty`` in the label when the tracked files differ from it), the
Python, numpy and scipy versions, ``nproc`` and the seeds.  Files go to ``--out-dir`` (default: the root
of the repository holding this script).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

WORKLOADS = ("figure-suite", "threshold-sweep", "eval-real")
SEEDS = (1, 4099)
ROUNDS = 3
LAYER_SIZES = (50, 200, 1000)
# threshold-sweep builds its matrices and draws at n = 256 and 1024,
# multiples of 256 where a whole-array transposed pass is slowest, so the
# matrix build (whose mirror is tiled for these sizes), the sampling
# layers and Copeland's count run at these sizes too, and the other
# layers do not
SWEEP_SIZES = (256, 1024)
SWEEP_LAYERS = ("instantiate_first", "draw_observations", "copeland_topk", "draw_copeland")
# BTL with quality spread 6 and 4 expected comparisons per pair, at three
# sizes: the figure suite's p = 1 design, and threshold-sweep's p = 0.25.
# At p = 1 the baseline's ranking is Copeland's, so only the sparse
# design times two estimators that can give different answers.  The
# r = 400 design times sampling alone, past r * p = 30, where numpy's
# binomial sampler leaves inversion for BTPE.  ``copeland_topk`` counts
# one draw that no other layer reads, so every call counts its wins
# (from the pair vectors, where the set keeps them) rather than reading
# arrays that another layer built; ``draw_copeland`` is a fresh draw and
# then ``copeland_topk``, as a Copeland-only experiment calls them.
# The model design times
# ``instantiate`` alone: a first call builds the matrix, and a repeated
# call is a memo hit.
# The p1-ordered design (quality spread 10^4) is nearly a total order:
# item 0 never loses, so its walk is reducible and ``rank_centrality``
# must find the one closed class, {0}, before it solves.  Scoring is
# timed on the p = 0.25 design, where Copeland's top k (k = n / 4) is
# often wrong: ``ground_truth`` once per matrix, ``evaluate`` once per
# estimate against the exact (Hamming h = 0) family, as the harness
# calls them.  The ingest design writes 50 named rows per item (uniform
# pairs, BTL winners) to a comparisons CSV once, then times the
# checkout's own comparisons reader with the item list, as ``eval-real``
# calls it, so every checkout does the same work from the same file.
# At n = 1000 nearly every line is distinct, so that size is the worst
# case for a reader that tallies repeated lines before parsing them.
# The results design runs one Copeland-only experiment of n trials on 50
# items once, then times ``write_results_csv`` rewriting the same path
# with its n rows, as every rerun of ``bench --out`` does.
# The simulate design draws a fresh set before each call, outside the
# timing, and times ``write_observations_csv`` writing it to one path, as
# ``pairrank simulate`` writes its draw: the set is unbuilt, so a writer
# that builds the n x n arrays pays for the build.  It runs at n = 1000
# only, with CI's ``simulate`` design (p = 0.5, r = 7, seed 4).
# The sweep design times ``run_experiment`` on one of threshold-sweep's
# configs at n = 64 (Copeland alone, alpha = 0.2, 80 trials), where every
# draw is one block: 80 draws and their Copeland counts, the matrix a
# memo hit.  It runs at that size only.
LAYERS = ("draw_observations", "copeland_topk", "draw_copeland", "rank_centrality", "mle_refine")
LAYER_DESIGNS = {
    "model": {
        "model": "btl", "quality_spread": 6.0, "layers": ["instantiate_first", "instantiate_repeat"],
    },
    "p1": {"model": "btl", "quality_spread": 6.0, "p": 1.0, "r": 4, "seed": 1},
    "p0.25": {
        "model": "btl", "quality_spread": 6.0, "p": 0.25, "r": 16, "seed": 1,
        "layers": [*LAYERS, "ground_truth", "evaluate"],
    },
    "p1-ordered": {
        "model": "btl", "quality_spread": 1e4, "p": 1.0, "r": 4, "seed": 1,
        "layers": ["rank_centrality"],
    },
    "p0.25-r400": {
        "model": "btl", "quality_spread": 6.0, "p": 0.25, "r": 400, "seed": 1,
        "layers": ["draw_observations"],
    },
    "ingest": {
        "model": "btl", "quality_spread": 6.0, "rows_per_item": 50, "seed": 1,
        "layers": ["ingest_csv"],
    },
    "results": {
        "model": "btl", "quality_spread": 6.0, "items": 50, "r": 4, "seed": 1,
        "layers": ["write_results_csv"],
    },
    "simulate": {
        "model": "btl", "quality_spread": 6.0, "p": 0.5, "r": 7, "seed": 4, "sizes": [1000],
        "layers": ["write_observations"],
    },
    "sweep": {
        "model": "btl", "quality_spread": 6.0, "sizes": [64],
        "experiment": {"p": 0.25, "alpha": 0.2, "trials": 80, "master_seed": 1},
        "layers": ["run_experiment"],
    },
}
LAYER_BUDGET_S = 1.0
LAYER_MIN_CALLS = 3
# fresh-interpreter launches, LAUNCHES of each per round; ``{obs}`` is
# an observations file of 50 items that the first checkout draws once
LAUNCHES = 7
LAUNCH_ARGS = {
    "import": ["-c", "import pairrank"],
    "help": ["-m", "pairrank", "--help"],
    "rank": ["-m", "pairrank", "rank", "--obs", "{obs}", "--k", "5"],
}


def time_layers(scratch: Path) -> dict:
    """Median milliseconds per call of each layer, by design and n.

    Runs inside the measured checkout's interpreter (``--layers``);
    input files go to the directory ``scratch``.
    """
    import numpy as np

    from pairrank import harness, metrics, model, sample, setfamily
    from pairrank.rank import copeland_topk, mle_refine, rank_centrality
    from pairrank.sample import draw_observations

    def instantiate_first(model_spec, n):
        model._build_memoized.cache_clear()
        return model.instantiate(model_spec, n)

    layers: dict = {}
    for design, spec in LAYER_DESIGNS.items():
        names = spec.get("layers", LAYERS)
        swept = [name for name in names if name in SWEEP_LAYERS]
        sizes = spec.get("sizes", LAYER_SIZES)
        for n in (*sizes, *(SWEEP_SIZES if swept else ())):
            timed = names if n in sizes else swept
            model_spec = model.ModelSpec(kind=spec["model"], quality_spread=spec["quality_spread"])
            matrix = model.instantiate(model_spec, n)
            calls = {
                "instantiate_first": lambda: instantiate_first(model_spec, n),
                "instantiate_repeat": lambda: model.instantiate(model_spec, n),
            }
            setups = {}  # layer -> an untimed call before each call, whose result it takes
            if "p" in spec:
                obs = draw_observations(matrix, spec["p"], spec["r"], spec["seed"])
                counted = draw_observations(matrix, spec["p"], spec["r"], spec["seed"])
                init = rank_centrality(obs) if "mle_refine" in timed else None
                truth = metrics.ground_truth(matrix, n // 4)
                family = setfamily.family_hamming(n, n // 4, 0)
                estimate = copeland_topk(obs, n // 4).items
                calls.update({
                    "draw_observations": lambda: draw_observations(
                        matrix, spec["p"], spec["r"], spec["seed"]
                    ),
                    "copeland_topk": lambda: copeland_topk(counted, n // 4),
                    "draw_copeland": lambda: copeland_topk(
                        draw_observations(matrix, spec["p"], spec["r"], spec["seed"]), n // 4
                    ),
                    "rank_centrality": lambda: rank_centrality(obs),
                    "mle_refine": lambda: mle_refine(obs, init),
                    "ground_truth": lambda: metrics.ground_truth(matrix, n // 4),
                    "evaluate": lambda: metrics.evaluate(estimate, truth, family),
                    "write_observations": lambda fresh: sample.write_observations_csv(
                        fresh, scratch / f"{design}-{n}.csv"
                    ),
                })
                setups["write_observations"] = lambda: draw_observations(
                    matrix, spec["p"], spec["r"], spec["seed"]
                )
            if "rows_per_item" in spec:
                rng = np.random.default_rng(spec["seed"])
                size = spec["rows_per_item"] * n
                a = rng.integers(n, size=size)
                b = (a + rng.integers(1, n, size=size)) % n
                winner = np.where(rng.random(size) < matrix.entries[a, b], a, b)
                items = [f"item{i}" for i in range(n)]
                csv_path = scratch / f"{design}-{n}.csv"
                lines = (f"{items[i]},{items[j]},{items[w]}\n" for i, j, w in zip(a, b, winner))
                csv_path.write_text("item_a,item_b,winner\n" + "".join(lines), encoding="utf-8")
                calls["ingest_csv"] = lambda: sample.read_comparisons(
                    csv_path, {item: i for i, item in enumerate(items)}
                )
            if "items" in spec:
                config = harness.ExperimentConfig(
                    model=model_spec, n=spec["items"], k=spec["items"] // 4, trials=n,
                    master_seed=spec["seed"], r=spec["r"], estimators=("copeland",),
                )
                result = harness.run_experiment(config)
                results_path = scratch / f"{design}-{n}.csv"
                calls["write_results_csv"] = lambda: harness.write_results_csv(result, results_path)
            if "experiment" in spec:
                config = harness.ExperimentConfig(
                    model=model_spec, n=n, k=n // 4, estimators=("copeland",), **spec["experiment"]
                )
                calls["run_experiment"] = lambda: harness.run_experiment(config)
            for name in timed:
                call, setup = calls[name], setups.get(name)
                times = []
                start = time.perf_counter()
                while len(times) < LAYER_MIN_CALLS or time.perf_counter() - start < LAYER_BUDGET_S:
                    args = () if setup is None else (setup(),)
                    t0 = time.perf_counter()
                    call(*args)
                    times.append(time.perf_counter() - t0)
                layers.setdefault(design, {}).setdefault(name, {})[str(n)] = (
                    statistics.median(times) * 1e3
                )
    return layers


def _run(cmd: list[str], checkout: Path, env: dict | None = None) -> list[str]:
    done = subprocess.run(
        cmd, cwd=checkout, env=env, capture_output=True, text=True, check=True
    )
    return done.stdout.strip().splitlines()


def _workload_run(checkout: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """One ``--trace 0`` benchmark run: (provenance, result)."""
    lines = _run(
        [sys.executable, "benchmark/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        checkout,
    )
    provenance = json.loads(lines[-2].removeprefix("# provenance "))
    return provenance, json.loads(lines[-1])


def _layer_run(checkout: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    return json.loads(_run([sys.executable, __file__, "--layers"], checkout, env)[-1])


def _write_launch_obs(checkout: Path, scratch: Path) -> Path:
    """Draw the observations file that the ``rank`` launch reads."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    matrix, obs = scratch / "launch-m.csv", scratch / "launch-obs.csv"
    _run([sys.executable, "-m", "pairrank", "gen-matrix", "--model", "btl", "--n", "50",
          "--out", str(matrix)], checkout, env)
    _run([sys.executable, "-m", "pairrank", "simulate", "--matrix", str(matrix), "--p", "1",
          "--r", "4", "--seed", "1", "--out", str(obs)], checkout, env)
    return obs


def _launch_run(checkout: Path, obs: Path) -> dict:
    """Median milliseconds of each launch in :data:`LAUNCH_ARGS`, over ``LAUNCHES`` runs."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    medians = {}
    for name, args in LAUNCH_ARGS.items():
        cmd = [sys.executable, *(arg.format(obs=obs) for arg in args)]
        times = []
        for _ in range(LAUNCHES):
            start = time.perf_counter()
            subprocess.run(cmd, cwd=checkout, env=env, stdout=subprocess.DEVNULL, check=True)
            times.append(time.perf_counter() - start)
        medians[name] = statistics.median(times) * 1e3
    return medians


def _run_seconds(checkout: Path) -> float:
    spec = json.loads((checkout / "BENCHMARK.json").read_text(encoding="utf-8"))
    return float(spec["run_seconds"])


def _dirty(checkout: Path) -> bool:
    status = _run(["git", "status", "--porcelain", "--untracked-files=no"], checkout)
    return bool(status)


def _run_spread(runs: list[dict]) -> dict:
    """Each metric's median, minimum and maximum over the runs of one workload and seed."""
    values = {m: [r["metrics"][m]["value"] for r in runs] for m in runs[0]["metrics"]}
    return {
        stat: {m: fn(v) for m, v in values.items()}
        for stat, fn in (("median", statistics.median), ("min", min), ("max", max))
    }


def bench(checkouts: list[Path], scratch: Path) -> list[dict]:
    seconds = [_run_seconds(checkout) for checkout in checkouts]
    records = [{"workloads": {}, "layers": [], "launches": []} for _ in checkouts]
    obs = _write_launch_obs(checkouts[0], scratch)
    for round_ in range(ROUNDS):
        order = list(enumerate(checkouts))
        if round_ % 2:
            order.reverse()
        for workload in WORKLOADS:
            for seed in SEEDS:
                for i, checkout in order:
                    provenance, result = _workload_run(checkout, workload, seed, seconds[i])
                    records[i]["provenance"] = provenance
                    runs = records[i]["workloads"].setdefault(workload, {}).setdefault(str(seed), [])
                    runs.append(result)
        for i, checkout in order:
            records[i]["layers"].append(_layer_run(checkout))
            records[i]["launches"].append(_launch_run(checkout, obs))
    files = []
    for checkout, record, run_seconds in zip(checkouts, records, seconds):
        provenance = record["provenance"]
        dirty = _dirty(checkout)
        files.append({
            "label": provenance["git_sha"][:7] + ("-dirty" if dirty else ""),
            "git_sha": provenance["git_sha"],
            "dirty": dirty,
            **{key: provenance[key] for key in ("python", "numpy", "scipy", "nproc")},
            "seeds": list(SEEDS),
            "seconds": run_seconds,
            "rounds": ROUNDS,
            "workloads": {
                w: {seed: {**_run_spread(runs), "runs": runs}
                    for seed, runs in by_seed.items()}
                for w, by_seed in record["workloads"].items()
            },
            "layer_designs": LAYER_DESIGNS,
            "layers_ms": {
                design: {
                    name: {n: statistics.median(r[design][name][n] for r in record["layers"])
                           for n in by_name[name]}
                    for name in by_name
                }
                for design, by_name in record["layers"][0].items()
            },
            "layer_runs_ms": record["layers"],
            "launch_args": LAUNCH_ARGS,
            "launch_ms": {
                name: statistics.median(r[name] for r in record["launches"]) for name in LAUNCH_ARGS
            },
            "launch_runs_ms": record["launches"],
        })
        # claim (a) of the paper as a number: counting time over baseline time
        files[-1]["copeland_over_spectral"] = {
            design: {
                n: layers["copeland_topk"][n]
                / (layers["rank_centrality"][n] + layers["mle_refine"][n])
                for n in layers["mle_refine"]
            }
            for design, layers in files[-1]["layers_ms"].items()
            if "copeland_topk" in layers and "mle_refine" in layers
        }
    return files


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkouts", nargs="*", type=Path)
    parser.add_argument("--out-dir", type=Path, default=Path(__file__).resolve().parent.parent)
    parser.add_argument("--layers", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.layers:
        with tempfile.TemporaryDirectory() as scratch:
            print(json.dumps(time_layers(Path(scratch))))
        return 0
    if not args.checkouts:
        parser.error("give at least one checkout")
    with tempfile.TemporaryDirectory() as scratch:
        records = bench([c.resolve() for c in args.checkouts], Path(scratch))
    for record in records:
        path = args.out_dir / f"BENCH_{record['label']}.json"
        path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
