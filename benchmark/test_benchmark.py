"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root:

    python3 -m pytest -q -p no:cacheprovider benchmark/test_benchmark.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402  (puts the checkout's src/ on sys.path)
import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from pairrank import rank, sample  # noqa: E402

WORKLOADS = tuple(workloads.WORKLOADS)


def _smoke(name, trace=False, seed=3):
    return run.run_workload(name, seed=seed, seconds=0.01, trace=trace, size="smoke")


@pytest.mark.parametrize("name", WORKLOADS)
def test_smoke_run_reports_every_end_to_end_metric(name):
    out = _smoke(name)
    result = out["result"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)
    for metric, entry in result["metrics"].items():
        assert entry["unit"] == run.END_TO_END_UNITS[metric]
        assert entry["value"] > 0, metric
    assert result["metrics"]["passed_frac"]["value"] == 1.0
    assert out["detail"]["provenance"]["workload"] == name


def test_same_seed_gives_same_accuracy():
    a, b = (_smoke("threshold-sweep")["result"]["metrics"] for _ in range(2))
    for metric in ("topk_exact_rate", "topk_overlap_mean"):
        assert a[metric]["value"] == b[metric]["value"]


def test_check_flags_planted_wrong_topk(monkeypatch):
    original = rank.copeland_topk

    def worst_k(obs, k):
        # the k items with the fewest wins: wrong whenever counts differ
        est = original(obs, obs.n)
        return rank.TopKEstimate(items=est.items[-k:], tie_broken=False)

    monkeypatch.setattr(rank, "copeland_topk", worst_k)
    out = _smoke("figure-suite")
    assert not out["result"]["correct"]
    assert out["result"]["metrics"]["passed_frac"]["value"] < 1.0
    assert any("copeland hamming" in p for ps in out["detail"]["problems"].values() for p in ps)


def test_check_flags_planted_likelihood_decrease(monkeypatch):
    def reversed_refine(obs, init, sweeps=20):
        init = np.asarray(init, dtype=np.float64)
        return init[::-1] / init.sum()

    monkeypatch.setattr(rank, "mle_refine", reversed_refine)
    out = _smoke("figure-suite")
    assert not out["result"]["correct"]
    assert any("log-likelihood" in p for ps in out["detail"]["problems"].values() for p in ps)


def test_oracles_on_hand_made_counts():
    wins = np.array([[0, 3, 3], [0, 0, 2], [0, 1, 0]])
    comparisons = wins + wins.T
    obs = sample.ObservationSet(n=3, r=3, p=None, comparisons=comparisons, wins=wins)
    tau = np.array([0.9, 0.5, 0.5])  # items 1 and 2 tie for second place
    assert checks.check_copeland(wins, tau, 1, 0) == []
    assert checks.check_copeland(wins, tau, 1, 2)
    assert checks.lenient_hamming([2], tau, 1) == 2
    assert checks.lenient_hamming([0, 2], tau, 2) == 0
    start = rank.rank_centrality(obs)
    good = rank.spectral_baseline(obs)
    assert checks.check_baseline(obs, tau, 1, 0, good, start, rank.btl_loglikelihood) == []
    worse = np.ones(3) / 3
    assert any(
        "log-likelihood" in p
        for p in checks.check_baseline(obs, tau, 1, 0, worse, start, rank.btl_loglikelihood)
    )
    assert checks.check_baseline(obs, tau, 1, 0, good * 2, start, rank.btl_loglikelihood)


@pytest.mark.parametrize("name", WORKLOADS)
def test_trace_self_times_add_up_to_traced_wall(name):
    out = _smoke(name, trace=True)
    metrics = out["result"]["metrics"]
    assert set(metrics) == set(spans.per_layer_metric_units())
    tracer = out["detail"]["tracer"]
    overhead = abs(metrics["trace.overhead_frac"]["value"])
    for unit, wall_s in zip(spans._units(tracer), out["detail"]["traced_unit_wall_s"]):
        covered_s = sum(spans.self_times_ns(unit).values()) / 1e9
        assert covered_s <= wall_s
        assert 1.0 - covered_s / wall_s <= overhead + 0.02


def test_uncalled_and_missing_layers_are_absent(monkeypatch):
    monkeypatch.setitem(spans.LAYER_STATS, "rank.no_such_stage", ("calls", "self_s"))
    out = _smoke("threshold-sweep", trace=True)
    layers = out["detail"]["layers"]
    assert layers["rank.no_such_stage"] == {"absent": "missing"}
    assert layers["rank.spectral_baseline"] == {"absent": "not called"}
    metrics = out["result"]["metrics"]
    assert metrics["rank.spectral_baseline.calls"]["value"] == 0
    assert metrics["trace.absent_layers"]["value"] == len(
        [name for name in layers["absent"] if name in spans.LAYER_STATS]
    )
    assert metrics["sample.draw_observations.calls"]["value"] > 0


def test_exits_without_result_when_program_is_absent(tmp_path):
    bench = Path(__file__).resolve().parent
    ignore = shutil.ignore_patterns("out", "_work", "__pycache__")
    shutil.copytree(bench, tmp_path / "benchmark", ignore=ignore)
    shutil.copy(bench.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", "eval-real", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_declares_every_reported_metric():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == spans.per_layer_metric_units()
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
