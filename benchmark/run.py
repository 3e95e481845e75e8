"""Benchmark runner for ``pairrank``.

Usage, from the root of a checkout:

    python3 benchmark/run.py --workload figure-suite --seed 1 --seconds 24 --trace 0

The run builds its inputs from ``--seed``, runs the workload's unit of
program work once untimed (warm-up, and the outputs that are checked),
then repeats it for ``--seconds`` seconds, one process with
``threads=1``.  It checks the outputs against independent oracles and
prints, as the last line of standard output, one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are end to end; with ``--trace 1`` the window
is split between an untraced and a traced half and the metrics are per
layer.  The line before it is a provenance record, and the whole record
(plus, when traced, the spans) is written under ``benchmark/out/``.

The program is imported from ``src/`` of the same checkout and nowhere
else; without it the run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
from scipy.special import expit, log_expit

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
WORK_DIR = BENCH_DIR / "_work"
OUT_DIR = BENCH_DIR / "out"

# Seeds 1-10 were used while this benchmark was written and tuned; a
# later performance claim should also be re-checked on this one.
HELD_OUT_SEED = 4099

SETUP_LAUNCHES = 7
MIN_UNITS = 3

# The machines this runs on are shared: their speed drifts by 20-40%
# over minutes, which no window length averages out.  So a fixed
# reference loop written in the benchmark (``reference_loop_s``) runs
# between units, and reported times are rescaled to a machine where it
# takes REFERENCE_NOMINAL_S (see ``scaled_median``).  The raw times are
# kept in the run record.
REFERENCE_NOMINAL_S = 0.25

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

END_TO_END_UNITS = {
    "wall_s": "s",
    "evals_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "passed_frac": "frac",
    "topk_exact_rate": "frac",
    "topk_overlap_mean": "frac",
}


def _git_sha() -> str:
    """HEAD of the checkout, read from ``.git`` without starting git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(workload: str, seed: int, params: dict) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "held_out_seed": seed == HELD_OUT_SEED,
        "params": params,
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "threads": 1,
    }


def measure_setup_s(launches: int = SETUP_LAUNCHES) -> list[float]:
    """Fresh-interpreter launches of ``pairrank --help``: import plus parser."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    times = []
    for _ in range(launches):
        start = time.perf_counter()
        # no timeout: with one, the wait polls the child every 50 ms and
        # the launch times come out in 50 ms steps
        subprocess.run(
            [sys.executable, "-m", "pairrank", "--help"],
            cwd=ROOT, env=env, stdout=subprocess.DEVNULL, check=True,
        )
        times.append(time.perf_counter() - start)
    return times


def reference_loop_s() -> float:
    """Wall time of the fixed reference loop (the machine-speed probe).

    Three parts, one per kind of program hot path: numpy RNG draws
    inside a Python loop (``draw_observations``), row and strided column
    writes into a count matrix larger than the core's cache, and logistic
    functions on 100-element vectors (``mle_refine``).
    """
    start = time.perf_counter()
    rng = np.random.default_rng(12345)
    p = np.linspace(0.05, 0.95, 256)
    acc = 0
    for _ in range(1500):
        draws = rng.binomial(40, p)
        acc += int(draws.sum()) + sum(int(c) & 7 for c in draws[:64])
    counts = np.zeros((512, 512), dtype=np.int64)
    for rep in range(40):
        for i in range(511):
            counts[i + 1 :, i] = i
            counts[i, i + 1 :] = rep
    w = np.linspace(-3.0, 3.0, 100)
    c = np.full(100, 7.0)
    for i in range(7000):
        s = expit(w[i % 100] - w)
        acc += float((c * s) @ (1.0 - s)) + float(c @ log_expit(w - w[i % 100]))
    return time.perf_counter() - start


def timed_units(workload, state, seconds: float, expected, tracer=None):
    """Repeat the unit for ``seconds`` (at least ``MIN_UNITS`` times).

    The reference loop runs before the first unit and after every unit,
    so each unit is bracketed by two probes.  Returns the unit wall
    times, the probe times, and the number of units whose outputs
    differed from ``expected``.
    """
    times, probes, mismatched = [], [reference_loop_s()], 0
    deadline = time.perf_counter() + seconds
    while len(times) < MIN_UNITS or time.perf_counter() < deadline:
        gc.collect()
        if tracer is not None:
            tracer.mark_unit()
        start = time.perf_counter()
        raw = workload.run(state)
        times.append(time.perf_counter() - start)
        probes.append(reference_loop_s())
        mismatched += workload.fingerprint(state, raw) != expected
    return times, probes, mismatched


def scaled_median(times: list[float], probes: list[float]) -> float:
    """Median unit time, each rescaled by the probes that bracket it.

    A unit's time is multiplied by ``REFERENCE_NOMINAL_S`` over the mean
    of the probe before and the probe after it: seconds on a machine
    where the reference loop takes ``REFERENCE_NOMINAL_S``.
    """
    return statistics.median(
        t * 2 * REFERENCE_NOMINAL_S / (before + after)
        for t, before, after in zip(times, probes, probes[1:])
    )


def run_workload(name: str, seed: int, seconds: float, trace: bool, size: str = "full") -> dict:
    """Run one workload and return the result line plus the run's details."""
    import spans
    import workloads

    workload = workloads.WORKLOADS[name]
    workdir = WORK_DIR / f"{name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        state = workload.prepare(seed, workdir, size)
        if workload.captures_matrices:
            with workloads.capture_matrices(state.captured):
                raw = workload.run(state)
        else:
            raw = workload.run(state)
        expected = workload.fingerprint(state, raw)
        evaluations = workload.evaluations(state, raw)
        problems = workload.check(state, raw)

        window = seconds / 2 if trace else seconds
        times, probes, mismatched = timed_units(workload, state, window, expected)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        wall_s = scaled_median(times, probes)
        units = 1 + len(times)
        detail: dict = {"unit_wall_s": times, "reference_s": probes}

        if trace:
            with spans.Tracer() as tracer:
                traced_times, traced_probes, traced_mismatched = timed_units(
                    workload, state, window, expected, tracer
                )
            mismatched += traced_mismatched
            units += len(traced_times)
            metrics, layers = spans.summarize(
                tracer, scaled_median(traced_times, traced_probes), wall_s
            )
            detail.update(
                traced_unit_wall_s=traced_times, traced_reference_s=traced_probes, layers=layers
            )
            OUT_DIR.mkdir(exist_ok=True)
            tracer.write_jsonl(OUT_DIR / f"{name}-seed{seed}-spans.jsonl")
            detail["tracer"] = tracer
        else:
            setup = measure_setup_s()
            # bracketed like a unit: the last unit's probe and one after the launches
            setup_scale = 2 * REFERENCE_NOMINAL_S / (probes[-1] + reference_loop_s())
            n = len(evaluations)
            failed = failed_count(evaluations, problems, units, mismatched)
            detail["setup_launch_s"] = setup
            metrics = {
                "wall_s": wall_s,
                "evals_per_s": n / wall_s,
                "setup_s": statistics.median(setup) * setup_scale,
                "peak_rss_mb": peak_rss_mb,
                "passed_frac": 1.0 - failed / (n * units),
                "topk_exact_rate": sum(e.exact for e in evaluations) / n,
                "topk_overlap_mean": sum(1 - e.hamming / (2 * e.k) for e in evaluations) / n,
            }
            metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(evaluations) * units
    failed = failed_count(evaluations, problems, units, mismatched)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    detail.update(
        provenance=provenance(name, seed, state.params),
        summary=workloads.summarize_evaluations(evaluations),
        problems={str(i): p for i, p in sorted(problems.items())},
        nondeterministic_units=mismatched,
    )
    return {"result": result, "detail": detail}


def failed_count(evaluations, problems: dict, units: int, mismatched: int) -> int:
    """Evaluations that raised or failed the output check, over all units.

    Every unit repeats the checked one, so its failures count once per
    unit; a unit whose outputs differed from the checked one fails whole.
    """
    bad = {i for i, ev in enumerate(evaluations) if ev.error is not None} | set(problems)
    return len(bad) * (units - mismatched) + len(evaluations) * mismatched


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "pairrank" / "__init__.py").is_file():
        print(f"benchmark: no pairrank sources under {SRC}", file=sys.stderr)
        return 2
    import pairrank

    if Path(pairrank.__file__).resolve().parent != SRC / "pairrank":
        print(f"benchmark: pairrank imported from {pairrank.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("benchmark: --seconds must be positive", file=sys.stderr)
        return 2
    run = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    detail = dict(run["detail"], result=run["result"])
    detail.pop("tracer", None)
    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(detail, indent=1, default=str) + "\n", encoding="utf-8")
    print("# provenance " + json.dumps(detail["provenance"], sort_keys=True))
    print(json.dumps(run["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
