"""Launch cost: no command that evaluates no special function loads scipy.

Each check runs in a fresh interpreter, because the test process itself
has scipy loaded.  ``pairrank._special`` is the one place that imports
``scipy.special``, on the first function lookup.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import pairrank
from pairrank import cli

from conftest import write_dataset

SRC = str(Path(pairrank.__file__).resolve().parents[1])

# Runs each argv through cli.main and prints, per step, the exit code and
# the scipy modules loaded so far (step 0 is the bare package import).
STEPS = """
import json, sys
import pairrank
from pairrank import cli

def scipy_modules():
    return sorted(name for name in sys.modules if name.split(".")[0] == "scipy")

print(json.dumps([0, scipy_modules()]))
for argv in json.loads(sys.argv[1]):
    print(json.dumps([cli.main(argv), scipy_modules()]))
"""


def launch(args, cwd):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, check=True
    )


def test_help_launch_imports_no_scipy(tmp_path):
    done = launch(["-X", "importtime", "-m", "pairrank", "--help"], tmp_path)
    imported = [line.split("|")[-1].strip() for line in done.stderr.splitlines() if "|" in line]
    assert "pairrank.cli" in imported
    assert not [name for name in imported if name.split(".")[0] == "scipy"]


def test_only_special_functions_load_scipy(tmp_path):
    matrix, obs = tmp_path / "m.csv", tmp_path / "obs.csv"
    btl_lazy, btl_eager = tmp_path / "btl-lazy.csv", tmp_path / "btl-eager.csv"
    config = tmp_path / "sst.cfg"
    config.write_text("model = sst_diagonal\nn = 8\nk = 2\nr = 3\n", encoding="utf-8")
    comparisons, truth = write_dataset(tmp_path, np.random.default_rng(7), records=120)
    # bench and eval-real run the spectral baseline, whose logistic is numpy's
    bench = ["bench", "--config", str(config)]
    eval_real = ["eval-real", "--obs", str(comparisons), "--truth", str(truth),
                 "--q-grid", "0.5,1", "--trials", "2"]
    steps = [
        ["gen-matrix", "--model", "sst_diagonal", "--n", "8", "--gap", "0.05", "--seed", "3",
         "--out", str(matrix)],
        ["simulate", "--matrix", str(matrix), "--p", "1", "--r", "3", "--seed", "4",
         "--out", str(obs)],
        ["rank", "--obs", str(obs), "--k", "2", "--out", str(tmp_path / "rank.json")],
        ["thresholds", "--matrix", str(matrix), "--k", "2", "--p", "1", "--r", "3",
         "--out", str(tmp_path / "thresholds.json")],
        [*bench, "--out", str(tmp_path / "bench-lazy.csv")],
        [*eval_real, "--out", str(tmp_path / "eval-lazy.csv")],
        ["gen-matrix", "--model", "btl", "--n", "8", "--out", str(btl_lazy)],
    ]
    done = launch(["-c", STEPS, json.dumps(steps)], tmp_path)
    results = [json.loads(line) for line in done.stdout.splitlines()]
    assert [code for code, _ in results] == [0] * 8
    *without, (_, after_btl) = results
    assert all(loaded == [] for _, loaded in without), without
    assert "scipy.special" in after_btl
    # a fresh interpreter's first lookup gives the bytes of a run in this process
    assert cli.main(["gen-matrix", "--model", "btl", "--n", "8", "--out", str(btl_eager)]) == 0
    assert btl_lazy.read_bytes() == btl_eager.read_bytes()
    for argv, name in ((bench, "bench"), (eval_real, "eval")):
        assert cli.main([*argv, "--out", str(tmp_path / f"{name}-eager.csv")]) == 0
        lazy, eager = (tmp_path / f"{name}-{mode}.csv" for mode in ("lazy", "eager"))
        assert lazy.read_bytes() == eager.read_bytes()
