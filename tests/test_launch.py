"""Launch cost: what a fresh interpreter loads for each command.

``import pairrank`` loads no submodule, and parsing the command line
loads no numpy: ``--help`` and usage errors end before the command
handlers are imported.  No command that evaluates no special function
loads scipy; ``pairrank._special`` is the one place that imports
``scipy.special``, on the first function lookup.  Each check runs in a
fresh interpreter, because the test process itself has numpy and scipy
loaded.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

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


def launch(args, cwd, check=True):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, check=check
    )


def imported_modules(stderr):
    """Module names in ``-X importtime`` output, in import order."""
    return [line.split("|")[-1].strip() for line in stderr.splitlines() if "|" in line]


@pytest.mark.parametrize(
    "argv, code",
    [(["--help"], 0), (["bench", "--help"], 0), (["rank", "--k", "2", "--error-json"], 1)],
    ids=["help", "bench-help", "usage-error"],
)
def test_parse_only_launch_imports_no_numpy(tmp_path, argv, code):
    done = launch(["-X", "importtime", "-m", "pairrank", *argv], tmp_path, check=False)
    assert done.returncode == code, done.stderr
    imported = imported_modules(done.stderr)
    assert "pairrank.cli" in imported
    assert "pairrank.commands" not in imported
    assert not [name for name in imported if name.split(".")[0] in ("numpy", "scipy")]
    # besides the import times, stderr holds a usage error's one JSON line and nothing else
    rest = [line for line in done.stderr.splitlines() if not line.startswith("import time:")]
    assert [json.loads(line)["exit_code"] for line in rest] == ([code] if code else []), rest


def test_bare_import_loads_only_the_input_boundary(tmp_path):
    done = launch(["-X", "importtime", "-c", "import pairrank"], tmp_path)
    imported = imported_modules(done.stderr)
    assert {name for name in imported if name.split(".")[0] == "pairrank"} == {"pairrank"}
    assert not [name for name in imported if name.split(".")[0] in ("numpy", "scipy")]


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
        ["gen-matrix", "--model", "sst_diagonal", "--n", "8", "--gap", "0.05", "--model-seed", "3",
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
