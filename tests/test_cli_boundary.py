"""Property test of the CLI boundary: a bad number is exit 1 or 2, never 3.

Each example takes a valid command line for ``gen-matrix``, ``simulate``,
``thresholds``, ``eval-real`` or ``bench`` (8 items), then sets one to
three of its numeric flags to values drawn from :data:`VALUES`, as
``--flag=value`` or as two tokens.  A value no flag accepts, or one
outside its flag's range in :data:`FLAG_RANGES`, must fail.  Under
``--error-json`` a failure must print exactly one JSON line on stderr
and a success nothing there.
pytest turns every warning into an error, so a numpy warning that would
add a stray stderr line fails an example as exit 3.
"""

import contextlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pairrank import cli, harness

from conftest import write_dataset

VALUES = ("nan", "inf", "-inf", "0", "-1", "1e308", "abc")
# no numeric flag accepts these; 0, -1 and 1e308 are valid for some
NEVER_VALID = frozenset({"nan", "inf", "-inf", "abc"})


def within(cast, lo, hi=math.inf, open_lo=False):
    """A check that a flag value parses with ``cast`` and lies in ``[lo, hi]``
    (``(lo, hi]`` when ``open_lo``)."""

    def valid(text):
        try:
            value = cast(text)
        except ValueError:
            return False
        return (lo < value if open_lo else lo <= value) and value <= hi

    return valid


# the values each flag accepts, on the 8-item matrix the commands read; a
# value inside its range may still fail together with the other flags
FLAG_RANGES = {
    "simulate": {
        "--p": within(float, 0.0, 1.0, open_lo=True),
        "--r": within(int, 1),
        "--seed": within(int, 0, 2**64 - 1),
    },
    "thresholds": {
        "--k": within(int, 1, 8),
        "--h": within(int, 0, 7),
        "--p": within(float, 0.0, 1.0, open_lo=True),
        "--r": within(int, 1),
        "--alpha": within(float, 0.0, open_lo=True),
    },
}

# the parameters each model kind needs, so that the base command line is valid
MODEL_PARAMS = {
    "btl": {},
    "thurstone": {},
    "btl_outlier": {},
    "btl_mixture": {"lam": "0.8"},
    "sst_diagonal": {"seed": "3"},
    "planted": {"k": "2", "delta": "0.1"},
    "adjacent_swap": {"delta0": "0.1"},
    "hamming_planted": {"k": "2", "delta0": "0.1"},
}

GEN_FLAGS = ("--n", "--quality", "--quality-spread", "--lam", "--gap", "--delta", "--delta0",
             "--k", "--outlier", "--swap-index", "--plant-index", "--ordering-seed", "--seed")
BENCH_FLAGS = tuple(
    f"--{key.replace('_', '-')}" for key, cast in harness._CONFIG_KEYS.items() if cast is not str
)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("boundary")
    matrix = root / "m.csv"
    assert cli.main(["gen-matrix", "--model", "btl", "--n", "8", "--out", str(matrix)]) == 0
    comparisons, truth = write_dataset(root, np.random.default_rng(7), records=120)
    config = root / "bench.cfg"
    config.write_text("model = btl\nn = 8\nk = 2\ntrials = 2\n", encoding="utf-8")
    return {"root": root, "matrix": matrix, "comparisons": comparisons, "truth": truth,
            "config": config}


def base_command(draw, files):
    """A valid argv for one subcommand, and the numeric flags it may override."""
    out = str(files["root"] / "out")
    command = draw(st.sampled_from(["gen-matrix", "simulate", "thresholds", "eval-real", "bench"]))
    if command == "gen-matrix":
        kind = draw(st.sampled_from(sorted(MODEL_PARAMS)))
        argv = ["gen-matrix", "--model", kind, "--n", "8", "--out", out]
        for key, value in MODEL_PARAMS[kind].items():
            argv += [f"--{key}", value]
        return argv, GEN_FLAGS
    if command == "simulate":
        return (["simulate", "--matrix", str(files["matrix"]), "--p", "0.5", "--r", "3",
                 "--seed", "1", "--out", out], ("--p", "--r", "--seed"))
    if command == "thresholds":
        # without --p the report reads neither --r nor --alpha
        design = ["--p", "0.5", "--r", "3"] if draw(st.booleans()) else []
        return (["thresholds", "--matrix", str(files["matrix"]), "--k", "2", *design,
                 "--out", out], ("--k", "--h", "--p", "--r", "--alpha"))
    if command == "eval-real":
        return (["eval-real", "--obs", str(files["comparisons"]), "--truth", str(files["truth"]),
                 "--q-grid", "0.5,1", "--trials", "2", "--out", out],
                ("--k", "--q-grid", "--trials", "--seed"))
    kind = draw(st.sampled_from(sorted(MODEL_PARAMS)))
    argv = ["bench", "--config", str(files["config"]), "--out", out, "--model", kind]
    argv += draw(st.sampled_from([["--r", "2"], ["--alpha", "4"]]))
    for key, value in MODEL_PARAMS[kind].items():
        argv += ["--model-seed" if key == "seed" else f"--{key}", value]
    return argv, BENCH_FLAGS


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_bad_numbers_fail_as_one_json_line(files, data):
    argv, flags = base_command(data.draw, files)
    chosen = data.draw(st.lists(st.sampled_from(flags), min_size=1, max_size=3, unique=True))
    values = [data.draw(st.sampled_from(VALUES)) for _ in chosen]
    for flag, value in zip(chosen, values):
        # a later flag overrides the base value
        argv += [f"{flag}={value}"] if data.draw(st.booleans()) else [flag, value]
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["--error-json", *argv])
    lines = err.getvalue().splitlines()
    ranges = FLAG_RANGES.get(argv[0], {})
    if NEVER_VALID & set(values) or any(
        flag in ranges and not ranges[flag](value) for flag, value in zip(chosen, values)
    ):
        assert code in (1, 2), (argv, lines)
    assert code in (0, 1, 2), (argv, lines)
    if code == 0:
        assert lines == [], argv
    else:
        assert len(lines) == 1, (argv, lines)
        assert json.loads(lines[0])["exit_code"] == code
