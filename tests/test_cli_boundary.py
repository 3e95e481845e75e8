"""Property test of the CLI boundary: a bad number is exit 1 or 2, never 3.

Each example takes a valid command line for ``gen-matrix``, ``simulate``,
``thresholds`` or ``eval-real`` (8 items), then sets one to three of its
numeric flags to values drawn from :data:`VALUES`, as ``--flag=value``
or as two tokens.  A ``bench`` example instead writes a valid
configuration file with one to three of its numeric keys set to drawn
values.  :data:`FLAG_RANGES` states the range of every numeric flag and
key, written here apart from the casts of ``pairrank``; the upper end
of ``eval-real --k`` depends on the items read, so it is left out.  A
flag value outside its range must be a usage error (exit 1), and a key
value outside its range a data error (exit 2) that names ``path:line``
and the key of the first such line.  Any other value no flag accepts
must fail with exit 1 or 2.  Under ``--error-json`` a failure must print
exactly one JSON line on stderr and a success nothing there.
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

from pairrank import cli

from conftest import write_dataset

VALUES = ("nan", "inf", "-inf", "0", "-1", "1", "1e308", "abc")
# no numeric flag accepts these; 0, -1, 1 and 1e308 are valid for some
NEVER_VALID = frozenset({"nan", "inf", "-inf", "abc"})


def finite(text):
    """``float(text)``, which must be neither NaN nor infinite."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


def within(cast, lo, hi=math.inf, open_lo=False, open_hi=False):
    """A check that a flag value parses with ``cast`` and lies between ``lo`` and ``hi``,
    each end included unless ``open_lo`` or ``open_hi``."""

    def valid(text):
        try:
            value = cast(text)
        except ValueError:
            return False
        above = lo < value if open_lo else lo <= value
        below = value < hi if open_hi else value <= hi
        return above and below

    return valid


SEED = within(int, 0, 2**64 - 1)
PROBABILITY = within(finite, 0.0, 1.0, open_lo=True)
POSITIVE = within(finite, 0.0, open_lo=True)
# the model parameters, as bench configuration keys and (as --key-name) gen-matrix flags
MODEL_RANGES = {
    "quality_spread": POSITIVE,
    "outlier": within(int, 0),
    "gap": POSITIVE,
    "lam": within(finite, 0.5, 1.0, open_lo=True),
    "k": within(int, 1),
    "delta": within(finite, 0.0, 0.5, open_lo=True, open_hi=True),
    "delta0": POSITIVE,
    "swap_index": within(int, 0),
    "plant_index": within(int, 0),
    "ordering_seed": SEED,
    "model_seed": SEED,
}

# the values each flag (each key, for bench) accepts, on the 8-item matrix
# the commands read; a value inside its range may still fail together
# with the other settings
FLAG_RANGES = {
    "gen-matrix": {
        "--n": within(int, 2),
        **{f"--{key.replace('_', '-')}": valid for key, valid in MODEL_RANGES.items()},
    },
    "simulate": {"--p": PROBABILITY, "--r": within(int, 1), "--seed": SEED},
    "thresholds": {
        "--k": within(int, 1, 8),
        "--p": PROBABILITY,
        "--r": within(int, 1),
        "--alpha": POSITIVE,
    },
    # each drawn value is one number, so a --q-grid of one fraction
    "eval-real": {
        "--k": within(int, 1),
        "--q-grid": PROBABILITY,
        "--trials": within(int, 1),
        "--seed": SEED,
    },
    "bench": {
        "n": within(int, 2),
        "k": within(int, 1),
        "h": within(int, 0),
        "p": PROBABILITY,
        "alpha": POSITIVE,
        "r": within(int, 1),
        "trials": within(int, 1),
        "master_seed": SEED,
        **MODEL_RANGES,
    },
}

# the parameters each model kind needs, so that the base command line is valid
MODEL_PARAMS = {
    "btl": {},
    "thurstone": {},
    "btl_outlier": {},
    "btl_mixture": {"lam": "0.8"},
    "sst_diagonal": {"model_seed": "3"},
    "planted": {"k": "2", "delta": "0.1"},
    "adjacent_swap": {"delta0": "0.1"},
    "hamming_planted": {"k": "2", "delta0": "0.1"},
}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("boundary")
    matrix = root / "m.csv"
    assert cli.main(["gen-matrix", "--model", "btl", "--n", "8", "--out", str(matrix)]) == 0
    comparisons, truth = write_dataset(root, np.random.default_rng(7), records=120)
    return {"root": root, "matrix": matrix, "comparisons": comparisons, "truth": truth,
            "config": root / "bench.cfg"}


def base_command(draw, files):
    """A valid argv for one subcommand, and the numeric flags (keys, for bench) to draw."""
    out = str(files["root"] / "out")
    command = draw(st.sampled_from(["gen-matrix", "simulate", "thresholds", "eval-real", "bench"]))
    if command == "gen-matrix":
        kind = draw(st.sampled_from(sorted(MODEL_PARAMS)))
        argv = ["gen-matrix", "--model", kind, "--n", "8", "--out", out]
        for key, value in MODEL_PARAMS[kind].items():
            argv += [f"--{key.replace('_', '-')}", value]
        return argv, ("--quality", *FLAG_RANGES["gen-matrix"])
    if command == "simulate":
        return (["simulate", "--matrix", str(files["matrix"]), "--p", "0.5", "--r", "3",
                 "--seed", "1", "--out", out], ("--p", "--r", "--seed"))
    if command == "thresholds":
        # without --p the report reads neither --r nor --alpha
        design = ["--p", "0.5", "--r", "3"] if draw(st.booleans()) else []
        return (["thresholds", "--matrix", str(files["matrix"]), "--k", "2", *design,
                 "--out", out], tuple(FLAG_RANGES["thresholds"]))
    if command == "eval-real":
        return (["eval-real", "--obs", str(files["comparisons"]), "--truth", str(files["truth"]),
                 "--q-grid", "0.5,1", "--trials", "2", "--out", out],
                ("--k", "--q-grid", "--trials", "--seed"))
    return ["bench", "--config", str(files["config"]), "--out", out], tuple(FLAG_RANGES["bench"])


def write_config(draw, path, drawn):
    """Write a valid bench configuration, then the ``drawn`` key values over it.

    Returns the line of each key in the file.
    """
    kind = draw(st.sampled_from(sorted(MODEL_PARAMS)))
    budget = draw(st.sampled_from([{"r": "2"}, {"alpha": "4"}]))
    settings = {"model": kind, "n": "8", "k": "2", "trials": "2", **budget,
                **MODEL_PARAMS[kind], **drawn}
    path.write_text("".join(f"{key} = {value}\n" for key, value in settings.items()),
                    encoding="utf-8")
    return {key: line for line, key in enumerate(settings, start=1)}


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_bad_numbers_fail_as_one_json_line(files, data):
    argv, flags = base_command(data.draw, files)
    chosen = data.draw(st.lists(st.sampled_from(flags), min_size=1, max_size=3, unique=True))
    values = [data.draw(st.sampled_from(VALUES)) for _ in chosen]
    if argv[0] == "bench":
        line_of = write_config(data.draw, files["config"], dict(zip(chosen, values)))
    else:
        for flag, value in zip(chosen, values):
            # a later flag overrides the base value
            argv += [f"{flag}={value}"] if data.draw(st.booleans()) else [flag, value]
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["--error-json", *argv])
    lines = err.getvalue().splitlines()
    ranges = FLAG_RANGES[argv[0]]
    # --quality, a list of numbers, has no range here
    bad = [flag for flag, value in zip(chosen, values)
           if flag in ranges and not ranges[flag](value)]
    if bad and argv[0] == "bench":
        key = min(bad, key=line_of.get)
        assert code == 2, (key, lines)
        prefix = f"{files['config']}:{line_of[key]}: configuration key {key!r}: "
        assert json.loads(lines[0])["error"].startswith(prefix), (prefix, lines)
    elif bad:
        assert code == 1, (argv, lines)
    elif NEVER_VALID & set(values):
        assert code in (1, 2), (argv, lines)
    assert code in (0, 1, 2), (argv, lines)
    if code == 0:
        assert lines == [], argv
    else:
        assert len(lines) == 1, (argv, lines)
        assert json.loads(lines[0])["exit_code"] == code
