"""Command-line interface.

Subcommands: ``gen-matrix`` (model spec to matrix CSV), ``simulate``
(matrix to observations CSV), ``rank`` (observations to top-k /
ranking JSON), ``thresholds`` (separation report JSON for the family
``--family``, or else ``hamming:h=H``), ``bench`` (experiment config
to results CSV + summary JSON), and ``eval-real`` (subsampling
evaluation of an ingested dataset).  ``gen-matrix`` and ``bench`` build
their model through one builder, so a missing model parameter is the
same data error under both.

JSON output is strict (RFC 8259): a separation that is infinite
because the family allows every set is written as ``null``.

Exit codes: 0 success, 1 usage error, 2 data error, 3 runtime failure
(including any unexpected exception, whose traceback goes to stderr
unless ``--error-json`` is set).  ``--error-json``, before or after the
subcommand, switches error reporting to machine-readable JSON on stderr.
Every float flag, config value and family ``eps`` must be finite: a bad
flag is a usage error, a bad config key or family spec a data error.
A number outside its flag's range is a usage error that names the
flag: ``simulate`` checks ``--p``, ``--r`` and ``--seed`` before it
reads the matrix (an ``--r`` of ``2**63`` or more stays a data error),
``thresholds`` checks ``--p``, ``--r``, ``--alpha`` and ``--h`` even
when the report would not read them, and ``thresholds`` and ``rank``
check ``--k`` against the items they read.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback

from ._textio import CONFIG_KEYS, MODEL_KINDS, finite_float


class UsageError(Exception):
    """A flag value out of its range: exit code 1, like an argparse error."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage problems, not argparse's 2
        raise UsageError(f"{self.prog}: {message}")


def float_list(text: str) -> tuple[float, ...]:
    """Comma-separated finite floats (the type of list flags); empty fields are skipped."""
    return tuple(finite_float(x) for x in text.split(",") if x.strip())


def _build_parser() -> _Parser:
    # every parser takes --error-json; SUPPRESS keeps a subcommand from resetting it
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--error-json",
        action="store_true",
        default=argparse.SUPPRESS,
        help="report errors as JSON on stderr",
    )
    parser = _Parser(prog="pairrank", description=__doc__, parents=[common])
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-matrix", parents=[common], help="generate a comparison matrix CSV")
    gen.add_argument("--model", required=True, choices=[k for k in MODEL_KINDS if k != "explicit"])
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--out", required=True)
    gen.add_argument(
        "--quality", type=float_list, help="comma-separated quality values (parametric models)"
    )
    gen.add_argument("--quality-spread", type=finite_float)
    gen.add_argument("--lam", type=finite_float, help="mixture weight in (1/2, 1]")
    gen.add_argument("--gap", type=finite_float, help="diagonal increment bound (sst_diagonal)")
    gen.add_argument("--delta", type=finite_float, help="planted gap")
    gen.add_argument("--delta0", type=finite_float, help="adjacent-swap / top-block gap")
    gen.add_argument("--k", type=int, help="planted / top-block size")
    gen.add_argument("--outlier", type=int, help="outlier item index")
    gen.add_argument("--swap-index", type=int)
    gen.add_argument("--plant-index", type=int)
    gen.add_argument("--ordering-seed", type=int, help="shuffle seed for hamming_planted ordering")
    gen.add_argument("--seed", type=int, help="model seed (sst_diagonal)")

    sim = sub.add_parser("simulate", parents=[common], help="draw observations from a matrix")
    sim.add_argument("--matrix", required=True)
    sim.add_argument("--p", type=finite_float, required=True)
    sim.add_argument("--r", type=int, required=True)
    sim.add_argument("--seed", type=int, required=True)
    sim.add_argument("--out", required=True)

    rk = sub.add_parser("rank", parents=[common], help="rank items from observations")
    rk.add_argument("--obs", required=True)
    rk.add_argument("--k", type=int, required=True)
    rk.add_argument("--out", help="write JSON here instead of stdout")

    th = sub.add_parser("thresholds", parents=[common], help="separation report for a matrix")
    th.add_argument("--matrix", required=True)
    th.add_argument("--k", type=int, required=True)
    th.add_argument("--h", type=int, default=0, help="Hamming tolerance (family hamming:h=H)")
    th.add_argument(
        "--family",
        help="requirement spec such as exact, hamming:h=1, topband:eps=0.5, mult:eps=0.5, "
        "add:eps=2, ranksum:eps=0.5 or explicit:@sets.csv (overrides --h)",
    )
    th.add_argument("--p", type=finite_float)
    th.add_argument("--r", type=int)
    th.add_argument("--alpha", type=finite_float, default=8.0, help="target threshold constant")
    th.add_argument("--out", help="write JSON here instead of stdout")

    be = sub.add_parser("bench", parents=[common], help="run a benchmark experiment")
    be.add_argument("--config", required=True)
    be.add_argument("--out", required=True, help="results CSV path")
    be.add_argument("--summary", help="summary JSON path")
    for key, cast in CONFIG_KEYS.items():
        if key != "entries_path":  # only the config file names an explicit model's matrix
            be.add_argument(f"--{key.replace('_', '-')}", type=cast, help=f"override config key '{key}'")

    ev = sub.add_parser(
        "eval-real", parents=[common], help="subsampling evaluation on ingested comparisons"
    )
    ev.add_argument("--obs", required=True, help="comparisons CSV (item_a,item_b,winner)")
    ev.add_argument("--truth", required=True, help="item ids in rank order, one per line")
    ev.add_argument("--k", type=int)
    ev.add_argument("--q-grid", type=float_list, default="0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1.0")
    ev.add_argument("--trials", type=int, default=100)
    ev.add_argument("--seed", type=int, default=0)
    ev.add_argument("--out", required=True, help="per-trial results CSV path")
    ev.add_argument("--summary", help="summary JSON path")
    return parser


def _report_error(message: str, category: str, code: int, as_json: bool) -> None:
    if as_json:
        print(
            json.dumps({"error": message, "category": category, "exit_code": code}),
            file=sys.stderr,
        )
    else:
        print(f"pairrank: error: {message}", file=sys.stderr)


def main(argv=None) -> int:
    """Run one command and return its exit code; every error is reported on stderr.

    This module imports the standard library and :mod:`pairrank._textio`
    only, and ``main`` imports the command handlers
    (:mod:`pairrank.commands`, and through them numpy and the modules a
    command runs) only after ``parse_args``.  So ``--help``,
    ``<command> --help`` and usage errors, which end inside
    ``parse_args``, never load numpy.  In a process that calls ``main``
    again the import is a ``sys.modules`` lookup.
    """
    as_json = "--error-json" in (argv if argv is not None else sys.argv[1:])
    try:
        args = _build_parser().parse_args(argv)
        as_json = getattr(args, "error_json", False)
        from . import commands

        return commands.COMMANDS[args.command](args)
    except UsageError as exc:
        message, category, code = str(exc), "usage", 1
    except (ValueError, OSError, KeyError) as exc:
        message, category, code = str(exc), "data", 2
    except RuntimeError as exc:
        message, category, code = str(exc), "runtime", 3
    except Exception as exc:  # the last boundary: no input ends in a bare traceback
        if not as_json:
            traceback.print_exc()
        message, category, code = f"{type(exc).__name__}: {exc}", "runtime", 3
    _report_error(message, category, code, as_json)
    return code


def entry() -> None:
    sys.exit(main(sys.argv[1:]))
