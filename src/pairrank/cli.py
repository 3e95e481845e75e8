"""Command-line interface.

Subcommands: ``gen-matrix`` (model spec to matrix CSV), ``simulate``
(matrix to observations CSV), ``rank`` (observations to top-k /
ranking JSON), ``thresholds`` (separation report JSON for the
requirement ``--family``, by default ``exact``), ``bench`` (every
setting read from the ``--config`` file, to results CSV + summary
JSON), and ``eval-real`` (subsampling evaluation of an ingested dataset).

JSON output is strict (RFC 8259): a separation that is infinite
because the family allows every set is written as ``null``.

Exit codes: 0 success, 1 usage error, 2 data error, 3 runtime failure
(including any unexpected exception, whose traceback goes to stderr
unless ``--error-json`` is set).  ``--error-json``, before or after the
subcommand, switches error reporting to machine-readable JSON on stderr.
Every flag and configuration key takes its type and range from one cast
in :mod:`pairrank._textio`: a bad flag is a usage error naming the flag,
a bad configuration value a data error naming ``path:line`` and the
key.  ``thresholds`` and ``rank`` check ``--k`` against the items read;
``eval-real`` counts them only as it runs, so a larger ``--k`` is a data error.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback

from . import _textio


class UsageError(Exception):
    """A flag value out of its range: exit code 1, like an argparse error."""


class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs):  # each flag under its full name only
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):  # exit 1 on usage problems, not argparse's 2
        raise UsageError(f"{self.prog}: {message}")


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
    kinds = [kind for kind in _textio.MODEL_KINDS if kind != "explicit"]
    gen.add_argument("--model", required=True, choices=kinds)
    gen.add_argument("--n", type=_textio.items, required=True)
    gen.add_argument("--out", required=True)
    gen.add_argument("--quality", dest="w", type=_textio.floats, metavar="Q1,Q2,...")
    for key, cast in _textio.MODEL_KEYS.items():
        if key != "entries_path":  # only a configuration file names a matrix file
            gen.add_argument(f"--{key.replace('_', '-')}", type=cast, help="model parameter")

    sim = sub.add_parser("simulate", parents=[common], help="draw observations from a matrix")
    sim.add_argument("--matrix", required=True)
    sim.add_argument("--p", type=_textio.probability, required=True)
    sim.add_argument("--r", type=_textio.count, required=True)
    sim.add_argument("--seed", type=_textio.seed, required=True)
    sim.add_argument("--out", required=True)

    rk = sub.add_parser("rank", parents=[common], help="rank items from observations")
    rk.add_argument("--obs", required=True)
    rk.add_argument("--k", type=int, required=True)
    rk.add_argument("--out", help="write JSON here instead of stdout")

    th = sub.add_parser("thresholds", parents=[common], help="separation report for a matrix")
    th.add_argument("--matrix", required=True)
    th.add_argument("--k", type=int, required=True)
    th.add_argument(
        "--family",
        default="exact",
        help="requirement spec such as exact, hamming:h=1, topband:eps=0.5, mult:eps=0.5, "
        "add:eps=2, ranksum:eps=0.5 or explicit:@sets.csv",
    )
    th.add_argument("--p", type=_textio.probability)
    th.add_argument("--r", type=_textio.count)
    th.add_argument("--alpha", type=_textio.positive, default=8.0, help="target threshold constant")
    th.add_argument("--out", help="write JSON here instead of stdout")

    be = sub.add_parser("bench", parents=[common], help="run a benchmark experiment")
    be.add_argument("--config", required=True)
    be.add_argument("--out", required=True, help="results CSV path")
    be.add_argument("--summary", help="summary JSON path")

    ev = sub.add_parser(
        "eval-real", parents=[common], help="subsampling evaluation on ingested comparisons"
    )
    ev.add_argument("--obs", required=True, help="comparisons CSV (item_a,item_b,winner)")
    ev.add_argument("--truth", required=True, help="item ids in rank order, one per line")
    ev.add_argument("--k", type=_textio.count)
    ev.add_argument(
        "--q-grid", type=_textio.fractions, default="0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1.0"
    )
    ev.add_argument("--trials", type=_textio.count, default=100)
    ev.add_argument("--seed", type=_textio.seed, default=0)
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

    ``import pairrank`` loads no submodule, and this module imports only
    :mod:`pairrank._textio` of the package.  The command handlers
    (:mod:`pairrank.commands`, and through them numpy) load only after
    ``parse_args``, so ``--help`` and usage errors, which end inside it,
    never load numpy.
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
