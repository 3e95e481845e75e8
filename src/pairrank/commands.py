"""The handlers of the ``pairrank`` subcommands, one per command.

:func:`pairrank.cli.main` imports this module once the arguments have
parsed, so numpy and the pairrank modules load only for a command that
runs.  Each handler takes the parsed arguments and returns the exit
code; a ``rank`` or ``thresholds`` ``--k`` outside the items read
raises :class:`pairrank.cli.UsageError`.
"""

from __future__ import annotations

import json

from . import _textio, analysis, harness, model, rank, sample, setfamily
from .cli import UsageError


def _cmd_gen_matrix(args) -> int:
    matrix = model.instantiate(model.spec_from_mapping(args.model, vars(args)), args.n)
    model.write_matrix_csv(matrix, args.out)
    return 0


def _cmd_simulate(args) -> int:
    matrix = model.read_matrix_csv(args.matrix)
    obs = sample.draw_observations(matrix, args.p, args.r, args.seed)
    sample.write_observations_csv(obs, args.out)
    return 0


def _emit(payload: dict, out_path) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    if out_path:
        with _textio.open_output(out_path) as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _cmd_rank(args) -> int:
    obs = sample.read_observations_csv(args.obs)
    if not 1 <= args.k <= obs.n:
        raise UsageError(f"--k must lie in [1, {obs.n}], got {args.k}")
    top = rank.copeland_topk(obs, args.k)
    _emit(
        {
            "n": obs.n,
            "k": args.k,
            "topk": list(top.items),
            "tie_broken": top.tie_broken,
            "ranking": list(rank.copeland_ranking(obs)),
        },
        args.out,
    )
    return 0


def _cmd_thresholds(args) -> int:
    matrix = model.read_matrix_csv(args.matrix)
    if not 1 <= args.k <= matrix.n:
        raise UsageError(f"--k must lie in [1, {matrix.n}], got {args.k}")
    family = setfamily.parse_family_spec(args.family, matrix.n, args.k)
    report = analysis.separation_report(matrix, family, p=args.p, r=args.r, alpha=args.alpha)
    _emit(report.to_dict(), args.out)
    return 0


def _cmd_bench(args) -> int:
    cfg = harness.load_config(args.config)
    result = harness.run_experiment(cfg)
    harness.write_results_csv(result, args.out)
    if args.summary:
        _emit(result.summary, args.summary)
    return 0


def _cmd_eval_real(args) -> int:
    result = harness.run_realdata(
        args.obs, args.truth, k=args.k, q_grid=args.q_grid, trials=args.trials, seed=args.seed
    )
    harness.write_realdata_csv(result, args.out)
    if args.summary:
        _emit(result.summary, args.summary)
    return 0


COMMANDS = {
    "gen-matrix": _cmd_gen_matrix,
    "simulate": _cmd_simulate,
    "rank": _cmd_rank,
    "thresholds": _cmd_thresholds,
    "bench": _cmd_bench,
    "eval-real": _cmd_eval_real,
}
