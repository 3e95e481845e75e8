"""The handlers of the ``pairrank`` subcommands, one per command.

:func:`pairrank.cli.main` imports this module once the arguments have
parsed, so numpy and the pairrank modules load only for a command that
runs.  Each handler takes the parsed arguments and returns the exit
code; a bad flag value raises :class:`pairrank.cli.UsageError`.
"""

from __future__ import annotations

import json

from . import analysis, harness, model, rank, sample, setfamily
from .cli import UsageError


def _cmd_gen_matrix(args) -> int:
    values = dict(vars(args), model_seed=args.seed, w=args.quality)
    matrix = model.instantiate(model.spec_from_mapping(args.model, args.n, values), args.n)
    model.write_matrix_csv(matrix, args.out)
    return 0


def _cmd_simulate(args) -> int:
    # checked before the matrix is read; r >= 2**63 stays the sampler's data error
    if not 0.0 < args.p <= 1.0:
        raise UsageError(f"--p must lie in (0, 1], got {args.p:g}")
    if args.r < 1:
        raise UsageError(f"--r must be at least 1, got {args.r}")
    if not 0 <= args.seed < 2**64:
        raise UsageError(f"--seed must lie in [0, 2**64 - 1], got {args.seed}")
    matrix = model.read_matrix_csv(args.matrix)
    obs = sample.draw_observations(matrix, args.p, args.r, args.seed)
    sample.write_observations_csv(obs, args.out)
    return 0


def _emit(payload: dict, out_path) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
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
    # checked whatever else is given: the report reads --r and --alpha only with --p
    if args.p is not None and not 0.0 < args.p <= 1.0:
        raise UsageError(f"--p must lie in (0, 1], got {args.p:g}")
    if args.r is not None and args.r < 1:
        raise UsageError(f"--r must be at least 1, got {args.r}")
    if not args.alpha > 0.0:
        raise UsageError(f"--alpha must be positive, got {args.alpha:g}")
    if args.h < 0:
        raise UsageError(f"--h must be nonnegative, got {args.h}")
    matrix = model.read_matrix_csv(args.matrix)
    if not 1 <= args.k <= matrix.n:
        raise UsageError(f"--k must lie in [1, {matrix.n}], got {args.k}")
    if args.family:
        family = setfamily.parse_family_spec(args.family, matrix.n, args.k)
    else:
        family = setfamily.family_hamming(matrix.n, args.k, args.h)
    report = analysis.separation_report(matrix, family, p=args.p, r=args.r, alpha=args.alpha)
    _emit(report.to_dict(), args.out)
    return 0


def _cmd_bench(args) -> int:
    overrides = {k: v for k, v in vars(args).items() if k in harness._CONFIG_KEYS and v is not None}
    cfg = harness.load_config(args.config, overrides)
    result = harness.run_experiment(cfg)
    harness.write_results_csv(result, args.out)
    if args.summary:
        _emit(result.summary, args.summary)
    return 0


def _cmd_eval_real(args) -> int:
    if not args.q_grid:
        raise UsageError("--q-grid must list at least one fraction")
    for q in args.q_grid:
        if not 0.0 < q <= 1.0:
            raise UsageError(f"--q-grid fractions must lie in (0, 1], got {q:g}")
    result = harness.run_realdata(
        args.obs,
        args.truth,
        k=args.k,
        q_grid=args.q_grid,
        trials=args.trials,
        seed=args.seed,
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
