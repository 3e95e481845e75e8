"""Reproducible benchmark harness.

An experiment fixes a comparison model, a recovery requirement, and a
sampling design, then repeats: draw observations, run each estimator,
and score it under the exact, Hamming, and allowed-set criteria.  The
repetition count ``r`` is either given explicitly or derived from a
target threshold constant ``alpha`` by inverting the Hamming-``h``
separation of the instantiated matrix.

Every trial of an experiment draws fresh observations from one
comparison matrix.  :func:`pairrank.model.instantiate` memoizes the last
matrix it built, so consecutive experiments over the same model and
``n`` (a threshold sweep over ``alpha``) share one build.  Every random
quantity derives from the master seed through stable per-stage tags, so
results are bit-identical across runs.  Trials are scored one after
another in the calling thread: a whole trial holds the interpreter lock,
and a thread pool over trials made runs slower.  The trials' draws share
one dict of sets drawn ahead, so the sampler can draw several together
(see :mod:`pairrank.sample`); the output does not depend on it.
A draw builds its ``n x n`` count arrays only when an estimator
reads them: Copeland counts each item's wins from the drawn pairs, so a
Copeland-only experiment builds none, and the spectral baseline's
timing includes the build.  Wall-clock timings are measured around the
estimator calls only and reported through the summary, never in the
results table, which is fully deterministic.

``eval-real`` (:func:`run_realdata`) scores its subsampled trials with
``bench``'s scorer, against the truth file's order, which has no ties,
and one table writer formats both results CSVs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, fields

import numpy as np

from . import _textio, analysis, metrics, model, rank, sample, setfamily

# Estimator name (``_textio.ESTIMATORS``) -> (observations, k) -> top-k
# estimate.  The rank functions are looked up on the module at call time,
# so a replaced module attribute (a tracer, a test double) sees every call.
_ESTIMATOR_FNS = {
    "copeland": lambda obs, k: rank.copeland_topk(obs, k),
    "spectral_baseline": lambda obs, k: rank.topk_from_scores(rank.spectral_baseline(obs), k),
}
ESTIMATORS = _textio.ESTIMATORS

RESULT_COLUMNS = (
    "model",
    "n",
    "k",
    "h",
    "p",
    "r",
    "alpha",
    "trial",
    "estimator",
    "exact_success",
    "hamming_error",
    "allowed_success",
    "tie_broken",
    "elapsed_ns",
    "derived_seed",
)

_OBS_STAGE = 1
_MODEL_STAGE = 2
_SUITE_STAGE = 3
_REAL_STAGE = 4


def default_k(n: int) -> int:
    """Default top-k size for ``n`` items: ``ceil(n / 4)``."""
    return -(-n // 4)


def derive_seed(master_seed: int, *tags: int) -> int:
    """Stable 64-bit seed derived from the master seed and stage tags."""
    entropy = (model._check_seed(master_seed),) + tuple(int(t) for t in tags)
    return int(np.random.SeedSequence(entropy).generate_state(1, dtype=np.uint64)[0])


@dataclass(frozen=True)
class ExperimentConfig:
    """Complete description of one benchmark experiment.

    Exactly one of ``alpha`` (threshold constant, from which ``r`` is
    derived) and ``r`` (explicit repetition count) must be given.
    ``family`` is a requirement spec string; empty means exact recovery
    when ``h = 0`` and Hamming tolerance ``h`` otherwise.  ``alpha`` and
    ``r`` are read against the separation of the Hamming-``h`` family,
    whatever family scores the run, so a relaxed ``family`` does not
    change the repetition count.  ``label`` names the rows of the results
    CSV, so it may not contain a comma or a line break.
    """

    model: model.ModelSpec
    n: int
    k: int
    trials: int
    master_seed: int
    h: int = 0
    p: float = 1.0
    alpha: float | None = None
    r: int | None = None
    estimators: tuple[str, ...] = ESTIMATORS
    family: str = ""
    label: str | None = None

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if (self.alpha is None) == (self.r is None):
            raise ValueError("exactly one of alpha and r must be given")
        estimators, label = _textio.estimators, _textio.label
        if not estimators.allowed(self.estimators):
            raise ValueError(f"estimators must {estimators.expected}, got {self.estimators!r}")
        if self.label is not None and not label.allowed(self.label):
            raise ValueError(f"label must {label.expected}, got {self.label!r}")
        if not 0 <= self.h:
            raise ValueError("h must be nonnegative")
        if self.k + self.h + 1 > self.n:
            # the h-window separation would be infinite, and alpha with it
            raise ValueError(f"need k + h + 1 <= n, got k={self.k}, h={self.h}, n={self.n}")

    @property
    def display_label(self) -> str:
        return self.label if self.label is not None else self.model.kind

    def family_spec(self) -> str:
        if self.family:
            return self.family
        return f"hamming:h={self.h}" if self.h > 0 else "exact"


@dataclass(frozen=True)
class TrialRecord:
    """Outcome of one estimator on one trial."""

    trial: int
    estimator: str
    exact_success: bool
    hamming_error: int
    allowed_success: bool
    tie_broken: bool
    elapsed_ns: int
    derived_seed: int
    error: str | None = None


@dataclass(frozen=True)
class ExperimentResult:
    """Per-trial records plus the aggregate summary of an experiment."""

    config: ExperimentConfig
    r: int
    alpha: float
    delta: float
    records: tuple[TrialRecord, ...]
    summary: dict


def _estimate(
    name: str, obs: sample.ObservationSet, k: int
) -> tuple[rank.TopKEstimate | None, str | None]:
    """Run a registered estimator; an estimate, or the reason it failed.

    A disconnected comparison graph, or a random walk without a unique
    stationary distribution, is an outcome to record, not a fatal error.
    """
    try:
        return _ESTIMATOR_FNS[name](obs, k), None
    except (rank.DisconnectedGraphError, rank.StationaryError) as exc:
        return None, f"{type(exc).__name__}: {exc}"


def _score(
    trial: int,
    obs: sample.ObservationSet,
    truth: metrics.GroundTruth,
    family: setfamily.SetFamily,
    estimators,
    seed: int,
) -> list[TrialRecord]:
    """Run each estimator on one trial's observations and score its top ``truth.k``."""
    records = []
    for name in estimators:
        start = time.perf_counter_ns()
        est, error = _estimate(name, obs, truth.k)
        elapsed = time.perf_counter_ns() - start
        if est is None:
            # worst-case outcomes keep failed trials visible in the table
            records.append(
                TrialRecord(trial, name, False, 2 * truth.k, False, False, elapsed, seed, error)
            )
            continue
        exact, distance, allowed = metrics.evaluate(est.items, truth, family)
        records.append(
            TrialRecord(trial, name, exact, distance, allowed, est.tie_broken, elapsed, seed)
        )
    return records


def _matrix(cfg: ExperimentConfig) -> model.ComparisonMatrix:
    """The comparison matrix of ``cfg``, from :func:`pairrank.model.instantiate`."""
    return model.instantiate(cfg.model, cfg.n, derive_seed(cfg.master_seed, _MODEL_STAGE, 0))


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Run all trials of an experiment and aggregate the outcomes.

    The comparison matrix comes from :func:`pairrank.model.instantiate`,
    built anew or taken from its memo of the last build; its Hamming-``h``
    separation report gives ``r`` when ``alpha`` is given and ``alpha``
    when ``r`` is.  Records are emitted in trial order.  Each trial calls
    :func:`pairrank.sample.draw_observations` once, with the trials'
    seeds as ``ahead``.
    """
    matrix = _matrix(cfg)
    hamming = setfamily.family_hamming(cfg.n, cfg.k, cfg.h)
    report = analysis.separation_report(matrix, hamming, p=cfg.p, r=cfg.r, alpha=cfg.alpha)
    if cfg.r is not None:
        r, alpha = cfg.r, report.alpha_implied
    elif report.r_required is None:
        raise ValueError("alpha target is infeasible: the instantiated matrix has zero separation")
    else:
        r, alpha = report.r_required, cfg.alpha
    family = setfamily.parse_family_spec(cfg.family_spec(), cfg.n, cfg.k)
    truth = metrics.ground_truth(matrix, cfg.k)

    seeds = [derive_seed(cfg.master_seed, _OBS_STAGE, trial) for trial in range(cfg.trials)]
    ahead = dict.fromkeys(seeds)
    records = []
    for trial, seed in enumerate(seeds):
        obs = sample.draw_observations(matrix, cfg.p, r, seed, ahead=ahead)
        records += _score(trial, obs, truth, family, cfg.estimators, seed)
    records = tuple(records)
    summary = _summarize(cfg, r, alpha, report.delta, family.kind, records)
    return ExperimentResult(cfg, r, alpha, report.delta, records, summary)


def _summarize(cfg, r, alpha, delta, family, records) -> dict:
    per_estimator = {}
    for name in cfg.estimators:
        recs = [rec for rec in records if rec.estimator == name]
        times = [rec.elapsed_ns for rec in recs]
        per_estimator[name] = {
            "trials": len(recs),
            "exact_failure_rate": sum(not rec.exact_success for rec in recs) / len(recs),
            "hamming_failure_rate": sum(rec.hamming_error > 2 * cfg.h for rec in recs) / len(recs),
            "allowed_failure_rate": sum(not rec.allowed_success for rec in recs) / len(recs),
            "mean_hamming_error": sum(rec.hamming_error for rec in recs) / len(recs),
            "tie_broken_trials": sum(rec.tie_broken for rec in recs),
            "errors": sum(rec.error is not None for rec in recs),
            "elapsed_ns": {"min": min(times), "max": max(times), "mean": sum(times) / len(times)},
        }
    quality = model.resolved_quality(cfg.model, cfg.n)
    return {
        "label": cfg.display_label,
        "model_kind": cfg.model.kind,
        "n": cfg.n,
        "k": cfg.k,
        "h": cfg.h,
        "p": cfg.p,
        "r": r,
        "alpha": alpha,
        "delta": delta,
        "trials": cfg.trials,
        "family": family,
        "master_seed": cfg.master_seed,
        "quality": None if quality is None else [float(x) for x in quality],
        "estimators": per_estimator,
    }


def figure_suite(
    n: int,
    p: float = 1.0,
    trials: int = 50,
    alpha: float = 4.0,
    master_seed: int = 20240901,
) -> list[ExperimentConfig]:
    """The six-model benchmark suite at a common (n, p, trials).

    Models: BTL, Thurstone, BTL with a non-transitive outlier, the
    independent-diagonals SST construction, a BTL mixture, and BTL run
    at one tenth of the target threshold constant (so the separation
    condition is deliberately violated).  Every experiment selects
    :func:`default_k` items with all of :data:`ESTIMATORS`; the
    parametric models use the ``ModelSpec`` default quality spread.
    """
    specs = [
        ("btl", model.ModelSpec(kind="btl"), alpha),
        ("thurstone", model.ModelSpec(kind="thurstone"), alpha),
        ("btl_outlier", model.ModelSpec(kind="btl_outlier", outlier=n - 1), alpha),
        ("sst_diagonal", model.ModelSpec(kind="sst_diagonal"), alpha),
        ("btl_mixture", model.ModelSpec(kind="btl_mixture", lam=0.8), alpha),
        ("btl_lowsep", model.ModelSpec(kind="btl"), alpha / 10.0),
    ]
    configs = []
    for idx, (label, spec, a) in enumerate(specs):
        configs.append(
            ExperimentConfig(
                model=spec,
                label=label,
                n=n,
                k=default_k(n),
                trials=trials,
                p=p,
                alpha=a,
                master_seed=derive_seed(master_seed, _SUITE_STAGE, idx),
            )
        )
    return configs


@dataclass(frozen=True)
class RealDataResult:
    """Records of a subsampling evaluation by ``q``, in grid order, and its summary.

    ``bench``'s scorer made every record, against the truth file's tie-free order.
    """

    n: int
    k: int
    records: dict[float, tuple[TrialRecord, ...]]
    summary: dict


def run_realdata(
    obs_file,
    truth_file,
    k: int | None = None,
    q_grid=(0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0),
    trials: int = 100,
    seed: int = 0,
) -> RealDataResult:
    """Subsampling evaluation on an ingested comparison dataset.

    ``truth_file`` lists every item id, one per line, best first; a
    repeated id raises ``ValueError`` naming the file, the line and the
    id, and an id of the comparisons file that it leaves out names the
    comparisons file and line and then the truth file.  For each
    subsampling fraction ``q`` and each trial, every recorded comparison
    is kept independently with probability ``q``, each of
    :data:`ESTIMATORS` selects ``k`` items (default :func:`default_k`),
    and ``bench``'s scorer scores each against the truth file's order,
    which has no ties, so a Hamming error is a symmetric difference from
    the true top-k.  Per-``q`` averages go into the summary, one entry
    per ``q``, so ``q_grid`` must not repeat a value.  The summary's
    ``comparisons`` entry describes the design of the ingested set: its
    total comparison count and the minimum, maximum and coefficient of
    variation (population standard deviation over mean) of the per-item
    counts, items never compared included.  Each ``q`` lies in ``(0, 1]``: at ``q = 0``
    no comparison is kept, and Copeland's smaller-index tie rule would
    hand it the true top-k, since items are indexed in truth order.
    Estimator failures (a disconnected graph or a walk with several
    closed classes) are recorded, not fatal.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    for qi, q in enumerate(q_grid):
        if not 0.0 < q <= 1.0:
            raise ValueError(f"q_grid fractions must lie in (0, 1], got {q}")
        if q in q_grid[:qi]:
            raise ValueError(f"q_grid repeats {q}")
    index: dict[str, int] = {}
    for lineno, line in _textio.numbered_lines(truth_file):
        item = line.strip()
        if item in index:
            raise ValueError(f"{truth_file}:{lineno}: duplicate item id {item!r}")
        if item:
            index[item] = len(index)
    if not index:
        raise ValueError(f"{truth_file}: no items listed")
    try:
        obs = sample.read_comparisons(obs_file, index)
    except sample.UnlistedItem as exc:
        raise ValueError(f"{exc} {truth_file}") from None
    n = obs.n
    if k is None:
        k = default_k(n)
    if not 1 <= k <= n:
        raise ValueError(f"k must satisfy 1 <= k <= n, got k={k}, n={n}")
    # items are indexed in truth order: item i holds position i + 1, and no two tie
    truth = metrics.GroundTruth(k, np.arange(1, n + 1))
    family = setfamily.family_exact(n, k)
    by_q = {}
    for qi, q in enumerate(q_grid):
        records = []
        for trial in range(trials):
            trial_seed = derive_seed(seed, _REAL_STAGE, qi, trial)
            sub = sample.subsample(obs, q, trial_seed)
            records += _score(trial, sub, truth, family, ESTIMATORS, trial_seed)
        by_q[q] = tuple(records)
    per_item = obs.comparisons.sum(axis=1)
    summary: dict = {
        "n": n,
        "k": k,
        "trials": trials,
        "items": list(index),
        "comparisons": {
            "total": obs.total_comparisons(),
            "per_item_min": int(per_item.min()),
            "per_item_max": int(per_item.max()),
            "per_item_cv": float(per_item.std() / per_item.mean()),
        },
        "per_q": [],
    }
    for q, records in by_q.items():
        entry = {"q": q, "estimators": {}}
        for name in ESTIMATORS:
            got = [rec for rec in records if rec.estimator == name]
            ok = [rec.hamming_error for rec in got if rec.error is None]
            entry["estimators"][name] = {
                "mean_hamming_error": (sum(ok) / len(ok)) if ok else None,
                "failed_trials": len(got) - len(ok),
            }
        summary["per_q"].append(entry)
    return RealDataResult(n=n, k=k, records=by_q, summary=summary)


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_table(path, columns, rows) -> None:
    """Write a header of ``columns`` and one line per row, each cell by :func:`_format_value`."""
    lines = [",".join(columns)]
    lines += [",".join(_format_value(v) for v in row) for row in rows]
    with _textio.open_output(path) as fh:
        fh.write("\n".join(lines) + "\n")


def write_results_csv(result: ExperimentResult, path) -> None:
    """Write per-trial records with the fixed benchmark column set.

    The ``elapsed_ns`` column is always 0, so reruns are byte-identical;
    timing statistics live in the summary.
    """
    cfg = result.config
    rows = (
        (
            cfg.display_label,
            cfg.n,
            cfg.k,
            cfg.h,
            float(cfg.p),
            result.r,
            float(result.alpha),
            rec.trial,
            rec.estimator,
            rec.exact_success,
            rec.hamming_error,
            rec.allowed_success,
            rec.tie_broken,
            0,
            rec.derived_seed,
        )
        for rec in result.records
    )
    _write_table(path, RESULT_COLUMNS, rows)


def write_realdata_csv(result: RealDataResult, path) -> None:
    """Write per-trial real-data rows: q,trial,estimator,hamming_error,tie_broken,error.

    A failed trial has an empty ``hamming_error`` cell; commas in its
    error text read as semicolons.
    """
    rows = (
        (float(q), rec.trial, rec.estimator, "" if rec.error else rec.hamming_error,
         rec.tie_broken, (rec.error or "").replace(",", ";"))
        for q, records in result.records.items()
        for rec in records
    )
    _write_table(path, ("q", "trial", "estimator", "hamming_error", "tie_broken", "error"), rows)


_EXPERIMENT_FIELDS = frozenset(f.name for f in fields(ExperimentConfig)) - {"model"}


def config_from_mapping(values: dict) -> ExperimentConfig:
    """Build an experiment config from parsed key/value pairs.

    ``model`` names the model kind; the model's own keys go to
    :func:`model.spec_from_mapping`.  Absent keys keep the defaults of
    :class:`ExperimentConfig`, except ``trials`` (1) and
    ``master_seed`` (0).
    """
    for key in ("model", "n", "k"):
        if key not in values:
            raise ValueError(f"configuration must set {key!r}")
    spec = model.spec_from_mapping(values["model"], values)
    settings = {"trials": 1, "master_seed": 0}
    settings.update((key, values[key]) for key in _EXPERIMENT_FIELDS if key in values)
    return ExperimentConfig(model=spec, **settings)


def load_config(path) -> ExperimentConfig:
    """Load a flat ``key = value`` configuration file with ``#`` comments.

    A line that is not ``key = value``, an unknown key, a key set twice
    or a value its key's cast rejects raises ``ValueError`` naming the
    file and line; keys that disagree, or build no model, name the file.
    An ``explicit`` model's matrix file is read later, and names itself.
    """
    values: dict = {}
    for lineno, raw in _textio.numbered_lines(path):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key or not value:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        if key not in _textio.CONFIG_KEYS:
            raise ValueError(f"{path}:{lineno}: unknown configuration key {key!r}")
        if key in values:
            raise ValueError(f"{path}:{lineno}: repeated configuration key {key!r}")
        try:
            values[key] = _textio.CONFIG_KEYS[key](value)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: configuration key {key!r}: {exc}") from None
    try:
        cfg = config_from_mapping(values)
        if cfg.model.kind != "explicit":
            _matrix(cfg)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return cfg
