"""Output checks against oracles written independently of ``pairrank``.

Each check returns a list of problems; an empty list means the output
passed.  The oracles use only numpy: an argsort of the win counts for
Copeland, and a lenient top-k Hamming error computed directly from the
true scores (any member of a tie class that straddles the k-boundary
may stand in for another).  The baseline check reads the likelihood
through ``rank.btl_loglikelihood`` and compares the refined scores with
their ``rank_centrality`` start.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

TIE_ATOL = 1e-12
SUM_ATOL = 1e-9
# the refinement may not lower the likelihood by more than float noise
LOGLIK_RTOL = 1e-12


def true_scores(entries: np.ndarray) -> np.ndarray:
    """Win probability against a uniformly random opponent (row means)."""
    return np.asarray(entries, dtype=np.float64).sum(axis=1) / entries.shape[0]


def argsort_topk(values: np.ndarray, k: int) -> list[int]:
    """The k largest entries, ties broken by smaller index."""
    return [int(i) for i in np.argsort(-np.asarray(values), kind="stable")[:k]]


def lenient_hamming(items, tau: np.ndarray, k: int) -> int:
    """Hamming error of a k-set against the true top-k, ties lenient.

    Items scoring above the k-th largest true score are always inside;
    items tied with it fill the remaining boundary slots.
    """
    tau = np.asarray(tau, dtype=np.float64)
    threshold = np.sort(tau)[::-1][k - 1]
    above = tau > threshold + TIE_ATOL
    tied = np.abs(tau - threshold) <= TIE_ATOL
    chosen = np.zeros(tau.size, dtype=bool)
    chosen[list(items)] = True
    inside = int((chosen & above).sum()) + min(int((chosen & tied).sum()), k - int(above.sum()))
    return 2 * (k - inside)


def check_copeland(wins: np.ndarray, tau: np.ndarray, k: int, reported_hamming: int) -> list[str]:
    """Copeland's recorded Hamming error against the argsort oracle."""
    expected = lenient_hamming(argsort_topk(np.asarray(wins).sum(axis=1), k), tau, k)
    if expected != reported_hamming:
        return [f"copeland hamming {reported_hamming}, oracle {expected}"]
    return []


def check_baseline(
    obs, tau: np.ndarray, k: int, reported_hamming: int, scores, start, loglik
) -> list[str]:
    """Baseline scores are a distribution that does not lose likelihood.

    ``scores`` are the refined baseline scores, ``start`` the
    ``rank_centrality`` vector they were refined from, and ``loglik``
    the BTL log-likelihood function.
    """
    scores = np.asarray(scores, dtype=np.float64)
    problems = []
    if scores.shape != (obs.n,) or not np.all(np.isfinite(scores)) or np.any(scores <= 0):
        return [f"baseline scores are not a positive vector of length {obs.n}"]
    if abs(scores.sum() - 1.0) > SUM_ATOL:
        problems.append(f"baseline scores sum to {scores.sum()!r}, not 1")
    start_ll = loglik(obs, start)
    refined_ll = loglik(obs, scores)
    if refined_ll < start_ll - LOGLIK_RTOL * abs(start_ll):
        problems.append(f"baseline log-likelihood {refined_ll!r} below its start {start_ll!r}")
    expected = lenient_hamming(argsort_topk(scores, k), tau, k)
    if expected != reported_hamming:
        problems.append(f"baseline hamming {reported_hamming}, oracle {expected}")
    return problems


def check_csv_shape(path, header: tuple[str, ...], rows: int) -> list[str]:
    """Row and column counts of a results CSV; boolean spelling is not read."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    problems = []
    if not lines or tuple(lines[0].split(",")) != header:
        problems.append(f"{path}: header is not {','.join(header)}")
    if len(lines) - 1 != rows:
        problems.append(f"{path}: {len(lines) - 1} data rows, expected {rows}")
    bad = [i for i, line in enumerate(lines[1:], start=2) if line.count(",") != len(header) - 1]
    if bad:
        problems.append(f"{path}: {len(bad)} lines from line {bad[0]} have a wrong column count")
    return problems
