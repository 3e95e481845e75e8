"""Mutation gate: each mutant of ``MUTANTS`` must fail the tests it names.

Usage, from anywhere:

    python3 scripts/mutants.py

Each entry of ``MUTANTS`` names a file under ``src/pairrank``, an exact
old text, its replacement, and the tests (pytest node ids, relative to
the root of the repository) that must kill it.  The script first
checks that every old text occurs exactly once in its file, so that a
refactor that moves the code must update the table, and that the named
tests pass on an unmutated copy of the tree.  Then, for each entry, it copies the tree to a temporary
directory, applies the replacement there, and runs the named tests with
``-x``: the mutant is killed when pytest reports a failing test, and
survives when the tests pass.  Any other pytest outcome (a collection
error, no test collected) is reported as an error.  It exits 1 if any
old text does not occur exactly once, if the unmutated tests fail, or
if any mutant is not killed, and 0 otherwise.  The repository itself is
never written.  It needs only the packages of ``.[test]``.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
# left out of each copy: version control and caches
IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis")


class Mutant(NamedTuple):
    name: str
    file: str  # under src/pairrank
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = (
    Mutant(
        "draw-from-transpose",
        "sample.py",
        "probs = matrix.entries[_upper_mask(n)]",
        "probs = matrix.entries.T[_upper_mask(n)]",
        (
            "tests/test_reproduction.py::test_copeland_top_k_keeps_to_the_bound",
            "tests/test_sample.py::TestStreamContract::test_draw_matches_oracle",
        ),
    ),
    Mutant(
        "copeland-topk-ascending",
        "rank.py",
        "return topk_from_scores(obs.win_totals(), k)",
        "return topk_from_scores(-obs.win_totals(), k)",
        ("tests/test_reproduction.py::test_copeland_top_k_keeps_to_the_bound",),
    ),
    Mutant(
        "copeland-ranking-ascending",
        "rank.py",
        "rank_order(obs.win_totals())",
        "rank_order(-obs.win_totals())",
        ("tests/test_reproduction.py::test_copeland_ranking_keeps_to_the_bound",),
    ),
    Mutant(
        "favorable-last-positions",
        "metrics.py",
        "return tuple((best + np.arange(best.size) - np.searchsorted(best, best)).tolist())",
        # each chosen item of a class takes the last positions of the class's block
        "class_size = np.bincount(truth.best_position)[best]\n"
        "    chosen = np.searchsorted(best, best, side='right') - np.searchsorted(best, best)\n"
        "    offset = np.arange(best.size) - np.searchsorted(best, best)\n"
        "    return tuple((best + class_size - chosen + offset).tolist())",
        ("tests/test_metrics.py",),
    ),
    Mutant(
        "subsample-kept-wins-swapped",
        "sample.py",
        "return rng.binomial(row_wins, q), rng.binomial(col_wins, q)",
        "return tuple(reversed((rng.binomial(col_wins, q), rng.binomial(row_wins, q))))",
        ("tests/test_sample.py::TestStreamContract::test_subsample_matches_oracle",),
    ),
    Mutant(
        "another-draw-stream-tag",
        "sample.py",
        "_DRAW_TAG = 0x0B5E",
        "_DRAW_TAG = 0x0B5F",
        ("tests/test_sample.py::TestStreamContract::test_draw_matches_oracle",),
    ),
    Mutant(
        "separation-without-lift",
        "analysis.py",
        "lifted = np.maximum.accumulate(first - rows) + rows + 1",
        "lifted = first + 1",
        ("tests/test_setfamily.py",),
    ),
    Mutant(
        "separation-counts-gaps-at-most-v",
        "analysis.py",
        "first = np.maximum(below(v) - skip, 0)",
        "first = np.maximum(below(np.nextafter(v, np.inf)) - skip, 0)",
        ("tests/test_setfamily.py",),
    ),
    Mutant(
        "stationary-without-clipping",
        "rank.py",
        "pi = np.maximum(np.linalg.solve(system, np.ones(rates.shape[0])), 0.0)",
        "pi = np.linalg.solve(system, np.ones(rates.shape[0]))",
        ("tests/test_rank.py",),
    ),
    Mutant(
        "zero-weights-one-logit-off-the-floor",
        "rank.py",
        "w = np.full(scores.size, -_W_BOUND)",
        "w = np.full(scores.size, 1.0 - _W_BOUND)",
        ("tests/test_rank.py",),
    ),
    Mutant(
        "draws-ahead-redraw-stored-sets",
        "sample.py",
        "for s, stored in ahead.items() if stored is None)",
        "for s, stored in ahead.items())",
        ("tests/test_sample.py::TestStreamContract::test_draws_ahead_match_the_oracle",),
    ),
    Mutant(
        "draws-ahead-read-the-first-seed",
        "sample.py",
        "root = np.random.SeedSequence((s, _DRAW_TAG))",
        "root = np.random.SeedSequence((seed, _DRAW_TAG))",
        (
            "tests/test_sample.py::TestStreamContract::test_draws_ahead_match_the_oracle",
            "tests/test_harness.py::TestRunExperiment::test_records_match_a_loop_of_lone_draws",
        ),
    ),
    Mutant(
        "assemble-column-wins-in-upper",
        "sample.py",
        "wins.T[upper] = col_wins",
        "wins[upper] = col_wins",
        ("tests/test_sample.py::TestStreamContract::test_draw_matches_oracle",),
    ),
    Mutant(
        "comparisons-file-win-on-the-wrong-side",
        "sample.py",
        "slots += row_wins.size * (winners > losers)",
        "slots += row_wins.size * (winners < losers)",
        ("tests/test_sample.py::TestStreamContract::test_win_totals_from_pairs_match_the_arrays",),
    ),
    Mutant(
        "observations-row-win-is-its-loss",
        "sample.py",
        "row_wins[slot] = w\n",
        "row_wins[slot] = c - w\n",
        ("tests/test_sample.py::TestStreamContract::test_win_totals_from_pairs_match_the_arrays",),
    ),
    Mutant(
        "mirror-diagonal-tile-unmasked",
        "model.py",
        "out=out[rows, rows], where=_TILE_LOWER[:size, :size])",
        "out=out[rows, rows])",
        ("tests/test_model.py::test_mirror_upper_is_byte_identical_to_pair_indexing",),
    ),
)


def pytest_run(tree: Path, tests: tuple[str, ...]) -> int:
    """Exit code of ``pytest -x`` on ``tests`` in ``tree``, importing ``pairrank`` from its ``src``."""
    path = os.pathsep.join(filter(None, [str(tree / "src"), os.environ.get("PYTHONPATH")]))
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.DEVNULL).returncode


def main() -> int:
    stale = False
    for m in MUTANTS:
        found = (ROOT / "src" / "pairrank" / m.file).read_text(encoding="utf-8").count(m.old)
        if found != 1:
            stale = True
            print(f"{m.name}: the old text occurs {found} times in {m.file}, not once")
    if stale:
        return 1

    with tempfile.TemporaryDirectory(prefix="pairrank-mutants-") as scratch:
        tree = Path(scratch) / "tree"
        shutil.copytree(ROOT, tree, ignore=IGNORED)
        if pytest_run(tree, tuple(dict.fromkeys(t for m in MUTANTS for t in m.tests))) != 0:
            print("the named tests fail on the unmutated tree")
            return 1
        shutil.rmtree(tree)
        killed = 0
        for m in MUTANTS:
            shutil.copytree(ROOT, tree, ignore=IGNORED)
            target = tree / "src" / "pairrank" / m.file
            target.write_text(target.read_text(encoding="utf-8").replace(m.old, m.new), encoding="utf-8")
            start = time.perf_counter()
            code = pytest_run(tree, m.tests)
            killed += code == 1
            outcome = {0: "survived", 1: "killed"}.get(code, f"error (pytest exit {code})")
            print(f"{m.name}: {outcome} ({time.perf_counter() - start:.1f} s)", flush=True)
            shutil.rmtree(tree)
    print(f"{killed} of {len(MUTANTS)} mutants killed")
    return 0 if killed == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
