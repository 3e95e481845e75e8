"""The input boundary: text files and values from outside the program.

Every reader of a text input decodes it as UTF-8.  Python reports a
byte that is not UTF-8 by its position in a decoder chunk, not in the
file, and without the file's name.  :func:`utf8_errors` turns that
report into a ``ValueError`` naming the file and the line that holds
the byte, which :func:`first_line` finds by a second scan of the file.

The casts of every flag and configuration value live here too:
:func:`finite_float`, the model kinds and the configuration keys.  The
command-line parser needs them before it knows whether a command will
run, so this module imports the standard library only and ``pairrank
--help`` or a usage error never loads numpy.  ``model`` and ``harness``
re-export them under their old names.
"""

from __future__ import annotations

import math
import re
from contextlib import contextmanager
from pathlib import Path

# a byte that is not UTF-8, as the "surrogateescape" error handler decodes it
_UNDECODABLE = re.compile("[\udc80-\udcff]")


def first_line(path, found) -> int:
    """Number of the first physical line of ``path`` for which ``found(line)`` is true.

    Lines keep their endings, and bytes that are not UTF-8 read as
    ``_UNDECODABLE`` characters.
    """
    with Path(path).open(newline="", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if found(line):
                return lineno
    raise ValueError(f"{path}: changed while it was read")


@contextmanager
def utf8_errors(path):
    """Re-raise a ``UnicodeDecodeError`` of the block as a ``ValueError`` naming ``path:line``."""
    try:
        yield
    except UnicodeDecodeError as exc:
        line = first_line(path, _UNDECODABLE.search)
        raise ValueError(
            f"{path}:{line}: 'utf-8' codec can't decode byte {exc.object[exc.start]:#04x}: {exc.reason}"
        ) from None


def finite_float(text) -> float:
    """``float(text)``, rejecting NaN and +-inf; the cast of every float input."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {text!r}")
    return value


MODEL_KINDS = (
    "btl",
    "thurstone",
    "btl_outlier",
    "sst_diagonal",
    "btl_mixture",
    "planted",
    "adjacent_swap",
    "hamming_planted",
    "explicit",
)

# every key of a bench configuration, with the cast of its value
CONFIG_KEYS = {
    "model": str,
    "label": str,
    "n": int,
    "k": int,
    "h": int,
    "p": finite_float,
    "alpha": finite_float,
    "r": int,
    "trials": int,
    "estimators": str,
    "family": str,
    "master_seed": int,
    "quality_spread": finite_float,
    "lam": finite_float,
    "gap": finite_float,
    "delta": finite_float,
    "delta0": finite_float,
    "outlier": int,
    "swap_index": int,
    "plant_index": int,
    "model_seed": int,
    "ordering_seed": int,
    "entries_path": str,
}
