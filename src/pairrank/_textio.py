"""The input boundary: text files and values from outside the program.

Every input file is read here as UTF-8 lines that end at LF, CRLF or
CR only.  :func:`numbered_lines` numbers them and :func:`records` splits
them into CSV records, one per line.  A reader keeps only its row rules,
and its errors read ``path:line: problem``, or ``path: problem`` for a
file without records.  :func:`open_text` names the line of a byte that
is not UTF-8, which Python reports by its place in a decoder chunk.

The casts of every flag and configuration value live here too:
:func:`finite_float`, the model kinds and the configuration keys.  The
command-line parser needs them before it knows whether a command will
run, so this module imports the standard library only and ``pairrank
--help`` or a usage error never loads numpy.
"""

from __future__ import annotations

import csv
import math
import re
from contextlib import contextmanager
from pathlib import Path

# a byte that is not UTF-8, as the "surrogateescape" error handler decodes it
_UNDECODABLE = re.compile("[\udc80-\udcff]")


def first_line(path, found) -> int:
    """Number of the first line of ``path``, ending kept, for which ``found(line)`` is true."""
    with Path(path).open(newline="", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if found(line):
                return lineno
    raise ValueError(f"{path}: changed while it was read")


@contextmanager
def open_text(path):
    """Open ``path`` to read lines ending at LF, CRLF or CR, endings kept.

    A byte that is not UTF-8 raises a ``ValueError`` naming ``path:line``.
    """
    try:
        with Path(path).open(newline="", encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        line = first_line(path, _UNDECODABLE.search)
        raise ValueError(
            f"{path}:{line}: 'utf-8' codec can't decode byte {exc.object[exc.start]:#04x}: {exc.reason}"
        ) from None


def numbered_lines(path):
    """Yield ``(number, text)`` for each physical line of ``path``: numbered from 1, ending cut."""
    with open_text(path) as fh:
        for number, line in enumerate(fh, start=1):
            yield number, line.rstrip("\r\n")


def records(path, lines, start: int = 1, line_of=None):
    """Yield ``(start + i, fields)`` for line ``i`` of ``lines``, one CSV record per line.

    A blank line has no fields.  A quoted field that does not close on
    its line, or a line the CSV reader rejects (an oversize field, text
    after a closing quote), raises ``ValueError`` naming ``path`` and
    ``line_of(number)``, by default ``number``.
    """

    def error(number: int, problem) -> ValueError:
        return ValueError(f"{path}:{number if line_of is None else line_of(number)}: {problem}")

    reader = csv.reader(lines, strict=True)
    offset = number = start - 1
    try:
        for number, fields in enumerate(reader, start):
            if reader.line_num + offset != number:
                raise error(number, "quoted field spans lines")
            yield number, fields
    except csv.Error as exc:
        # the rejected record starts on the line after record ``number``
        spans = reader.line_num + offset > number + 1
        raise error(number + 1, "quoted field spans lines" if spans else exc) from None


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
