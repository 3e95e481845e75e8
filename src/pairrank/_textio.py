"""The input and output boundary: text files and values from outside the program.

Every input file is read here as UTF-8 lines that end at LF, CRLF or
CR only.  :func:`numbered_lines` numbers them and :func:`records` splits
them into CSV records, one per line.  A reader keeps only its row rules,
and its errors read ``path:line: problem``, or ``path: problem`` for a
file without records.  :func:`open_text` names the line of a byte that
is not UTF-8, which Python reports by its place in a decoder chunk.

Every output file is written here too, through :func:`open_output`, as
UTF-8 with every line ending in LF on every platform.

The cast of every flag and configuration key lives here too, with each
range that depends on no other setting and no data (:data:`CONFIG_KEYS`,
which holds :data:`MODEL_KEYS`).  The command-line parser needs them
before it knows whether a command will run, so this module imports the
standard library only and ``pairrank --help`` or a usage error never
loads numpy.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import re
import stat
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


@contextmanager
def open_output(path):
    """Open ``path`` to write UTF-8 text from its start, line endings as written.

    The file is created if it is missing, but not truncated when it is
    opened: on ext4, truncating a file that was just written waits for
    the write-back of its last version, tens of ms per rewrite.  When
    the block ends, a regular file is cut to the length written; a pipe
    or a terminal, which cannot be cut, is only written.  So a symlink
    is written through, a hard link's twin reads the new bytes and the
    file keeps its mode.  The write is not atomic: a process killed
    mid-write can leave the new text followed by the tail of the old.
    """
    # O_BINARY (Windows only) keeps the C runtime from writing LF as CRLF
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    with open(fd, "w", encoding="utf-8", newline="") as fh:
        regular = stat.S_ISREG(os.fstat(fd).st_mode)
        try:
            yield fh
        finally:
            if regular:
                fh.truncate()


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
    """``float(text)``, rejecting NaN and +-inf; the cast under every float setting."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {text!r}")
    return value


class OutOfRange(ValueError, argparse.ArgumentTypeError):
    """A value outside its setting's range; ``argparse`` prints it after the flag."""


def _ranged(name: str, cast, allowed, expected: str):
    """``cast``, then :class:`OutOfRange` unless ``allowed(value)``; argparse calls it ``name``.

    The check keeps ``allowed`` and ``expected``, so a value built in the
    program, not read as text, is held to the same rule.
    """

    def check(text):
        value = cast(text)
        if not allowed(value):
            raise OutOfRange(f"must {expected}, got {text!r}")
        return value

    check.__name__, check.allowed, check.expected = name, allowed, expected
    return check


probability = _ranged("probability", finite_float, lambda x: 0.0 < x <= 1.0, "lie in (0, 1]")
positive = _ranged("positive", finite_float, lambda x: x > 0.0, "be positive")
count = _ranged("count", int, lambda x: x >= 1, "be at least 1")
nonnegative = _ranged("nonnegative", int, lambda x: x >= 0, "be nonnegative")
items = _ranged("items", int, lambda x: x >= 2, "be at least 2")
seed = _ranged("seed", int, lambda x: 0 <= x < 2**64, "lie in [0, 2**64 - 1]")


def floats(text: str) -> tuple[float, ...]:
    """Comma-separated finite floats; empty fields are skipped."""
    return tuple(finite_float(x) for x in text.split(",") if x.strip())


def fractions(text: str) -> tuple[float, ...]:
    """At least one comma-separated probability, none repeated; empty fields are skipped."""
    values = tuple(probability(x) for x in map(str.strip, text.split(",")) if x)
    if not values or len(set(values)) < len(values):
        raise OutOfRange(f"must list distinct fractions, at least one, got {text!r}")
    return values


MODEL_KINDS = ("btl", "thurstone", "btl_outlier", "sst_diagonal", "btl_mixture", "planted",
               "adjacent_swap", "hamming_planted", "explicit")
model_kind = _ranged("model", str, MODEL_KINDS.__contains__, f"be one of {', '.join(MODEL_KINDS)}")
label = _ranged(
    "label", str, lambda x: not set(",\r\n") & set(x), "not contain a comma or a line break"
)

ESTIMATORS = ("copeland", "spectral_baseline")  # the keys of ``harness``'s estimator registry
estimators = _ranged(  # a list of them; empty fields are skipped
    "estimators", lambda x: tuple(filter(None, map(str.strip, x.split(",")))),
    lambda x: x and len(set(x)) == len(x) and set(x) <= set(ESTIMATORS),
    f"list distinct names of {', '.join(ESTIMATORS)}",
)


# every parameter of ``pairrank.model.ModelSpec`` but its kind and its
# quality vector, under the field's name, with the cast of its value
MODEL_KEYS = {
    "quality_spread": positive,
    "outlier": nonnegative,
    "gap": positive,
    "lam": _ranged("weight", finite_float, lambda x: 0.5 < x <= 1.0, "lie in (1/2, 1]"),
    "k": count,
    "delta": _ranged("delta", finite_float, lambda x: 0.0 < x < 0.5, "lie in (0, 1/2)"),
    "delta0": positive,
    "swap_index": nonnegative,
    "plant_index": nonnegative,
    "ordering_seed": seed,
    "model_seed": seed,
    "entries_path": str,
}

# every key of a bench configuration (``k`` is a model key too), with the cast of its value
CONFIG_KEYS = {
    "model": model_kind,
    "label": label,
    "n": items,
    "h": nonnegative,
    "p": probability,
    "alpha": positive,
    "r": count,
    "trials": count,
    "estimators": estimators,
    "family": str,
    "master_seed": seed,
    **MODEL_KEYS,
}
