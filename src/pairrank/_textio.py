"""UTF-8 text inputs whose errors name the file and the line.

Every reader of a text input decodes it as UTF-8.  Python reports a
byte that is not UTF-8 by its position in a decoder chunk, not in the
file, and without the file's name.  :func:`utf8_errors` turns that
report into a ``ValueError`` naming the file and the line that holds
the byte, which :func:`first_line` finds by a second scan of the file.
"""

from __future__ import annotations

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
