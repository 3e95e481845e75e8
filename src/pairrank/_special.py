"""The ``scipy.special`` functions pairrank uses, imported on first use.

Importing ``scipy.special`` costs more than numpy and the pairrank
modules together (about 0.25 s on a 2-CPU machine), and most commands
never evaluate a special function: ``--help``, usage errors, ``rank``,
``thresholds``, ``simulate --p 1`` and the non-parametric
``gen-matrix`` kinds.  So callers write ``_special.expit(x)``, and the
module-level ``__getattr__`` (PEP 562) imports ``scipy.special`` on the
first such lookup and binds all of :data:`_NAMES` as module globals;
later lookups are plain global reads.  This is the one deferred import
in the package.
"""

from __future__ import annotations

_NAMES = ("bdtr", "bdtrc", "expit", "log_expit", "ndtr")


def __getattr__(name: str):
    if name not in _NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import scipy.special

    globals().update((key, getattr(scipy.special, key)) for key in _NAMES)
    return globals()[name]
