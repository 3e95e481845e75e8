"""The ``scipy.special`` functions pairrank uses, imported on first use.

Importing ``scipy.special`` costs more than numpy and the pairrank
modules together (about 0.25 s on a 2-CPU machine), and most commands
never evaluate a special function: ``--help``, usage errors, ``rank``,
``thresholds``, ``simulate --p 1``, the non-parametric ``gen-matrix``
kinds, ``bench`` on a non-parametric model at ``p = 1`` and
``eval-real`` (the spectral baseline builds its logistic with numpy).
Parametric models, draws at ``p < 1`` (the count table) and
``btl_loglikelihood`` load it.  So callers write ``_special.expit(x)``, and the
module-level ``__getattr__`` (PEP 562) imports ``scipy.special`` on the
first such lookup and binds all of :data:`_NAMES` as module globals;
later lookups are plain global reads.

This is one of three deferred imports in the package, each for a cost
that some launches need not pay.  The other two keep numpy out of
``--help`` and usage errors: the package's ``__getattr__`` imports a
submodule at the first lookup of a name it exports, and
:func:`pairrank.cli.main` imports the command handlers after parsing.
Every other import is at the top of its module.
"""

from __future__ import annotations

_NAMES = ("bdtr", "bdtrc", "expit", "log_expit", "ndtr")


def __getattr__(name: str):
    if name not in _NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import scipy.special

    globals().update((key, getattr(scipy.special, key)) for key in _NAMES)
    return globals()[name]
