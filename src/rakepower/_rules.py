"""The input rules every entry point of the library shares.

Each rule is one helper, and each compares so that NaN fails: a count
(_count), a combining fraction in (0, 1] (_fraction), a decay ratio of at
least 1 (_decay_ratio), a positive, finite value (_positive) and a
non-negative, finite array (_nonnegative). The array rules check entry by
entry, and their error names the failing positions (_entrywise).
"""

from __future__ import annotations

import operator

import numpy as np


def _count(value, name: str, least: int = 1) -> int:
    """The count value as an int. NaN or a value below least raises
    ValueError naming the field, since the accepting comparison runs first;
    a non-integer (a fraction or a whole float) raises TypeError, and numpy
    integers pass."""
    if not value >= least:
        raise ValueError(f"{name} must be >= {least}")
    return operator.index(value)


# the real-valued rules, each comparing as _count does, so that NaN fails
def _fraction(value, name: str) -> None:
    if not 0 < value <= 1:
        raise ValueError(f"{name} must be in (0, 1]")


def _decay_ratio(value, name: str) -> None:
    if not value >= 1:
        raise ValueError(f"{name} must be >= 1")


def _entrywise(ok: np.ndarray, name: str, rule: str) -> None:
    # an array rule's one report: the positions where it fails
    if not ok.all():
        raise ValueError(f"{name} must be {rule}; it is not at {np.argwhere(~ok).tolist()}")


def _positive(value, name: str) -> None:
    # an array entry by entry; a scalar by one comparison
    if isinstance(value, np.ndarray) and value.ndim:
        _entrywise((0 < value) & (value < np.inf), name, "positive and finite")
    elif not 0 < value < np.inf:
        raise ValueError(f"{name} must be positive and finite")


def _nonnegative(value: np.ndarray, name: str) -> None:
    # an array of powers or interference gains, entry by entry; 0 passes
    _entrywise((0 <= value) & (value < np.inf), name, "non-negative and finite")
