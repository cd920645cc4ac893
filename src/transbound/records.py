"""Shared result record for every explicit risk bound, and the shared argument checks.

Each ``_check_*`` raises a ValueError naming the argument and its value.  Its test reads
``not lo <= x <= hi``, which NaN fails, and no range admits an infinity: both are input errors.
``_check_labels`` tests membership in a set of labels, which NaN fails too, and ``_check_integers``
refuses a fractional part, which an int64 cast would truncate."""

from dataclasses import dataclass
import math

import numpy as np


@dataclass(frozen=True)
class BoundValue:
    """Value of a risk bound.

    ``raw`` is the bound exactly as the formula produces it (may exceed 1);
    ``clamped`` is the binary-loss presentation min(raw / B, 1).  Curve
    comparisons should use ``raw`` so crossovers above 1 stay visible.
    ``valid`` is False when a precondition of the formula was violated and
    the bound was reported as vacuous instead of raising.
    """

    raw: float
    clamped: float
    name: str
    valid: bool = True

    def __post_init__(self):
        if math.isnan(self.raw):
            raise ValueError(f"{self.name} bound is not a number for these inputs")
        if self.clamped > 1.0 + 1e-12:
            raise ValueError(f"clamped bound {self.clamped} exceeds 1")


def _check_probability(name: str, value: float) -> None:
    if not 0.0 < value < 1.0:
        raise ValueError(f"{name} must be in (0, 1), got {value}")


def _check_unit(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value}")


def _check_mass(name: str, value: float) -> None:
    if not 0.0 < value <= 1.0:
        raise ValueError(f"{name} must be in (0, 1], got {value}")


def _check_positive(name: str, value: float) -> None:
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value}")


def _check_nonnegative(name: str, value: float) -> None:
    if not 0.0 <= value < math.inf:
        raise ValueError(f"{name} must be nonnegative and finite, got {value}")


def _check_size(name: str, value: int) -> None:
    if not value >= 1:
        raise ValueError(f"{name} must be a positive integer, got {value}")


def _check_sample(m: int, n_total: int) -> None:
    if not m <= n_total:
        raise ValueError(f"m must not exceed the population size {n_total}, got {m}")


def _check_choice(name: str, value: str, choices: tuple) -> None:
    if value not in choices:
        raise ValueError(f"unknown {name} {value!r}; choose from {', '.join(choices)}")


def _check_labels(name: str, values, allowed: tuple) -> np.ndarray:
    """``values`` as an int64 array, each entry one of ``allowed``.

    The entries are checked before the cast, which would truncate 0.5 to 0 or
    1.7 to 1 and so pass a fractional entry as a label."""
    raw = np.asarray(values)
    bad = ~np.isin(raw, allowed)
    if bad.any():
        raise ValueError(f"{name} must hold only {' and '.join(map(str, allowed))}, "
                         f"got {raw[bad].flat[0]}")
    return raw.astype(np.int64)


def _check_integers(name: str, values) -> np.ndarray:
    """``values`` as an int64 array, each entry a finite whole number.

    The entries are checked before the cast, which would truncate 1.9 to 1."""
    raw = np.asarray(values)
    bad = ~np.isfinite(raw) | (np.floor(raw) != raw)
    if bad.any():
        raise ValueError(f"{name} must hold only integers, got {raw[bad].flat[0]}")
    return raw.astype(np.int64)
