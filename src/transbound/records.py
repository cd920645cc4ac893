"""Shared result record for every explicit risk bound, and the shared argument checks.

Each ``_check_*`` raises a ValueError naming the argument and its value.  Its test reads
``not lo <= x <= hi``, which NaN fails, and no range admits an infinity: both are input errors.
``_check_labels`` tests membership in a set of labels, which NaN fails too, and ``_check_integers``
refuses a fractional part or a value beyond int64, which an int64 cast would truncate or wrap.
Every count (a size, an error or cluster count, a number of trials) goes through ``_check_size``:
a ``numbers.Integral`` in lo..hi, numpy integers included, so even a whole float like 10.0 fails."""

from dataclasses import dataclass
import math
import numbers

import numpy as np


@dataclass(frozen=True)
class BoundValue:
    """Value of a risk bound on a loss with range [0, B], B = ``loss_bound``.

    ``raw`` is the bound exactly as the formula produces it (may exceed B);
    ``clamped`` is its presentation min(raw / B, 1), the bound on the loss
    rescaled to [0, 1].  Curve comparisons should use ``raw`` so crossovers
    above 1 stay visible.  Every formula returns a bound or raises, so
    ``valid`` is always True; it stays readable for the ``valid`` column.
    """

    raw: float
    name: str
    loss_bound: float = 1.0
    valid = True  # a class constant, not a field

    def __post_init__(self):
        if math.isnan(self.raw):
            raise ValueError(f"{self.name} bound is not a number for these inputs")

    @property
    def clamped(self) -> float:
        return min(self.raw / self.loss_bound, 1.0)


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


def _check_size(name: str, value: int, lo: int = 1, hi: int | None = None) -> None:
    if not (isinstance(value, numbers.Integral) and lo <= value and (hi is None or value <= hi)):
        rule = (f"an integer in {lo}..{hi}" if hi is not None else
                "a positive integer" if lo == 1 else f"an integer >= {lo}")
        raise ValueError(f"{name} must be {rule}, got {value}")


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
    """``values`` as an int64 array, each entry a whole number in the int64 range.

    The entries are checked before the cast, which would truncate 1.9 to 1 and
    wrap 1e20 to a negative number."""
    raw = np.asarray(values)
    num = raw.astype(np.float64) if raw.dtype == object else raw  # ints beyond uint64
    bad = ~np.isfinite(num) | (np.floor(num) != num)
    if bad.any():
        raise ValueError(f"{name} must hold only integers, got {raw[bad].flat[0]}")
    if raw.dtype.kind != "i":  # signed integers of any width fit in int64
        wide = (raw < -2.0 ** 63) | (raw >= 2.0 ** 63)
        if wide.any():
            raise ValueError(f"{name} must lie in the int64 range, got {raw[wide].flat[0]}")
    return raw.astype(np.int64)
