"""Shared result record for every explicit risk bound."""

from dataclasses import dataclass
import math


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
