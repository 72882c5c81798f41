"""Displacement / length profiles gathered from sampled evaluations."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class DisplacementProfile:
    """Summary statistics of a sampled displacement (or field-length) function."""

    min: float
    max: float
    mean: float
    samples: int

    @property
    def gap(self) -> float:
        return self.max - self.min

    @property
    def relative_gap(self) -> float:
        """Gap normalized by the mean; inf when the mean vanishes but the gap does not."""
        if self.mean == 0.0:
            return 0.0 if self.gap == 0.0 else np.inf
        return self.gap / self.mean

    @classmethod
    def from_values(cls, values) -> "DisplacementProfile":
        arr = np.asarray(values, dtype=float)
        if arr.size == 0:
            raise ValueError("profile needs at least one sample")
        return cls(float(arr.min()), float(arr.max()), float(arr.mean()), int(arr.size))

