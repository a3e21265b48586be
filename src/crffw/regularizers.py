"""Convex regularizers added to the energy by the direction step.

Both built-in regularizers are constant on one-hot points (so they do
not change the discrete problem) and lambda-strongly convex on the
feasible set.  `None` everywhere means "no regularizer" (r = 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_LOG_FLOOR = 1e-300


@dataclass(frozen=True)
class L2Regularizer:
    """r(x) = (lam / 2) * ||x||^2."""

    lam: float

    def __post_init__(self):
        if not 0.0 < self.lam < math.inf:
            raise ValueError("regularization weight must be finite and > 0")

    @property
    def strong_convexity(self):
        return self.lam

    def value(self, x):
        return 0.5 * self.lam * float((np.asarray(x, dtype=float) ** 2).sum())

    def bounds(self, n, d):
        return self.lam * n / (2.0 * d), self.lam * n / 2.0


@dataclass(frozen=True)
class EntropyRegularizer:
    """r(x) = lam * sum x log x (negative entropy, scaled).

    Uses the 0 * log 0 = 0 convention by flooring the log argument, so
    the value is exactly 0 at one-hot points.
    """

    lam: float

    def __post_init__(self):
        if not 0.0 < self.lam < math.inf:
            raise ValueError("regularization weight must be finite and > 0")

    @property
    def strong_convexity(self):
        return self.lam

    def value(self, x):
        x = np.asarray(x, dtype=float)
        return self.lam * float((x * np.log(np.maximum(x, _LOG_FLOOR))).sum())

    def bounds(self, n, d):
        return -self.lam * n * math.log(d), 0.0


def strong_convexity(reg):
    """Strong-convexity parameter sigma_g (0 without a regularizer)."""
    return 0.0 if reg is None else reg.strong_convexity


def regularizer_value(reg, x):
    return 0.0 if reg is None else reg.value(x)


def regularizer_bounds(reg, n, d):
    """Tight bounds (m, M) with m <= r(x) <= M over the feasible set."""
    if n < 1 or d < 1:
        raise ValueError("n and d must be positive")
    if reg is None:
        return 0.0, 0.0
    return reg.bounds(n, d)
