"""Classical pressure, dynamical zeta-function coefficients and Bowen roots.

The pressure of a cylinder potential is the exponential growth rate of the
cylinder sums sum_{|i|=n} sup_[i] exp S_n(phi); the associated zeta series
sum_n a_n z^n / n has radius of convergence exp(-pressure), which is what
radius_estimate recovers from the stored log a_n.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import AllEmpty, BracketFailure, DepthUnsupported, ValidationError
from .logsum import LogAccumulator, logsumexp
from .model import PotentialTable
from .symbolic import (
    DEFAULT_BUDGET,
    check_class_budget,
    composition_arrays,
    tail_sum_matrix,
    word_blocks,
)


@dataclass(frozen=True)
class SeriesCoefficients:
    """Log-scale coefficients of a series sum_n a_n z^n / n.

    ``log_a[n]`` holds log a_n for n = 1..n_max; index 0 is unused (nan).
    Empty sums are stored as -inf.
    """

    log_a: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        a = np.asarray(self.log_a, dtype=float)
        object.__setattr__(self, "log_a", a)
        if a.ndim != 1 or a.size < 2:
            raise ValidationError("need coefficients for at least n = 1")

    @property
    def n_max(self) -> int:
        return self.log_a.size - 1

    def per_n(self) -> np.ndarray:
        """(1/n) log a_n for n = 1..n_max (index 0 is nan)."""
        out = np.full_like(self.log_a, np.nan)
        n = np.arange(1, self.n_max + 1)
        out[1:] = self.log_a[1:] / n
        return out


@dataclass(frozen=True)
class RadiusEstimate:
    """Radius-of-convergence estimate with per-n diagnostics."""

    log_radius: float
    tail_window: int
    per_n_values: np.ndarray
    trend_diagnostic: float


def default_tail_window(n_max: int) -> int:
    """Trailing window used by limsup proxies: 25% of n_max, at least 1."""
    return max(1, n_max // 4)


def _cylinder_log_sum(
    phi: PotentialTable, n: int, budget: int = DEFAULT_BUDGET
) -> float:
    """log sum_{|i|=n} sup_[i] exp S_n(phi) via classes or enumeration."""
    if phi.depth == 1:
        check_class_budget((n,), phi.N, budget)
        counts, log_mult = composition_arrays(n, phi.N)
        return logsumexp(log_mult + counts @ phi.values)
    acc = LogAccumulator()
    for block in word_blocks(n, phi.N, budget):
        sums = tail_sum_matrix(phi, block, budget)
        acc.add_block(sums.max(axis=1))
    return acc.value()


def pressure_level(
    phi: PotentialTable, n: int, budget: int = DEFAULT_BUDGET
) -> float:
    """Level-n pressure approximation (1/n) log of the cylinder sum."""
    if n < 1:
        raise ValidationError("need n >= 1")
    return _cylinder_log_sum(phi, n, budget) / n


def pressure_exact(phi: PotentialTable) -> float:
    """Closed-form pressure log sum_i exp phi([i]) of a depth-1 potential."""
    if phi.depth != 1:
        raise DepthUnsupported("closed form needs a depth-1 potential")
    return logsumexp(phi.values)


def zeta_coefficients(
    phi: PotentialTable, n_max: int, budget: int = DEFAULT_BUDGET
) -> SeriesCoefficients:
    """Coefficients log a_n, n = 1..n_max, of the dynamical zeta series."""
    if n_max < 1:
        raise ValidationError("need n_max >= 1")
    log_a = np.full(n_max + 1, np.nan)
    for n in range(1, n_max + 1):
        log_a[n] = _cylinder_log_sum(phi, n, budget)
    return SeriesCoefficients(log_a, meta={"kind": "zeta", "depth": phi.depth})


def radius_estimate(
    coeffs: SeriesCoefficients, tail_window: Optional[int] = None
) -> RadiusEstimate:
    """Radius of convergence from the tail of (1/n) log a_n.

    The limsup of (1/n) log a_n is proxied by the max over the trailing
    window, which tolerates the empty-coefficient gaps constrained series
    exhibit.  Raises AllEmpty when the whole tail is -inf (radius +inf).
    """
    n_max = coeffs.n_max
    if tail_window is None:
        tail_window = default_tail_window(n_max)
    if not (1 <= tail_window <= n_max):
        raise ValidationError("tail window must be within 1..n_max")
    per_n = coeffs.per_n()
    tail = per_n[n_max - tail_window + 1 :]
    finite = tail[np.isfinite(tail)]
    if finite.size == 0:
        raise AllEmpty("all tail coefficients are empty sums")
    limsup = float(np.max(finite))
    ns = np.arange(n_max - tail_window + 1, n_max + 1)
    mask = np.isfinite(tail)
    if mask.sum() >= 2:
        slope = float(np.polyfit(ns[mask], tail[mask], 1)[0])
    else:
        slope = 0.0
    return RadiusEstimate(
        log_radius=-limsup,
        tail_window=tail_window,
        per_n_values=per_n,
        trend_diagnostic=slope,
    )


def bowen_root(
    P: Callable[[float], float],
    bracket=(0.0, 2.0),
    tol: float = 1e-10,
    max_expand: int = 60,
) -> float:
    """Root of a strictly decreasing function by bisection.

    Expands the bracket geometrically until P(t_lo) > 0 > P(t_hi), then
    bisects until the bracket is narrower than tol.
    """
    t_lo, t_hi = float(bracket[0]), float(bracket[1])
    if not t_lo < t_hi:
        raise ValidationError("bracket must have t_lo < t_hi")
    f_lo, f_hi = P(t_lo), P(t_hi)
    span = t_hi - t_lo
    expansions = 0
    while f_lo <= 0.0:
        t_lo -= span
        span *= 2.0
        f_lo = P(t_lo)
        expansions += 1
        if expansions > max_expand:
            raise BracketFailure("no positive value found expanding left")
    span = t_hi - t_lo
    while f_hi >= 0.0:
        t_hi += span
        span *= 2.0
        f_hi = P(t_hi)
        expansions += 1
        if expansions > max_expand:
            raise BracketFailure("no negative value found expanding right")
    while t_hi - t_lo > tol:
        mid = 0.5 * (t_lo + t_hi)
        if mid == t_lo or mid == t_hi:
            break
        f_mid = P(mid)
        if f_mid > 0.0:
            t_lo = mid
        elif f_mid < 0.0:
            t_hi = mid
        else:
            return mid
    return 0.5 * (t_lo + t_hi)
