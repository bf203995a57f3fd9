"""Multifractal analysis of ergodic Birkhoff averages.

Observables are cylinder tables with an explicit Lipschitz constant for the
gamma-adic metric (distance gamma^j between sequences first differing after
j symbols).  A Birkhoff target is a level map: the periodic average
S_n f / n equals S_n(-f) / S_n(-1) bit for bit (negation is exact and the
summation order is unchanged), so ``ObservableTable.as_level_map()`` feeds
the constrained coefficients, Bowen solvers and variational optimizer of
the self-conformal case.  The adapters below read that level map in mode
"M" (periodic points); mode "L" and ``sandwich_threshold`` apply to
``obs.as_level_map()`` directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ValidationError
from .mfzeta import constrained_coefficient, mf_bowen_fixed, mf_bowen_shrinking
from .model import LevelMap, ModelSpec, PotentialTable, TargetBox
from .spectrum import VariationalResult, variational_solve
from .symbolic import DEFAULT_BUDGET


@dataclass(frozen=True)
class ObservableTable:
    """A Lipschitz observable stored on depth-k cylinders.

    ``lip_bound`` defaults to the exact Lipschitz constant of the table
    with respect to the gamma-adic metric, max_j osc_j / gamma^j over
    prefix lengths j < depth.  A general Lipschitz function projected onto
    depth-k cylinders carries projection error at most lip_bound * gamma^k,
    which the caller owns.
    """

    f: PotentialTable
    gamma: float = 0.5
    lip_bound: Optional[float] = None

    def __post_init__(self):
        if not (0.0 < self.gamma < 1.0):
            raise ValidationError("gamma must be in (0,1)")
        osc = self.f.oscillations()
        exact = float(
            np.max(osc / self.gamma ** np.arange(self.f.depth))
        )
        if self.lip_bound is None:
            object.__setattr__(self, "lip_bound", exact)
        elif self.lip_bound < exact - 1e-12:
            raise ValidationError(
                f"lip_bound {self.lip_bound} below table's exact constant {exact}"
            )

    @property
    def depth(self) -> int:
        return self.f.depth

    def as_level_map(self) -> LevelMap:
        """The level map mu -> int(-f) / int(-1), whose value is int f dmu."""
        return LevelMap(
            (PotentialTable(-self.f.values),),
            PotentialTable(-np.ones(self.f.N)),
        )


def erg_constrained_coefficient(
    spec: ModelSpec,
    obs: ObservableTable,
    C: TargetBox,
    phi: PotentialTable,
    n: int,
    budget: int = DEFAULT_BUDGET,
) -> float:
    """log cylinder sum over words whose periodic average of f lies in C."""
    return constrained_coefficient(
        spec, phi, C, n, mode="M", level=obs.as_level_map(), budget=budget
    )


def erg_bowen(
    spec: ModelSpec,
    obs: ObservableTable,
    C: TargetBox,
    mode: str = "shrinking",
    n_max: int = 300,
    tol: float = 1e-4,
    r_schedule: Optional[Sequence[float]] = None,
    budget: int = DEFAULT_BUDGET,
    refine: bool = True,
):
    """Bowen root of the ergodic constrained pressure t -> P(t * Lambda).

    mode "fixed" solves at the given interval and returns a float; mode
    "shrinking" solves along a dilation schedule and returns the per-radius
    roots with their extrapolated limit.
    """
    level = obs.as_level_map()
    if mode == "fixed":
        return mf_bowen_fixed(
            spec, C, n_max, tol, mode="M", level=level, budget=budget,
            refine=refine,
        )
    if mode != "shrinking":
        raise ValidationError("mode must be 'fixed' or 'shrinking'")
    return mf_bowen_shrinking(
        spec, C, r_schedule, n_max, tol, mode="M", level=level, budget=budget,
        refine=refine,
    )


def erg_spectrum_variational(
    spec: ModelSpec,
    obs: ObservableTable,
    C: TargetBox,
    family: Optional[str] = None,
    grid_step: float = 1e-2,
    tol: float = 1e-6,
    seed: int = 0,
) -> VariationalResult:
    """sup of -h(mu) / int(Lambda) over measures with int f dmu in C.

    The family defaults to the one that integrates the observable exactly:
    Bernoulli at depth 1, memory-1 Markov at depth 2.
    """
    if family is None:
        family = "bernoulli" if obs.depth == 1 else "markov1"
    return variational_solve(
        spec,
        C,
        family=family,
        objective="dimension",
        grid_step=grid_step,
        tol=tol,
        seed=seed,
        level=obs.as_level_map(),
    )


def periodic_discrepancy_bound(obs: ObservableTable, n: int) -> float:
    """Bound on |periodic sum - any cylinder sum| of S_n(f), divided by n."""
    if n < 1:
        raise ValidationError("need n >= 1")
    return obs.lip_bound / (n * (1.0 - obs.gamma))
