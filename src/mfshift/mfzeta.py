"""Constrained (multifractal) pressure, zeta series and Bowen solvers.

The cylinder sums of the classical pressure are restricted to words whose
level-set data lands in a target box C.  Two constraint readings are
supported: mode "L" keeps a word when the whole interval of level values
over its cylinder is contained in C, mode "M" evaluates the level value at
the word's periodic point only.  For depth-1 level maps the two coincide
exactly.  Empty sums propagate as -inf through pressures and Bowen roots,
so degenerate targets produce -inf rather than errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import ScheduleTooShort, ValidationError
from .logsum import NEG_INF, LogAccumulator, logsumexp
from .model import LevelMap, ModelSpec, PotentialTable, TargetBox, moran_dimension
from .pressure import SeriesCoefficients, bowen_root, default_tail_window
from .symbolic import (
    DEFAULT_BUDGET,
    check_class_budget,
    composition_arrays,
    periodic_sums,
    tail_sum_matrix,
    word_blocks,
)

_MODES = ("L", "M")


def _check_mode(mode: str) -> str:
    if mode not in _MODES:
        raise ValidationError(f"constraint mode must be one of {_MODES}")
    return mode


def resolve_level(
    spec: ModelSpec, level: Optional[LevelMap], C: Optional[TargetBox]
) -> LevelMap:
    """The level map in use (the model's by default), checked against C.

    A box of the wrong dimension would broadcast against the level points
    instead of failing, so it is refused here.
    """
    lev = level if level is not None else LevelMap.from_spec(spec)
    if C is not None and C.dim != lev.M:
        raise ValidationError(
            f"target box has dimension {C.dim}, the level map has M={lev.M}"
        )
    return lev


def _class_ratio_points(level: LevelMap, counts: np.ndarray) -> np.ndarray:
    """Level values of composition classes for a depth-1 level map, (K, M)."""
    P, lam = level.depth1_vectors()
    num = counts @ P.T
    den = counts @ lam
    return num / den[:, None]


def _word_hulls(level: LevelMap, words: np.ndarray, budget: int):
    """Componentwise interval of level values over every tail extension.

    Returns (hull_lo, hull_hi) arrays of shape (B, M) for a general level
    map; the periodic point is one of the enumerated tails, so it lies
    inside the hull bit for bit.
    """
    depth = level.depth
    s_lam = tail_sum_matrix(level.lam.lift(depth), words, budget)  # (B, T)
    B = words.shape[0]
    ratios = np.empty((B, s_lam.shape[1], level.M), dtype=float)
    for m, phi in enumerate(level.phis):
        ratios[:, :, m] = tail_sum_matrix(phi.lift(depth), words, budget) / s_lam
    return ratios.min(axis=1), ratios.max(axis=1)


def _word_periodic_points(level: LevelMap, words: np.ndarray) -> np.ndarray:
    """Level point of each word's periodic extension, (B, M)."""
    depth = level.depth
    s_lam = periodic_sums(level.lam.lift(depth), words)
    return np.stack(
        [periodic_sums(phi.lift(depth), words) / s_lam for phi in level.phis],
        axis=1,
    )


def _word_mask(
    level: LevelMap, C: TargetBox, words: np.ndarray, mode: str, budget: int
) -> np.ndarray:
    if mode == "M":
        return C.contains_points(_word_periodic_points(level, words))
    return C.contains_interval_hulls(*_word_hulls(level, words, budget))


def constrained_coefficient(
    spec: ModelSpec,
    phi: PotentialTable,
    C: Optional[TargetBox],
    n: int,
    mode: str = "L",
    level: Optional[LevelMap] = None,
    budget: int = DEFAULT_BUDGET,
) -> float:
    """log of the level-n cylinder sum restricted to C-relevant words.

    C = None means no constraint; a vacuous box (containing every level
    value) gives bit-identical results to the unconstrained sum.  Returns
    -inf when no word qualifies.
    """
    if n < 1:
        raise ValidationError("need n >= 1")
    _check_mode(mode)
    lev = resolve_level(spec, level, C)
    if phi.depth == 1 and (C is None or lev.is_depth1()):
        check_class_budget((n,), spec.N, budget)
        counts, log_mult = composition_arrays(n, spec.N)
        terms = log_mult + counts @ phi.values
        if C is None:
            return logsumexp(terms)
        # depth-1 cylinders carry a single level point: L and M coincide
        pts = _class_ratio_points(lev, counts)
        return logsumexp(terms[C.contains_points(pts)])
    acc = LogAccumulator()
    for block in word_blocks(n, spec.N, budget):
        sup_vals = tail_sum_matrix(phi, block, budget).max(axis=1)
        if C is not None:
            sup_vals = sup_vals[_word_mask(lev, C, block, mode, budget)]
        acc.add_block(sup_vals)
    return acc.value()


@dataclass(frozen=True)
class MfPressureWindow:
    """Per-n constrained pressure values with window extrema.

    ``lower``/``upper`` are the min/max of (1/n) log of the constrained
    sums over the window, the finite-n proxies for the liminf/limsup
    pressures.  Both are -inf when the constraint is empty everywhere.
    """

    n_values: np.ndarray
    per_n: np.ndarray
    lower: float
    upper: float


def mf_pressure_window(
    spec: ModelSpec,
    phi: PotentialTable,
    C: Optional[TargetBox],
    n_range: Iterable[int],
    mode: str = "L",
    level: Optional[LevelMap] = None,
    budget: int = DEFAULT_BUDGET,
) -> MfPressureWindow:
    """Constrained pressure proxies over an explicit window of levels n."""
    ns = np.array(sorted(set(int(n) for n in n_range)), dtype=int)
    if ns.size == 0 or ns[0] < 1:
        raise ValidationError("need a nonempty window of levels n >= 1")
    per_n = np.array(
        [
            constrained_coefficient(spec, phi, C, int(n), mode, level, budget)
            / n
            for n in ns
        ]
    )
    return MfPressureWindow(
        n_values=ns,
        per_n=per_n,
        lower=float(np.min(per_n)),
        upper=float(np.max(per_n)),
    )


def mf_zeta_series(
    spec: ModelSpec,
    phi: PotentialTable,
    C: Optional[TargetBox],
    n_max: int,
    mode: str = "L",
    level: Optional[LevelMap] = None,
    budget: int = DEFAULT_BUDGET,
) -> SeriesCoefficients:
    """Constrained zeta-series coefficients log a_n for n = 1..n_max."""
    if n_max < 1:
        raise ValidationError("need n_max >= 1")
    log_a = np.full(n_max + 1, np.nan)
    for n in range(1, n_max + 1):
        log_a[n] = constrained_coefficient(spec, phi, C, n, mode, level, budget)
    return SeriesCoefficients(
        log_a, meta={"kind": "mf-zeta", "mode": mode}
    )


# ---------------------------------------------------------------------------
# Bowen solvers.  The scaling potential enters only as t * Lambda, so per
# level n the constrained sum is a fixed mixture LSE_j(w_j + t * s_j); the
# qualifying-word data (w_j, s_j) is precomputed once and the root search
# reuses it.


def _profile_entry(w: np.ndarray, s: np.ndarray):
    if w.size == 0:
        return None
    return (w, s)


def _lambda_profiles(
    spec: ModelSpec,
    C: Optional[TargetBox],
    mode: str,
    level: LevelMap,
    n_values: Sequence[int],
    budget: int,
):
    """Per-n (weights, scaling-sum) pairs for t -> constrained sum of t*Lambda."""
    lam_vec = spec.log_ratios
    if level.is_depth1():
        check_class_budget(n_values, spec.N, budget)
    profiles = []
    for n in n_values:
        if level.is_depth1():
            counts, log_mult = composition_arrays(n, spec.N)
            if C is None:
                mask = np.ones(log_mult.size, dtype=bool)
            else:
                mask = C.contains_points(_class_ratio_points(level, counts))
            profiles.append(
                _profile_entry(log_mult[mask], counts[mask] @ lam_vec)
            )
        else:
            parts_s = []
            for block in word_blocks(n, spec.N, budget):
                mask = _word_mask(level, C, block, mode, budget)
                parts_s.append(lam_vec[block[mask]].sum(axis=1))
            s_all = (
                np.concatenate(parts_s) if parts_s else np.empty(0)
            )
            uniq, counts_u = np.unique(s_all, return_counts=True)
            profiles.append(_profile_entry(np.log(counts_u), uniq))
    return profiles


def _window_upper_fn(profiles, n_values):
    """t -> max over the window of (1/n) LSE_j(w_j + t * s_j), or None.

    The non-empty profiles are stacked once into flat arrays with segment
    starts, so each evaluation is a fixed number of array operations
    however many levels the window holds.  None when every level is empty.
    """
    kept = [(n, p) for n, p in zip(n_values, profiles) if p is not None]
    if not kept:
        return None
    W = np.concatenate([p[0] for _, p in kept])
    S = np.concatenate([p[1] for _, p in kept])
    lengths = np.array([p[0].size for _, p in kept])
    starts = np.concatenate(([0], np.cumsum(lengths[:-1])))
    ns = np.array([n for n, _ in kept], dtype=float)
    buf = np.empty_like(W)

    def upper(t: float) -> float:
        x = np.add(W, np.multiply(S, t, out=buf), out=buf)
        m = np.maximum.reduceat(x, starts)
        # a level whose terms are all -inf is an empty sum (log 0)
        m[m == NEG_INF] = 0.0
        np.exp(np.subtract(x, np.repeat(m, lengths), out=x), out=x)
        with np.errstate(divide="ignore"):
            vals = (m + np.log(np.add.reduceat(x, starts))) / ns
        return float(vals.max())

    return upper


def _solve_window(by_n: dict, n_values, spec: ModelSpec, tol: float) -> float:
    """Bowen root of the window upper value; -inf for an empty window.

    The window's profiles are popped from ``by_n`` as they are stacked, so
    the per-level arrays do not outlive the stacked copy.
    """
    upper = _window_upper_fn([by_n.pop(n) for n in n_values], n_values)
    if upper is None:
        return NEG_INF
    s0 = moran_dimension(spec)
    return bowen_root(upper, bracket=(-0.25, s0 + 0.25), tol=tol)


def solver_window(n_max: int) -> range:
    """Trailing window of levels used by the Bowen solvers."""
    return range(n_max - default_tail_window(n_max) + 1, n_max + 1)


_REFINE_MIN_N = 50


def _solve_refined(spec, n_max, tol, profile_fn, refine):
    """Window-upper Bowen root with a log(n)/n Richardson correction.

    The per-level roots approach the true root like c * log(n)/n (Stirling
    prefactors of the qualifying cylinder counts), which at desk-scale n_max
    is several times coarser than the acceptance tolerances.  Solving the
    window estimator at n_max and n_max/2 and extrapolating the log(n)/n
    term out removes the leading bias; constant root sequences are left
    untouched.
    """
    ns_full = list(solver_window(n_max))
    use_refine = refine and n_max >= _REFINE_MIN_N
    ns_half = list(solver_window(n_max // 2)) if use_refine else []
    all_ns = sorted(set(ns_half) | set(ns_full))
    by_n = dict(zip(all_ns, profile_fn(all_ns)))
    t_full = _solve_window(by_n, ns_full, spec, tol)
    if not ns_half or t_full == NEG_INF:
        return t_full
    t_half = _solve_window(by_n, ns_half, spec, tol)
    if t_half == NEG_INF:
        return t_full
    n1, n2 = n_max, n_max // 2
    L1, L2 = math.log(n1) / n1, math.log(n2) / n2
    return t_full + (t_full - t_half) * L1 / (L2 - L1)


def mf_bowen_fixed(
    spec: ModelSpec,
    C: TargetBox,
    n_max: int = 400,
    tol: float = 1e-4,
    mode: str = "L",
    level: Optional[LevelMap] = None,
    budget: int = DEFAULT_BUDGET,
    refine: bool = True,
) -> float:
    """Root of the fixed-target constrained pressure t -> P_C(t * Lambda).

    Solves the finite-n proxy (upper window value) by bisection, with a
    Richardson correction for the log(n)/n root bias when n_max is large
    enough; returns -inf when the constraint is empty over the window.
    """
    _check_mode(mode)
    lev = resolve_level(spec, level, C)
    return _solve_refined(
        spec,
        n_max,
        tol,
        lambda ns: _lambda_profiles(spec, C, mode, lev, ns, budget),
        refine,
    )


@dataclass(frozen=True)
class ShrinkingResult:
    """Per-radius Bowen roots and their extrapolated r -> 0 limit."""

    radii: np.ndarray
    roots: np.ndarray
    value: float

    def __float__(self) -> float:
        return self.value


def default_radius_schedule(k: int = 6) -> np.ndarray:
    return 0.5 ** np.arange(1, k + 1)


def _extrapolate_roots(radii: np.ndarray, roots: np.ndarray) -> float:
    # Last value plus a linear-in-r correction fitted on the last three
    # radii; the per-radius sequence itself is always reported alongside.
    if roots[-1] == NEG_INF:
        return NEG_INF
    r3, t3 = radii[-3:], roots[-3:]
    if np.any(t3 == NEG_INF):
        return float(roots[-1])
    slope, intercept = np.polyfit(r3, t3, 1)
    return float(intercept)


def mf_bowen_shrinking(
    spec: ModelSpec,
    C: TargetBox,
    r_schedule: Optional[Sequence[float]] = None,
    n_max: int = 400,
    tol: float = 1e-4,
    mode: str = "L",
    level: Optional[LevelMap] = None,
    budget: int = DEFAULT_BUDGET,
    refine: bool = True,
) -> ShrinkingResult:
    """Shrinking-target Bowen roots over a radius schedule, extrapolated.

    For each radius r the fixed-target solver runs against the dilated box
    B(C, r); the limit r -> 0 is estimated by the intercept of a line in r
    through the last three roots.  Works for singleton targets, where the
    fixed-target equation is degenerate.
    """
    if r_schedule is None:
        r_schedule = default_radius_schedule()
    radii = np.asarray(list(r_schedule), dtype=float)
    if radii.size < 3:
        raise ScheduleTooShort("need at least 3 radii to extrapolate")
    if np.any(radii <= 0) or np.any(np.diff(radii) >= 0):
        raise ValidationError("radius schedule must be positive and decreasing")
    roots = np.array(
        [
            mf_bowen_fixed(
                spec, C.dilate(float(r)), n_max, tol, mode, level, budget, refine
            )
            for r in radii
        ]
    )
    return ShrinkingResult(radii, roots, _extrapolate_roots(radii, roots))


def level_tail_lipschitz(level: LevelMap, gamma: float = 0.5) -> float:
    """Tail-sensitive Lipschitz constant of the level map.

    Bounds how far the level value can move between two tail extensions of
    the same word, per unit 1/(n(1-gamma)).  Only oscillations over symbols
    after a shared prefix of length >= 1 contribute; a depth-1 map has
    constant 0 (its level values are tail-independent).
    """
    if not (0.0 < gamma < 1.0):
        raise ValidationError("gamma must be in (0,1)")
    depth = level.depth

    def tail_lip(table: PotentialTable) -> float:
        osc = table.lift(depth).oscillations()
        js = np.arange(1, depth)
        if js.size == 0:
            return 0.0
        return float(np.max(osc[1:] / gamma**js))

    lam_k = level.lam.lift(depth)
    lam_min = float(np.min(np.abs(lam_k.values)))
    u_max = max(
        float(np.max(np.abs(p.values))) / lam_min for p in level.phis
    )
    lip_phi = max(tail_lip(p) for p in level.phis)
    lip_lam = tail_lip(level.lam)
    return (lip_phi + u_max * lip_lam) / lam_min


def sandwich_threshold(
    spec_or_level, r: float, gamma: float = 0.5
) -> int:
    """Least n from which mode-M sums are trapped by mode-L sums at B(C, r).

    From that level on, a word whose periodic level point lies in C has its
    whole level interval inside the dilated box, giving the two-sided
    comparison coefficient_L(C) <= coefficient_M(C) <= coefficient_L(B(C,r)).
    """
    if r <= 0:
        raise ValidationError("need r > 0")
    lev = (
        spec_or_level
        if isinstance(spec_or_level, LevelMap)
        else LevelMap.from_spec(spec_or_level)
    )
    lip = level_tail_lipschitz(lev, gamma)
    if lip == 0.0:
        return 1
    return max(1, math.floor(lip / (r * (1.0 - gamma))) + 1)
