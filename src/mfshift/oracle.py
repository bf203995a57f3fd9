"""Brute-force reference implementations backing the fast paths.

Everything here recomputes quantities from their definitions: literal
word-by-word enumeration with explicit tail products instead of composition
aggregation or interval hulls, and dense simplex scans instead of the
variational route's concave program.  Deviations between the twin routes
are recorded, never silently discarded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import BudgetExceeded, DepthUnsupported, ValidationError
from .logsum import NEG_INF
from .model import LevelMap, ModelSpec, PotentialTable, TargetBox

ORACLE_BUDGET = 2**24


@dataclass(frozen=True)
class OracleReport:
    """Twin comparison of a naive and a fast evaluation of one quantity."""

    quantity: str
    naive: float
    fast: float
    abs_deviation: float
    rel_deviation: float
    detail: str


def make_report(quantity: str, naive: float, fast: float, detail: str) -> OracleReport:
    if naive == fast:  # covers the matched -inf case
        return OracleReport(quantity, naive, fast, 0.0, 0.0, detail)
    abs_dev = abs(naive - fast)
    rel_dev = abs_dev / max(abs(naive), abs(fast), 1.0)
    return OracleReport(quantity, naive, fast, abs_dev, rel_dev, detail)


def _all_words(n: int, N: int) -> np.ndarray:
    """All words as a (N^n, n) array of 0-based symbols, lexicographic."""
    total = N**n
    if total > ORACLE_BUDGET:
        raise BudgetExceeded(f"{N}^{n} words exceed oracle budget")
    out = np.empty((total, n), dtype=np.int64)
    idx = np.arange(total)
    for pos in range(n - 1, -1, -1):
        out[:, pos] = idx % N
        idx //= N
    return out


def _extension_sums(table: PotentialTable, words: np.ndarray) -> np.ndarray:
    """S_n over every explicit tail extension, shape (B, N^(depth-1)).

    Uses flat raveled indexing on the value table, one window at a time.
    """
    B, n = words.shape
    N, k = table.N, table.depth
    flat = table.values.ravel()
    T = N ** (k - 1)
    tails = _all_words(k - 1, N) if k > 1 else np.zeros((1, 0), dtype=np.int64)
    sums = np.zeros((B, T), dtype=float)
    for t in range(T):
        ext = np.hstack([words, np.tile(tails[t], (B, 1))])
        flat_idx = np.zeros(B, dtype=np.int64)
        for j in range(n):
            window = ext[:, j : j + k]
            flat_idx[:] = 0
            for d in range(k):
                flat_idx = flat_idx * N + window[:, d]
            sums[:, t] += flat.take(flat_idx)
    return sums


def _periodic_sums(table: PotentialTable, words: np.ndarray) -> np.ndarray:
    """S_n at the periodic point of each word, built by explicit tiling."""
    B, n = words.shape
    k = table.depth
    reps = -(-(n + k - 1) // n)  # ceil division
    tiled = np.tile(words, (1, reps))[:, : n + k - 1]
    flat = table.values.ravel()
    N = table.N
    out = np.zeros(B, dtype=float)
    for j in range(n):
        flat_idx = np.zeros(B, dtype=np.int64)
        for d in range(k):
            flat_idx = flat_idx * N + tiled[:, j + d]
        out += flat.take(flat_idx)
    return out


def _log_sum(values: np.ndarray) -> float:
    if values.size == 0:
        return NEG_INF
    m = float(values.max())
    if m == NEG_INF:
        return NEG_INF
    return m + math.log(np.exp(values - m).sum())


def brute_constrained_sum(
    spec: ModelSpec,
    phi: PotentialTable,
    C: Optional[TargetBox],
    n: int,
    mode: str = "L",
    level: Optional[LevelMap] = None,
) -> float:
    """Constrained cylinder sum by literal enumeration, no aggregation.

    Mode "L" checks every tail extension's level point for membership in C
    one by one; mode "M" checks the periodic extension.
    """
    if mode not in ("L", "M"):
        raise ValidationError("mode must be 'L' or 'M'")
    lev = level if level is not None else LevelMap.from_spec(spec)
    words = _all_words(n, spec.N)
    sup_phi = _extension_sums(phi, words).max(axis=1)
    if C is None:
        return _log_sum(sup_phi)
    depth = lev.depth
    lam_k = lev.lam.lift(depth)
    if mode == "L":
        s_lam = _extension_sums(lam_k, words)
        keep = np.ones(words.shape[0], dtype=bool)
        for m, phi_m in enumerate(lev.phis):
            s_phi = _extension_sums(phi_m.lift(depth), words)
            ratios = s_phi / s_lam
            inside = (ratios >= C.lo[m]) & (ratios <= C.hi[m])
            keep &= inside.all(axis=1)
    else:
        s_lam = _periodic_sums(lam_k, words)
        keep = np.ones(words.shape[0], dtype=bool)
        for m, phi_m in enumerate(lev.phis):
            ratios = _periodic_sums(phi_m.lift(depth), words) / s_lam
            keep &= (ratios >= C.lo[m]) & (ratios <= C.hi[m])
    return _log_sum(sup_phi[keep])


@dataclass(frozen=True)
class BruteVariationalResult:
    value: float
    weights: Optional[np.ndarray]
    feasible: bool


def _weight_grid(N: int, step: float) -> np.ndarray:
    k = int(round(1.0 / step))
    if N == 2:
        t = np.arange(k + 1) / k
        return np.stack([t, 1.0 - t], axis=1)
    if N == 3:
        i, j = np.meshgrid(np.arange(k + 1), np.arange(k + 1), indexing="ij")
        keep = (i + j) <= k
        i, j = i[keep], j[keep]
        return np.stack([i / k, j / k, (k - i - j) / k], axis=1)
    raise ValidationError("dense scan supports N <= 3")


def _scan_resolution(u: np.ndarray) -> np.ndarray:
    """Half the largest gap between consecutive attained values, per column.

    A dense scan cannot hit a singleton target exactly; membership is
    tested at the scan's own resolution in level space instead.
    """
    out = np.empty(u.shape[1])
    for m in range(u.shape[1]):
        vals = np.unique(u[:, m])
        out[m] = 0.5 * float(np.max(np.diff(vals))) if vals.size > 1 else 0.0
    return out


def _scan_integral(W: np.ndarray, table: PotentialTable) -> np.ndarray:
    """Integral of a depth <= 2 table against every scanned product measure."""
    if table.depth == 1:
        return W @ table.values
    if table.depth == 2:
        return np.einsum("ki,ij,kj->k", W, table.values, W)
    raise DepthUnsupported("dense scan integrates depth <= 2")


def brute_variational(
    spec: ModelSpec,
    C: TargetBox,
    phi: Optional[PotentialTable] = None,
    grid_step: float = 1e-3,
    objective: str = "dimension",
    level: Optional[LevelMap] = None,
) -> BruteVariationalResult:
    """Dense simplex scan of the constrained variational problem, no polish.

    The constraint keeps the level value of ``level`` (the model's level
    map by default) in C; the dimension objective divides by the model's
    scaling integral.
    """
    if objective not in ("pressure", "dimension"):
        raise ValidationError("objective must be 'pressure' or 'dimension'")
    if objective == "pressure" and phi is None:
        raise ValidationError("pressure objective needs a potential")
    W = _weight_grid(spec.N, grid_step)
    lw = np.where(W > 0, np.log(np.where(W > 0, W, 1.0)), 0.0)
    h = -np.sum(W * lw, axis=1)
    lam = spec.log_ratios
    den = W @ lam
    if level is None:
        num = W @ spec.log_measures.T  # (K, M)
        u = num / den[:, None]
    else:
        num = np.stack([_scan_integral(W, p) for p in level.phis], axis=1)
        u = num / _scan_integral(W, level.lam)[:, None]
    slack = _scan_resolution(u)
    feasible = np.all((u >= C.lo - slack) & (u <= C.hi + slack), axis=1)
    if not feasible.any():
        return BruteVariationalResult(NEG_INF, None, False)
    if objective == "dimension":
        obj = -h / den
    else:
        obj = h + _scan_integral(W, phi)
    obj = np.where(feasible, obj, -np.inf)
    best = int(np.argmax(obj))
    return BruteVariationalResult(float(obj[best]), W[best].copy(), True)


def compare_constrained(
    spec: ModelSpec,
    phi: PotentialTable,
    C: Optional[TargetBox],
    n: int,
    mode: str = "L",
    level: Optional[LevelMap] = None,
) -> OracleReport:
    """Twin report: brute enumeration vs the aggregated constrained sum."""
    from .mfzeta import constrained_coefficient

    naive = brute_constrained_sum(spec, phi, C, n, mode, level)
    fast = constrained_coefficient(spec, phi, C, n, mode, level)
    return make_report("constrained_coefficient", naive, fast, f"n={n} mode={mode}")


def compare_variational(
    spec: ModelSpec,
    C: TargetBox,
    phi: Optional[PotentialTable] = None,
    objective: str = "dimension",
    grid_step: float = 1e-3,
) -> OracleReport:
    """Twin report: dense simplex scan vs the block-frequency optimizer."""
    from .errors import InfeasibleConstraint
    from .spectrum import variational_solve

    naive = brute_variational(spec, C, phi, grid_step, objective)
    try:
        fast = variational_solve(spec, C, phi, objective=objective).value
    except InfeasibleConstraint:
        fast = NEG_INF
    return make_report(
        "variational_solve",
        naive.value,
        fast,
        f"grid_step={grid_step}",
    )
