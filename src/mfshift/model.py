"""Self-similar IFS models, cylinder potentials, target boxes and measure families.

A model is an iterated function system of N contracting similarities with
ratios r_i together with M probability vectors; the potentials derived from
it are the scaling potential (log r on depth-1 cylinders) and one log-weight
potential per probability vector.  Targets are closed axis-aligned boxes in
R^M under the sup norm, so dilation keeps them boxes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence, Union

import numpy as np

from .errors import DepthUnsupported, ValidationError

SIMPLEX_TOL = 1e-12


def _as_readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class ModelSpec:
    """An IFS with probabilities: ratios r_1..r_N and M probability vectors."""

    ratios: np.ndarray
    measures: np.ndarray
    label: str = ""
    potential_depth: int = 1

    def __post_init__(self):
        ratios = _as_readonly(np.atleast_1d(self.ratios))
        measures = _as_readonly(np.atleast_2d(self.measures))
        object.__setattr__(self, "ratios", ratios)
        object.__setattr__(self, "measures", measures)
        if ratios.ndim != 1 or ratios.size < 2:
            raise ValidationError("need at least 2 contraction ratios")
        for i, r in enumerate(ratios):
            if not (0.0 < r < 1.0):
                raise ValidationError(f"ratios[{i}]={r}: ratio out of (0,1)")
        if measures.shape[1] != ratios.size:
            raise ValidationError(
                f"measures rows must have length N={ratios.size}, "
                f"got {measures.shape[1]}"
            )
        for m, row in enumerate(measures):
            for i, p in enumerate(row):
                if not p > 0.0:
                    raise ValidationError(
                        f"measures[{m}][{i}]={p}: probability must be > 0"
                    )
            if abs(float(row.sum()) - 1.0) > SIMPLEX_TOL:
                raise ValidationError(
                    f"measures[{m}] sums to {row.sum()!r}, expected 1"
                )
        if self.potential_depth < 1:
            raise ValidationError("potential_depth must be >= 1")

    @property
    def N(self) -> int:
        return self.ratios.size

    @property
    def M(self) -> int:
        return self.measures.shape[0]

    @property
    def log_ratios(self) -> np.ndarray:
        return np.log(self.ratios)

    @property
    def log_measures(self) -> np.ndarray:
        return np.log(self.measures)


@dataclass(frozen=True)
class PotentialTable:
    """A function on the shift space constant on depth-k cylinders.

    ``values`` is a k-dimensional array of shape (N,)*k; entry
    ``values[i1-1, ..., ik-1]`` is the value on the cylinder of the word
    i1..ik (symbols are 1-based in the public API, 0-based in arrays).
    """

    values: np.ndarray

    def __post_init__(self):
        v = _as_readonly(self.values)
        object.__setattr__(self, "values", v)
        if v.ndim < 1:
            raise ValidationError("potential table needs at least one axis")
        n = v.shape[0]
        if any(s != n for s in v.shape):
            raise ValidationError("potential table must be (N,)*depth shaped")
        if not np.all(np.isfinite(v)):
            raise ValidationError("potential table entries must be finite")

    @property
    def depth(self) -> int:
        return self.values.ndim

    @property
    def N(self) -> int:
        return self.values.shape[0]

    def value(self, symbols: Sequence[int]) -> float:
        """Value on the cylinder of a 1-based word of length >= depth."""
        idx = tuple(int(s) - 1 for s in symbols[: self.depth])
        return float(self.values[idx])

    def lift(self, depth: int) -> "PotentialTable":
        """Same function presented on deeper cylinders."""
        if depth < self.depth:
            raise DepthUnsupported("cannot lower a table's depth")
        if depth == self.depth:
            return self
        shape = self.values.shape + (1,) * (depth - self.depth)
        v = np.broadcast_to(self.values.reshape(shape), (self.N,) * depth)
        return PotentialTable(np.array(v))

    def oscillations(self) -> np.ndarray:
        """Oscillation over cylinders sharing a length-j prefix, j = 0..depth-1.

        Entry j is the largest value spread between two words agreeing on
        their first j symbols; entry 0 is the global spread.
        """
        out = np.empty(self.depth)
        for j in range(self.depth):
            v = self.values.reshape(self.N**j, -1)
            out[j] = float(np.max(v.max(axis=1) - v.min(axis=1)))
        return out

    def scale(self, t: float) -> "PotentialTable":
        return PotentialTable(self.values * float(t))

    def __add__(self, other: "PotentialTable") -> "PotentialTable":
        if self.N != other.N:
            raise ValidationError("alphabet sizes differ")
        depth = max(self.depth, other.depth)
        return PotentialTable(
            self.lift(depth).values + other.lift(depth).values
        )

    def __mul__(self, t: float) -> "PotentialTable":
        return self.scale(t)

    __rmul__ = __mul__


def build_potentials(spec: ModelSpec):
    """Scaling potential and per-measure log-weight potentials of a model.

    Returns (lam, phis) with lam the depth-1 table of log r_i and phis a
    tuple of depth-1 tables of log p_{m,i}, lifted to spec.potential_depth.
    """
    depth = spec.potential_depth
    lam = PotentialTable(spec.log_ratios).lift(depth)
    phis = tuple(
        PotentialTable(spec.log_measures[m]).lift(depth)
        for m in range(spec.M)
    )
    return lam, phis


@dataclass(frozen=True)
class TargetBox:
    """Closed axis-aligned box in R^M; a singleton has lo == hi."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = _as_readonly(np.atleast_1d(self.lo))
        hi = _as_readonly(np.atleast_1d(self.hi))
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValidationError("box lo/hi must be equal-length vectors")
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise ValidationError("box bounds must be finite")
        if np.any(lo > hi):
            raise ValidationError("box needs lo <= hi componentwise")

    @classmethod
    def point(cls, x) -> "TargetBox":
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return cls(x, x.copy())

    @classmethod
    def interval(cls, lo, hi) -> "TargetBox":
        return cls(np.atleast_1d(lo), np.atleast_1d(hi))

    @property
    def dim(self) -> int:
        return self.lo.size

    def dilate(self, r: float) -> "TargetBox":
        """Sup-norm ball of radius r around the box (again a box)."""
        if r < 0:
            raise ValidationError("dilation radius must be >= 0")
        return TargetBox(self.lo - r, self.hi + r)

    def contains_point(self, x) -> bool:
        x = np.asarray(x, dtype=float).reshape(self.dim)
        return bool(np.all(x >= self.lo) and np.all(x <= self.hi))

    def contains_box(self, lo, hi) -> bool:
        """Full inclusion of the interval box [lo, hi]."""
        lo = np.asarray(lo, dtype=float).reshape(self.dim)
        hi = np.asarray(hi, dtype=float).reshape(self.dim)
        return bool(np.all(lo >= self.lo) and np.all(hi <= self.hi))

    def contains_points(self, pts: np.ndarray) -> np.ndarray:
        """Vectorized membership for points of shape (..., M)."""
        pts = np.asarray(pts, dtype=float)
        return np.all((pts >= self.lo) & (pts <= self.hi), axis=-1)

    def contains_interval_hulls(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Vectorized full inclusion for hulls of shape (..., M)."""
        return np.all(
            (np.asarray(lo) >= self.lo) & (np.asarray(hi) <= self.hi), axis=-1
        )

    def distance(self, x) -> float:
        """Sup-norm distance from a point to the box."""
        x = np.asarray(x, dtype=float).reshape(self.dim)
        gap = np.maximum(np.maximum(self.lo - x, x - self.hi), 0.0)
        return float(np.max(gap))


@dataclass(frozen=True)
class ProductMeasureWeights:
    """Weights of a Bernoulli (product) measure on the shift space."""

    w: np.ndarray

    def __post_init__(self):
        w = _as_readonly(np.atleast_1d(self.w))
        object.__setattr__(self, "w", w)
        if np.any(w < -SIMPLEX_TOL):
            raise ValidationError("weights must be nonnegative")
        if abs(float(w.sum()) - 1.0) > SIMPLEX_TOL:
            raise ValidationError(f"weights sum to {w.sum()!r}, expected 1")

    @property
    def N(self) -> int:
        return self.w.size


def _stationary_vector(P: np.ndarray) -> np.ndarray:
    # Solve pi (P - I) = 0 with sum(pi) = 1 by least squares; works for
    # periodic chains too (stationarity does not need aperiodicity).
    n = P.shape[0]
    A = np.vstack([P.T - np.eye(n), np.ones((1, n))])
    b = np.zeros(n + 1)
    b[-1] = 1.0
    pi, *_ = np.linalg.lstsq(A, b, rcond=None)
    pi = np.clip(pi, 0.0, None)
    s = pi.sum()
    if s <= 0:
        raise ValidationError("could not find a stationary vector")
    return pi / s


@dataclass(frozen=True)
class MarkovWeights:
    """A row-stochastic matrix with its stationary vector (memory-1 measures)."""

    P: np.ndarray
    pi: np.ndarray = field(default=None)

    def __post_init__(self):
        P = _as_readonly(np.atleast_2d(self.P))
        object.__setattr__(self, "P", P)
        n = P.shape[0]
        if P.shape != (n, n):
            raise ValidationError("transition matrix must be square")
        if np.any(P < -SIMPLEX_TOL):
            raise ValidationError("transition probabilities must be >= 0")
        rows = P.sum(axis=1)
        if np.any(np.abs(rows - 1.0) > 1e-10):
            raise ValidationError("transition matrix rows must sum to 1")
        pi = self.pi
        if pi is None:
            pi = _stationary_vector(P)
        pi = _as_readonly(np.atleast_1d(pi))
        object.__setattr__(self, "pi", pi)
        if abs(float(pi.sum()) - 1.0) > 1e-9:
            raise ValidationError("stationary vector must sum to 1")
        if np.max(np.abs(pi @ P - pi)) > 1e-9:
            raise ValidationError("pi is not stationary for P")

    @property
    def N(self) -> int:
        return self.P.shape[0]


Measure = Union[ProductMeasureWeights, MarkovWeights]


def _xlogx(x: np.ndarray) -> np.ndarray:
    out = np.zeros_like(x)
    mask = x > 0
    out[mask] = x[mask] * np.log(x[mask])
    return out


def entropy(mu: Measure) -> float:
    """Measure-theoretic entropy; 0*log 0 = 0, value in [0, log N]."""
    if isinstance(mu, ProductMeasureWeights):
        return float(-np.sum(_xlogx(np.asarray(mu.w))))
    if isinstance(mu, MarkovWeights):
        rows = _xlogx(np.asarray(mu.P))
        return float(-np.sum(mu.pi[:, None] * rows))
    raise TypeError(f"unsupported measure family: {type(mu)!r}")


def integrate(mu: Measure, phi: PotentialTable) -> float:
    """Integral of a cylinder potential against a product or Markov measure.

    Product measures integrate any depth exactly (tensor contraction);
    memory-1 Markov measures are exact up to depth 2.
    """
    if isinstance(mu, ProductMeasureWeights):
        v = phi.values
        for _ in range(phi.depth):
            v = np.tensordot(np.asarray(mu.w), v, axes=(0, 0))
        return float(v)
    if isinstance(mu, MarkovWeights):
        if phi.depth == 1:
            return float(np.dot(mu.pi, phi.values))
        if phi.depth == 2:
            return float(np.sum(mu.pi[:, None] * mu.P * phi.values))
        raise DepthUnsupported(
            f"Markov family integrates depth <= 2 exactly, got {phi.depth}"
        )
    raise TypeError(f"unsupported measure family: {type(mu)!r}")


@dataclass(frozen=True)
class LevelMap:
    """The ratio map mu -> (int Phi_m dmu / int Lam dmu)_m used in constraints."""

    phis: tuple
    lam: PotentialTable

    def __post_init__(self):
        object.__setattr__(self, "phis", tuple(self.phis))
        if not self.phis:
            raise ValidationError("level map needs at least one numerator")
        for phi in self.phis:
            if phi.N != self.lam.N:
                raise ValidationError("level map tables disagree on N")
        if np.any(self.lam.values >= 0.0):
            raise ValidationError("level map denominator must be < 0")

    @classmethod
    def from_spec(cls, spec: ModelSpec) -> "LevelMap":
        lam, phis = build_potentials(spec)
        return cls(phis, lam)

    @property
    def M(self) -> int:
        return len(self.phis)

    @property
    def N(self) -> int:
        return self.lam.N

    @property
    def depth(self) -> int:
        return max(self.lam.depth, max(p.depth for p in self.phis))

    def is_depth1(self) -> bool:
        return self.depth == 1

    def depth1_vectors(self):
        """(P, lam) arrays of shape (M, N) and (N,) for the depth-1 case."""
        if not self.is_depth1():
            raise DepthUnsupported("level map is not depth 1")
        P = np.stack([p.values for p in self.phis])
        return P, np.asarray(self.lam.values)

    def symbol_ratios(self) -> np.ndarray:
        """Per-symbol ratio points (log p_{m,i} / log r_i)_m, shape (N, M).

        Only defined for depth-1 maps; their attainable level set is the
        convex hull of these points.
        """
        P, lam = self.depth1_vectors()
        return (P / lam).T


def level_map(mu: Measure, spec_or_level) -> np.ndarray:
    """Level vector (int Phi_m dmu / int Lam dmu)_m of a measure."""
    lev = (
        spec_or_level
        if isinstance(spec_or_level, LevelMap)
        else LevelMap.from_spec(spec_or_level)
    )
    den = integrate(mu, lev.lam)
    return np.array([integrate(mu, phi) / den for phi in lev.phis])


def moran_dimension(spec: ModelSpec, tol: float = 1e-14) -> float:
    """Root s of sum_i r_i^s = 1 by bisection (similarity dimension)."""
    lo, hi = 0.0, 1.0
    f = lambda s: float(np.sum(spec.ratios**s)) - 1.0
    while f(hi) > 0:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo < tol:
            break
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
