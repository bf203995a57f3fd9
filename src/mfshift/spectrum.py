"""Fine multifractal spectra by the Legendre route and the variational route.

The temperature function beta(q) solves sum_i (prod_m p_{m,i}^{q_m}) r_i^beta = 1;
its negated gradient parameterizes the attainable level values alpha, and the
spectrum is the Legendre transform in the inf(<alpha,q> + beta(q)) convention.
The variational route maximizes entropy functionals over explicit measure
families and is kept algorithmically independent so the two routes can
cross-validate each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .errors import DepthUnsupported, InfeasibleConstraint, ValidationError
from .logsum import NEG_INF, logsumexp
from .mfzeta import resolve_level
from .model import (
    LevelMap,
    MarkovWeights,
    ModelSpec,
    PotentialTable,
    ProductMeasureWeights,
    TargetBox,
    _xlogx,
    build_potentials,
    entropy,
    integrate,
)

DEFAULT_Q_CAP = 60.0
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class BetaPoint:
    """A point on the temperature function: q, beta(q), alpha = -grad beta."""

    q: np.ndarray
    beta: float
    alpha: np.ndarray
    gibbs_weights: ProductMeasureWeights


@dataclass(frozen=True)
class LegendreResult:
    """Value of the spectrum at one alpha, with the minimizing q.

    ``boundary`` marks alpha on the edge of the attainable set, where the
    infimum is a limit and f is evaluated at the q-cap; unattainable alpha
    gives f = -inf and a nan q.
    """

    f: float
    q_star: np.ndarray
    boundary: bool = False


@dataclass(frozen=True)
class SpectrumCurve:
    """Sampled (alpha, f(alpha)) pairs with the per-point minimizing q."""

    alphas: np.ndarray
    f: np.ndarray
    q_at_min: np.ndarray
    meta: dict = field(default_factory=dict)


@dataclass(frozen=True)
class SupResult:
    value: float
    argmax: np.ndarray


@dataclass(frozen=True)
class VariationalResult:
    value: float
    weights: Union[ProductMeasureWeights, MarkovWeights]
    constraint_gap: float


def linprog(*args, **kwargs):
    """scipy.optimize.linprog, imported on the first call.

    Only the M > 1 hull check and the box-supremum search solve linear
    programs, so the scipy import is not paid on import of the package.
    """
    from scipy.optimize import linprog as scipy_linprog

    return scipy_linprog(*args, **kwargs)


def _as_q(spec: ModelSpec, q) -> np.ndarray:
    q = np.atleast_1d(np.asarray(q, dtype=float))
    if q.size != spec.M:
        raise ValidationError(f"q must have {spec.M} component(s)")
    return q


def beta(spec: ModelSpec, q, tol: float = 1e-12) -> BetaPoint:
    """Solve sum_i (prod_m p_{m,i}^{q_m}) r_i^b = 1 for b by Newton.

    g(b) = log sum_i exp(<q, log p_i> + b log r_i) is convex and strictly
    decreasing because every r_i < 1, so the root exists, is unique, and
    Newton converges to it from any start.  Its derivative g'(b) is the
    Gibbs mean of log r, the same weights that give alpha.  The start is
    the equal-ratio closed form with the mean of log r as the common ratio.
    """
    q = _as_q(spec, q)
    lp = spec.log_measures  # (M, N)
    lr = spec.log_ratios  # (N,)
    base = q @ lp  # (N,)
    b = logsumexp(base) / -float(lr.mean())
    for _ in range(100):
        x = base + b * lr
        top = float(x.max())
        e = np.exp(x - top)
        s = float(e.sum())
        step = (top + math.log(s)) * s / float(e @ lr)
        b -= step
        if abs(step) <= 4.0 * _EPS * max(1.0, abs(b)):
            break
    w = np.exp(base + b * lr)
    residual = math.log(float(w.sum()))
    if not abs(residual) <= max(tol, 1e-11):
        raise ValidationError(
            f"beta Newton solve left residual {residual:.3e} at q={q.tolist()}"
        )
    w = w / w.sum()
    alpha = (w @ lp.T) / (w @ lr)
    return BetaPoint(q, b, alpha, ProductMeasureWeights(w))


def beta_gradient(spec: ModelSpec, bp: BetaPoint) -> np.ndarray:
    """alpha(q) = -grad beta(q) from the Gibbs weights of the point.

    With weights w_i proportional to (prod_m p_{m,i}^{q_m}) r_i^beta this is
    (sum_i w_i log p_{m,i}) / (sum_i w_i log r_i), a ratio of two negative
    numbers, hence positive.
    """
    w = bp.gibbs_weights.w
    return (w @ spec.log_measures.T) / (w @ spec.log_ratios)


def _newton_jacobian(spec: ModelSpec, bp: BetaPoint) -> np.ndarray:
    """d alpha / d q at a solved beta point (implicit function theorem)."""
    lp = spec.log_measures
    lr = spec.log_ratios
    u = bp.gibbs_weights.w
    A = lp @ u  # (M,)
    B = float(lr @ u)
    dbeta = -A / B  # partial beta / partial q_l
    M = spec.M
    J = np.empty((M, M))
    for l in range(M):
        du = u * (lp[l] + lr * dbeta[l])  # d u_i / d q_l (unnormalized G terms)
        dA = lp @ du
        dB = float(lr @ du)
        J[:, l] = (dA * B - A * dB) / B**2
    return J


def attainable_hull_contains(
    spec: ModelSpec, alpha, tol: float = 1e-9
) -> bool:
    """Membership of alpha in the closed attainable level-value set.

    The attainable set of a depth-1 level map is the convex hull of the
    per-symbol ratio points (log p_{m,i} / log r_i)_m.
    """
    alpha = np.atleast_1d(np.asarray(alpha, dtype=float))
    pts = LevelMap.from_spec(spec).symbol_ratios()  # (N, M)
    if spec.M == 1:
        v = pts[:, 0]
        return bool(v.min() - tol <= alpha[0] <= v.max() + tol)
    N = pts.shape[0]
    # theta >= 0, sum theta = 1, sum theta v_i = alpha (within tol via bounds)
    A_eq = np.vstack([pts.T, np.ones((1, N))])
    b_eq = np.concatenate([alpha, [1.0]])
    res = linprog(
        c=np.zeros(N),
        A_eq=A_eq,
        b_eq=b_eq,
        bounds=[(0.0, 1.0)] * N,
        method="highs",
    )
    if res.success:
        return True
    # retry with a tol-relaxed box around alpha
    A_ub = np.vstack([pts.T, -pts.T])
    b_ub = np.concatenate([alpha + tol, -(alpha - tol)])
    res = linprog(
        c=np.zeros(N),
        A_ub=A_ub,
        b_ub=b_ub,
        A_eq=np.ones((1, N)),
        b_eq=[1.0],
        bounds=[(0.0, 1.0)] * N,
        method="highs",
    )
    return bool(res.success)


def _legendre_scalar(
    spec: ModelSpec, a: float, tol: float, q_cap: float
) -> LegendreResult:
    v = LevelMap.from_spec(spec).symbol_ratios()[:, 0]
    if not (v.min() - 1e-12 <= a <= v.max() + 1e-12):
        return LegendreResult(NEG_INF, np.array([np.nan]))

    def alpha_of(q: float) -> float:
        return float(beta(spec, q).alpha[0])

    # alpha(q) is strictly decreasing; expand a bracket with
    # alpha(hi) <= a <= alpha(lo), stopping at the q-cap.
    lo, hi = -1.0, 1.0
    while alpha_of(lo) < a:
        lo *= 2.0
        if lo < -q_cap:
            bp = beta(spec, -q_cap)
            f = a * (-q_cap) + bp.beta
            return LegendreResult(f, np.array([-q_cap]), boundary=True)
    while alpha_of(hi) > a:
        hi *= 2.0
        if hi > q_cap:
            bp = beta(spec, q_cap)
            f = a * q_cap + bp.beta
            return LegendreResult(f, np.array([q_cap]), boundary=True)
    # safeguarded Newton on alpha(q) = a: a step that leaves the bracket
    # is replaced by the bracket midpoint
    width = max(tol * 1e-2, 1e-13)
    q = 0.5 * (lo + hi)
    bp = beta(spec, q)
    for _ in range(200):
        h = float(bp.alpha[0]) - a
        if h > 0.0:
            lo = q
        elif h < 0.0:
            hi = q
        else:
            break
        q_new = q - h / float(_newton_jacobian(spec, bp)[0, 0])
        if not lo < q_new < hi:
            q_new = 0.5 * (lo + hi)
        if abs(q_new - q) <= width or hi - lo <= width:
            break
        q = q_new
        bp = beta(spec, q)
    return LegendreResult(a * q + bp.beta, np.array([q]))


def _legendre_newton(
    spec: ModelSpec, alpha: np.ndarray, tol: float, q_cap: float
) -> LegendreResult:
    if not attainable_hull_contains(spec, alpha, tol=1e-12):
        return LegendreResult(NEG_INF, np.full(spec.M, np.nan))
    q = np.zeros(spec.M)
    bp = beta(spec, q)
    for _ in range(200):
        h = bp.alpha - alpha
        err = float(np.max(np.abs(h)))
        if err <= max(tol, 1e-12):
            break
        J = _newton_jacobian(spec, bp)
        # least squares: J is singular when the level set is degenerate
        # (N=2 with two measures), and h then lies in its range
        dq = np.linalg.lstsq(J, -h, rcond=None)[0]
        # damped update: keep the residual decreasing, stop when it cannot
        step = 1.0
        for _ in range(40):
            q_new = q + step * dq
            bp_new = beta(spec, q_new)
            if float(np.max(np.abs(bp_new.alpha - alpha))) < err:
                break
            step *= 0.5
        else:
            break
        q, bp = q_new, bp_new
        if float(np.max(np.abs(q))) > q_cap:
            q = np.clip(q, -q_cap, q_cap)
            bp = beta(spec, q)
            f = float(alpha @ q + bp.beta)
            return LegendreResult(f, q, boundary=True)
    return LegendreResult(float(alpha @ q + bp.beta), q)


def legendre(
    spec: ModelSpec,
    alpha,
    tol: float = 1e-10,
    q_cap: float = DEFAULT_Q_CAP,
) -> LegendreResult:
    """Spectrum value inf_q (<alpha, q> + beta(q)) at one alpha.

    Scalar alpha brackets the monotone tangency condition -beta'(q) = alpha
    by doubling out to the q-cap, then solves it by Newton with d alpha / d q
    as the slope, falling back to the bracket midpoint whenever a step leaves
    the bracket.  Vector alpha uses damped Newton on the gradient with a
    least-squares step, so a singular Jacobian (a degenerate level set)
    still gives the transform value.
    Unattainable alpha returns -inf; attainable-boundary alpha returns the
    limiting value at the q-cap with the boundary flag set.
    """
    alpha = np.atleast_1d(np.asarray(alpha, dtype=float))
    if alpha.size != spec.M:
        raise ValidationError(f"alpha must have {spec.M} component(s)")
    if np.any(alpha <= 0):
        raise ValidationError("alpha must be positive componentwise")
    if spec.M == 1:
        return _legendre_scalar(spec, float(alpha[0]), tol, q_cap)
    return _legendre_newton(spec, alpha, tol, q_cap)


def spectrum_sweep(spec: ModelSpec, alpha_grid) -> SpectrumCurve:
    """Legendre spectrum on a grid of alphas (unattainable points keep -inf)."""
    alphas = np.atleast_2d(np.asarray(alpha_grid, dtype=float))
    if alphas.shape[0] == 1 and alphas.shape[1] != spec.M:
        alphas = alphas.reshape(-1, spec.M)
    if alphas.shape[1] != spec.M:
        raise ValidationError("alpha grid has wrong dimension")
    f = np.empty(alphas.shape[0])
    q_at = np.empty_like(alphas)
    for i, a in enumerate(alphas):
        res = legendre(spec, a)
        f[i] = res.f
        q_at[i] = res.q_star
    return SpectrumCurve(
        alphas=alphas,
        f=f,
        q_at_min=q_at,
        meta={"method": "legendre", "label": spec.label, "osc_assumed": True},
    )


def sup_spectrum(spec: ModelSpec, C: TargetBox) -> SupResult:
    """Maximum of the concave spectrum over a target box.

    The unconstrained peak sits at alpha(0) with value the similarity
    dimension; when the box misses it, the maximizer lies on the box
    boundary and is located through the monotone parameterization by q.
    """
    if C.dim != spec.M:
        raise ValidationError("target box dimension must match spec.M")
    bp0 = beta(spec, np.zeros(spec.M))
    if C.contains_point(bp0.alpha):
        return SupResult(bp0.beta, bp0.alpha.copy())
    if spec.M == 1:
        v = LevelMap.from_spec(spec).symbol_ratios()[:, 0]
        lo = max(float(C.lo[0]), float(v.min()))
        hi = min(float(C.hi[0]), float(v.max()))
        if lo > hi:
            return SupResult(NEG_INF, np.array([np.nan]))
        a_star = min(max(float(bp0.alpha[0]), lo), hi)
        res = legendre(spec, a_star)
        return SupResult(res.f, np.array([a_star]))
    return _sup_spectrum_ascent(spec, C, bp0)


def _sup_spectrum_ascent(
    spec: ModelSpec, C: TargetBox, bp0: BetaPoint
) -> SupResult:
    # projected supergradient ascent on the concave Legendre transform;
    # the minimizing q at alpha is a supergradient there.
    a = np.clip(bp0.alpha, C.lo, C.hi)
    res = legendre(spec, a)
    if res.f == NEG_INF:
        a0 = _feasible_box_point(spec, C)
        if a0 is None:
            return SupResult(NEG_INF, np.full(spec.M, np.nan))
        a = a0
        res = legendre(spec, a)
    best_a, best_f = a.copy(), res.f
    step = 0.5
    for k in range(1, 301):
        g = res.q_star
        if np.any(~np.isfinite(g)):
            break
        trial = np.clip(a + step / math.sqrt(k) * g, C.lo, C.hi)
        tr = legendre(spec, trial)
        if tr.f == NEG_INF:
            step *= 0.5
            if step < 1e-12:
                break
            continue
        a, res = trial, tr
        if tr.f > best_f:
            best_f, best_a = tr.f, trial.copy()
        if float(np.max(np.abs(g))) * step / math.sqrt(k) < 1e-12:
            break
    return SupResult(best_f, best_a)


def _feasible_box_point(spec: ModelSpec, C: TargetBox):
    """Any attainable level point inside the box, or None."""
    pts = LevelMap.from_spec(spec).symbol_ratios()
    N = pts.shape[0]
    A_ub = np.vstack([pts.T, -pts.T])
    b_ub = np.concatenate([C.hi, -C.lo])
    res = linprog(
        c=np.zeros(N),
        A_ub=A_ub,
        b_ub=b_ub,
        A_eq=np.ones((1, N)),
        b_eq=[1.0],
        bounds=[(0.0, 1.0)] * N,
        method="highs",
    )
    if not res.success:
        return None
    return pts.T @ res.x


# ---------------------------------------------------------------------------
# Variational route: explicit optimization over Bernoulli or memory-1 Markov
# measures, independent of the Legendre machinery above.


def _simplex_project(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex (sort-based)."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    rho = np.nonzero(u + (1.0 - css) / np.arange(1, u.size + 1) > 0)[0][-1]
    lam = (1.0 - css[rho]) / (rho + 1.0)
    return np.maximum(v + lam, 0.0)


def _simplex_grid(N: int, step: float, rng: np.random.Generator):
    """Dense simplex grid for N <= 3, seeded random cover otherwise."""
    k = int(round(1.0 / step))
    if N == 2:
        t = np.arange(k + 1) / k
        return np.stack([t, 1.0 - t], axis=1)
    if N == 3:
        pts = []
        for i in range(k + 1):
            for j in range(k + 1 - i):
                pts.append((i / k, j / k, (k - i - j) / k))
        return np.array(pts)
    pts = rng.dirichlet(np.ones(N), size=20000)
    pts = np.vstack([pts, np.eye(N), np.full((1, N), 1.0 / N)])
    return pts


def _box_gap_sq(u: np.ndarray, C: TargetBox):
    """Squared Euclidean distance of level vectors (..., M) to the box."""
    gap = np.maximum(np.maximum(C.lo - u, u - C.hi), 0.0)
    return np.sum(gap * gap, axis=-1)


def _product_integral(w: np.ndarray, table: PotentialTable) -> float:
    """Integral of a cylinder table against the product measure w.

    The axes are contracted in the order ``integrate`` uses; the last
    contraction is a plain dot product, which gives the same bits as the
    tensordot there.
    """
    v = table.values
    for _ in range(table.depth - 1):
        v = np.tensordot(w, v, axes=(0, 0))
    return float(np.dot(w, v))


def _product_integrals(W: np.ndarray, table: PotentialTable) -> np.ndarray:
    """Integrals of a cylinder table against every row of W, shape (k,)."""
    k, N = W.shape
    v = W @ table.values.reshape(N, -1)  # (k, N^(depth-1))
    for _ in range(table.depth - 1):
        v = np.einsum("ki,kij->kj", W, v.reshape(k, N, -1))
    return v.reshape(k)


class _Problem:
    """Shared state for the constrained measure-family optimizers.

    The constraint keeps the level value in C; the dimension objective
    always divides by the model's scaling integral, whatever the level map.
    ``evaluate_one`` gives the objective and the level vector of one point,
    ``evaluate`` those of a stack of points.
    """

    def __init__(self, spec, C, phi, objective, level):
        self.spec = spec
        self.C = C
        self.phi = phi
        self.objective = objective
        self.level = resolve_level(spec, level, C)
        self.lam = build_potentials(spec)[0]

    def _score(self, h, integral):
        """Objective and level vector from the entropy and an integral map.

        ``integral`` takes a table to its integral against the point, or to
        the integrals against a stack of points; the level vector then has
        shape (M,) or (k, M).
        """
        if self.objective == "dimension":
            obj = -h / integral(self.lam)
        else:
            obj = h + integral(self.phi)
        den = integral(self.level.lam)
        return obj, np.array([integral(p) / den for p in self.level.phis]).T

    def evaluate_one(self, x):
        mu = self.measure(x)
        return self._score(entropy(mu), lambda table: integrate(mu, table))

    def evaluate(self, X):
        pairs = [self.evaluate_one(x) for x in X]
        return (
            np.array([obj for obj, _ in pairs]),
            np.array([u for _, u in pairs]),
        )

    def constraint_lipschitz(self):
        lev = self.level
        lam_abs = np.abs(lev.lam.values)
        lam_min = float(lam_abs.min())
        u_max = max(
            float(np.max(np.abs(p.values))) / lam_min for p in lev.phis
        )
        p_max = max(float(np.max(np.abs(p.values))) for p in lev.phis)
        return (p_max + u_max * float(lam_abs.max())) / lam_min * self.spec.N


class _BernoulliProblem(_Problem):
    """Product measures, evaluated from the weight vector without a measure
    object: a clipped, normalised point always passes the measure's checks."""

    def measure(self, w):
        # finite-difference probes sit slightly off the simplex
        w = np.clip(np.asarray(w, dtype=float), 0.0, None)
        return ProductMeasureWeights(w / w.sum())

    def evaluate_one(self, x):
        w = np.clip(np.asarray(x, dtype=float), 0.0, None)
        w = w / w.sum()
        return self._score(
            -float(np.sum(_xlogx(w))), lambda table: _product_integral(w, table)
        )

    def evaluate(self, X):
        W = np.clip(np.asarray(X, dtype=float), 0.0, None)
        W = W / W.sum(axis=1, keepdims=True)
        return self._score(
            -np.sum(_xlogx(W), axis=1), lambda table: _product_integrals(W, table)
        )

    def project(self, w):
        return _simplex_project(w)

    def seeds(self, rng, grid_step):
        return _simplex_grid(self.spec.N, grid_step, rng)

    def _face_gradients(self):
        """Pairs (phi_m, lam): face (phi_m - c lam) . w = 0 is affine in w."""
        if not self.level.is_depth1():
            return None
        P, lam = self.level.depth1_vectors()
        return [(P[m], lam) for m in range(self.C.dim)]

    def snap(self, w):
        """Exact affine correction onto the nearest violated box face.

        The level ratio is affine-representable in w after clearing its
        sign-definite denominator.
        """
        faces = self._face_gradients()
        if faces is None:
            return None
        _, u = self.evaluate_one(w)
        w2 = np.asarray(w, dtype=float).copy()
        changed = False
        for m in range(u.size):
            c = None
            if u[m] < self.C.lo[m]:
                c = float(self.C.lo[m])
            elif u[m] > self.C.hi[m]:
                c = float(self.C.hi[m])
            if c is None:
                continue
            grad, lam = faces[m]
            g = grad - c * lam  # face: (phi - c lam) . w = 0
            g_t = g - g.mean()
            denom = float(g_t @ g_t)
            if denom <= 0:
                return None
            w2 = w2 - (float(g @ w2) / denom) * g_t
            changed = True
        if not changed:
            return None
        return self.project(w2)


class _MarkovProblem(_Problem):
    def measure(self, theta):
        N = self.spec.N
        P = np.clip(theta.reshape(N, N).astype(float), 0.0, None)
        return MarkovWeights(P / P.sum(axis=1, keepdims=True))

    def project(self, theta):
        N = self.spec.N
        P = theta.reshape(N, N)
        return np.stack([_simplex_project(row) for row in P]).ravel()

    def seeds(self, rng, grid_step):
        N = self.spec.N
        seeds = [np.full((N, N), 1.0 / N)]
        off = (np.ones((N, N)) - np.eye(N)) / max(N - 1, 1)
        seeds.append(off)
        for _ in range(200):
            seeds.append(rng.dirichlet(np.ones(N), size=N))
        return np.stack([s.ravel() for s in seeds])

    def snap(self, theta):
        """Zero out near-vanishing transitions (face snapping)."""
        N = self.spec.N
        P = theta.reshape(N, N).copy()
        small = P < 1e-4
        if not small.any() or small.all(axis=1).any():
            return None
        P[small] = 0.0
        P = P / P.sum(axis=1, keepdims=True)
        return P.ravel()


def _numeric_gradient(fn, x, h=1e-7):
    g = np.empty_like(x)
    for i in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        g[i] = (fn(xp) - fn(xm)) / (2 * h)
    return g


def _active_faces(problem, x, tol=1e-7):
    """Affine rows (A, b) of the simplex plane plus touched box faces."""
    faces = getattr(problem, "_face_gradients", lambda: None)()
    if faces is None:
        return None
    _, u = problem.evaluate_one(x)
    rows = [np.ones_like(np.asarray(x, dtype=float))]
    rhs = [1.0]
    for m in range(u.size):
        for c in (float(problem.C.lo[m]), float(problem.C.hi[m])):
            if abs(u[m] - c) <= tol:
                grad, lam = faces[m]
                rows.append(np.asarray(grad - c * lam, dtype=float))
                rhs.append(0.0)
                break
    if len(rows) == 1:
        return None
    return np.vstack(rows), np.array(rhs)


def _face_polish(problem, x, iters=200):
    """Ascent restricted to the active affine faces of the box constraint.

    The penalty polish is stiff across a face, so a maximizer sitting on
    the constraint boundary is refined by projecting gradients onto the
    face tangent space and re-snapping each accepted step.
    """
    active = _active_faces(problem, x)
    if active is None:
        return None
    A, b = active
    AAt = A @ A.T

    def onto_face(y):
        correction, *_ = np.linalg.lstsq(AAt, A @ y - b, rcond=None)
        y = y - A.T @ correction
        return np.clip(y, 0.0, None)

    def objective(y):
        return problem.evaluate_one(y)[0]

    x = onto_face(np.asarray(x, dtype=float).copy())
    f_cur = objective(x)
    step = 0.05
    for _ in range(iters):
        g = _numeric_gradient(objective, x)
        coeff, *_ = np.linalg.lstsq(AAt, A @ g, rcond=None)
        d = g - A.T @ coeff
        moved = False
        while step >= 1e-14:
            x_new = onto_face(x + step * d)
            f_new = objective(x_new)
            if f_new > f_cur + 1e-16:
                x, f_cur = x_new, f_new
                moved = True
                step *= 1.5
                break
            step *= 0.5
        if not moved or step * float(np.max(np.abs(d))) < 1e-13:
            break
    return x


def _polish(problem, x0, tol):
    """Projected-gradient ascent with an increasing box-violation penalty."""
    x = problem.project(np.asarray(x0, dtype=float).copy())
    for rho in (1e3, 1e5, 1e7):

        def penalized(y):
            obj, u = problem.evaluate_one(y)
            return obj - rho * _box_gap_sq(u, problem.C)

        step = 0.1
        f_cur = penalized(x)
        for _ in range(250):
            g = _numeric_gradient(penalized, x)
            moved = False
            while step >= 1e-12:
                x_new = problem.project(x + step * g)
                f_new = penalized(x_new)
                if f_new > f_cur + 1e-15:
                    x, f_cur = x_new, f_new
                    moved = True
                    step *= 1.6
                    break
                step *= 0.5
            if not moved:
                break
            if step * float(np.max(np.abs(g))) < tol * 1e-3:
                break
    return x


def _best_candidate(problem, candidates, feas_tol=1e-8):
    best = None
    for x in candidates:
        val, u = problem.evaluate_one(x)
        gap = math.sqrt(_box_gap_sq(u, problem.C))
        key = (gap <= feas_tol, -gap, val)
        if best is None or key > best[0]:
            best = (key, x, val, gap)
    _, x, val, gap = best
    return x, val, gap


def _variational_optimize(problem, grid_step, tol, seed):
    rng = np.random.default_rng(seed)
    seeds = problem.seeds(rng, grid_step)
    vals, levels = problem.evaluate(seeds)
    gaps = np.sqrt(_box_gap_sq(levels, problem.C))
    slack = grid_step * problem.constraint_lipschitz()
    feasible = gaps <= slack
    if not feasible.any():
        raise InfeasibleConstraint(
            "no seed satisfies the target constraint within the grid slack"
        )
    order = np.argsort(np.where(feasible, vals, -np.inf))[::-1]
    starts = [seeds[i] for i in order[:3]]
    starts.append(seeds[int(np.argmin(gaps))])
    candidates = []
    for s in starts:
        x = _polish(problem, s, tol)
        candidates.append(x)
        snapped = problem.snap(x)
        if snapped is not None:
            candidates.append(snapped)
    x, val, gap = _best_candidate(problem, candidates)
    if gap <= 1e-8:
        refined = _face_polish(problem, x)
        if refined is not None:
            x, val, gap = _best_candidate(problem, candidates + [refined])
    return x, val, gap


def variational_solve(
    spec: ModelSpec,
    C: TargetBox,
    phi: Optional[PotentialTable] = None,
    family: str = "bernoulli",
    objective: str = "pressure",
    grid_step: float = 1e-2,
    tol: float = 1e-6,
    seed: int = 0,
    level: Optional[LevelMap] = None,
) -> VariationalResult:
    """Constrained maximization of h + int(phi) (or -h / int(Lambda)) over a
    measure family.

    The constraint keeps the level value of ``level`` (the model's level
    map by default) in C; Lambda is always the model's scaling potential.
    Dense grid seeding followed by penalized projected-gradient polish;
    kept deliberately independent of the Legendre machinery so route
    agreement is a real cross-check.  ``grid_step`` must lie in (0, 1] and
    ``tol`` be positive.
    """
    if objective not in ("pressure", "dimension"):
        raise ValidationError("objective must be 'pressure' or 'dimension'")
    if objective == "pressure" and phi is None:
        raise ValidationError("pressure objective needs a potential")
    if not (math.isfinite(grid_step) and 0.0 < grid_step <= 1.0):
        raise ValidationError(f"grid_step={grid_step!r}: need 0 < grid_step <= 1")
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValidationError(f"tol={tol!r}: need a finite tol > 0")
    if family == "bernoulli":
        problem = _BernoulliProblem(spec, C, phi, objective, level)
    elif family == "markov1":
        if phi is not None and phi.depth > 2:
            raise DepthUnsupported("markov1 family integrates depth <= 2")
        problem = _MarkovProblem(spec, C, phi, objective, level)
    else:
        raise ValidationError("family must be 'bernoulli' or 'markov1'")
    x, val, gap = _variational_optimize(problem, grid_step, tol, seed)
    return VariationalResult(val, problem.measure(x), gap)
