"""Fine multifractal spectra by the Legendre route and the variational route.

The temperature function beta(q) solves sum_i (prod_m p_{m,i}^{q_m}) r_i^beta = 1;
its negated gradient parameterizes the attainable level values alpha, and the
spectrum is the Legendre transform in the inf(<alpha,q> + beta(q)) convention.
The variational route maximizes the entropy of block frequencies, one
concave program per target box, and is kept algorithmically independent so
the two routes can cross-validate each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .errors import DepthUnsupported, InfeasibleConstraint, MfShiftError, ValidationError
from .logsum import NEG_INF, logsumexp
from .mfzeta import resolve_level
from .model import (
    LevelMap,
    MarkovWeights,
    ModelSpec,
    PotentialTable,
    ProductMeasureWeights,
    TargetBox,
    build_potentials,
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

    Only the M > 1 hull check solves a linear program: once per vector
    Legendre point and once per box supremum.  The scipy import is not paid
    on import of the package.
    """
    from scipy.optimize import linprog as scipy_linprog

    return scipy_linprog(*args, **kwargs)


def _as_q(spec: ModelSpec, q) -> np.ndarray:
    q = np.atleast_1d(np.asarray(q, dtype=float))
    if q.size != spec.M:
        raise ValidationError(f"q must have {spec.M} component(s)")
    if not np.all(np.isfinite(q)):
        raise ValidationError("q must be finite")
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


def _hull_meets_box(spec: ModelSpec, lo, hi) -> bool:
    """Whether the box [lo, hi] meets the attainable level values.

    They form the convex hull of the per-symbol ratio points
    v_i = (log p_{m,i} / log r_i)_m: an interval for M = 1, and for M > 1
    one feasibility LP over convex weights theta, lo <= sum theta_i v_i <= hi.
    """
    pts = LevelMap.from_spec(spec).symbol_ratios()  # (N, M)
    if spec.M == 1:
        return bool(pts.min() <= hi[0] and lo[0] <= pts.max())
    N = pts.shape[0]
    res = linprog(
        c=np.zeros(N),
        A_ub=np.vstack([pts.T, -pts.T]),
        b_ub=np.concatenate([hi, -lo]),
        A_eq=np.ones((1, N)),
        b_eq=[1.0],
        bounds=[(0.0, 1.0)] * N,
        method="highs",
    )
    return bool(res.success)


def _legendre_scalar(
    spec: ModelSpec, a: float, tol: float, q_cap: float
) -> LegendreResult:
    if not _hull_meets_box(spec, [a - 1e-12], [a + 1e-12]):
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
    if not _hull_meets_box(spec, alpha - 1e-12, alpha + 1e-12):
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
        # damped update, clipped to the q-cap: keep the residual decreasing,
        # stop when it cannot
        step = 1.0
        for _ in range(40):
            q_new = np.clip(q + step * dq, -q_cap, q_cap)
            bp_new = beta(spec, q_new)
            if float(np.max(np.abs(bp_new.alpha - alpha))) < err:
                break
            step *= 0.5
        else:
            break
        q, bp = q_new, bp_new
        if float(np.max(np.abs(q))) >= q_cap:
            return LegendreResult(float(alpha @ q + bp.beta), q, boundary=True)
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
    if not np.all(np.isfinite(alpha) & (alpha > 0)):
        raise ValidationError("alpha must be finite and positive componentwise")
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
    """Maximum of the concave spectrum over a target box, by its convex dual.

    sup_{alpha in C} f(alpha) = inf_q [beta(q) + sum_m max(lo_m q_m, hi_m q_m)]
    by minimax duality.  A box that misses the attainable hull gives -inf
    (the dual is unbounded below there).  With slacks s_m >= lo_m q_m and
    s_m >= hi_m q_m the dual is a smooth convex program in (q, s), gradient
    (-alpha(q), 1), solved by SLSQP with |q_m| <= the q-cap; the maximizer
    is alpha(q*) clipped to C.  Any q bounds the supremum from above, so an
    unconverged solve raises instead of returning an overestimate.
    """
    if C.dim != spec.M:
        raise ValidationError("target box dimension must match spec.M")
    M, lo, hi = spec.M, C.lo, C.hi
    if not _hull_meets_box(spec, lo, hi):
        return SupResult(NEG_INF, np.full(M, np.nan))
    from scipy.optimize import minimize

    def dual(z):
        bp = beta(spec, z[:M])
        return bp.beta + float(z[M:].sum()), np.concatenate([-bp.alpha, np.ones(M)])

    # s - lo q >= 0 and s - hi q >= 0 as rows over z = (q, s)
    rows = np.block([[-np.diag(lo), np.eye(M)], [-np.diag(hi), np.eye(M)]])
    res = minimize(
        dual,
        np.zeros(2 * M),
        jac=True,
        method="SLSQP",
        bounds=[(-DEFAULT_Q_CAP, DEFAULT_Q_CAP)] * M + [(None, None)] * M,
        constraints={"type": "ineq", "fun": lambda z: rows @ z, "jac": lambda z: rows},
        options={"ftol": 1e-15, "maxiter": 200},
    )
    # status 8: the line search stalled at rounding level
    if res.status not in (0, 8):
        raise MfShiftError(f"box-supremum dual: SLSQP status {res.status}, {res.message}")
    q = np.clip(res.x[:M], -DEFAULT_Q_CAP, DEFAULT_Q_CAP)
    bp = beta(spec, q)
    value = bp.beta + float(np.sum(np.maximum(lo * q, hi * q)))
    return SupResult(value, np.clip(bp.alpha, lo, hi))


# ---------------------------------------------------------------------------
# Variational route: one concave program over the k-block frequencies of an
# invariant measure, independent of the Legendre machinery above.


def _block_entropy(x: np.ndarray, N: int):
    """E(x) = -sum_b x_b log(x_b / m_p(b)) with its gradient and Hessian.

    The prefix p(b) drops the last symbol of the block b, and m_p sums x over
    the N blocks that share it; for 1-blocks the one prefix is empty and m is
    the total mass.  E is the entropy of the (k-1)-step Markov measure with
    block frequencies x times their total: concave and 1-homogeneous.
    """
    X = x.reshape(-1, N)
    m = X.sum(axis=1, keepdims=True)
    log_ratio = np.log(X / m)
    hess = np.kron(np.diag(1.0 / m[:, 0]), np.ones((N, N))) - np.diag(1.0 / x)
    return -float(np.sum(X * log_ratio)), -log_ratio.ravel(), hess


def _block_values(table: PotentialTable, k: int) -> np.ndarray:
    """A table of depth <= k on the N^k blocks, in lexicographic order.

    Integrals against block frequencies x are dot products with x.
    """
    return table.lift(k).values.ravel()


def _step_length(v, dv, z, dz, fraction):
    """Largest step <= 1 that keeps v and z positive, times ``fraction``."""
    ratios = np.concatenate([-v[dv < 0] / dv[dv < 0], -z[dz < 0] / dz[dz < 0]])
    return min(1.0, fraction * float(ratios.min())) if ratios.size else 1.0


def _interior_point(c, A, b, N=0, n_x=0):
    """Minimize c.v - E(v[:n_x]) subject to A v = b, v >= 0 (no E if N = 0).

    Dense primal-dual Newton steps with Mehrotra's predictor-corrector, from
    v = z = 1, with the exact gradient and Hessian of the block entropy.  It
    stops when each primal residual is <= 1e-13 times its row's |A| v (at
    least 1) and the mean complementarity v.z / n is <= 1e-14, or after 200
    steps.  The dual residual is not waited for: when the constraints force
    a block frequency to 0, its multiplier diverges.
    """
    n, n_eq = c.size, b.size
    v, z, y = np.ones(n), np.ones(n), np.zeros(n_eq)
    zero = np.zeros((n_eq, n_eq))
    abs_A = np.abs(A)
    for _ in range(200):
        grad, hess = c.copy(), np.zeros((n, n))
        if N:
            _, g, h = _block_entropy(v[:n_x], N)
            grad[:n_x] -= g
            hess[:n_x, :n_x] -= h
        r_p = A @ v - b
        mu = float(v @ z) / n
        if np.all(np.abs(r_p) <= 1e-13 * np.maximum(abs_A @ v, 1.0)) and mu <= 1e-14:
            break
        r_d = grad - A.T @ y - z
        K = np.block([[hess + np.diag(z / v), A.T], [A, zero]])

        def direction(r_c):
            sol = np.linalg.solve(K, np.concatenate([-r_d - r_c / v, -r_p]))
            dv = sol[:n]
            return dv, -sol[n:], -(r_c + z * dv) / v

        dv, dy, dz = direction(v * z)
        a = _step_length(v, dv, z, dz, 1.0)
        sigma = (float((v + a * dv) @ (z + a * dz)) / n / mu) ** 3
        dv, dy, dz = direction(v * z + dv * dz - sigma * mu)
        a = _step_length(v, dv, z, dz, 0.99)
        v, y, z = v + a * dv, y + a * dy, z + a * dz
    return v


def _with_slacks(eq: np.ndarray, ineq: np.ndarray) -> np.ndarray:
    """Rows [eq, 0; ineq, I]: each row of ineq . v <= 0 gets a slack column."""
    k = ineq.shape[0]
    return np.block([[eq, np.zeros((eq.shape[0], k))], [ineq, np.eye(k)]])


def variational_solve(
    spec: ModelSpec,
    C: TargetBox,
    phi: Optional[PotentialTable] = None,
    objective: str = "pressure",
    level: Optional[LevelMap] = None,
) -> VariationalResult:
    """sup of h + int(phi), or of -h / int(Lambda), over invariant measures
    whose level value lies in C.

    The constraint keeps the level value of ``level`` (the model's level map
    by default) in C; Lambda is always the model's scaling potential.  A
    measure enters through its k-block frequencies x, k the largest depth of
    the tables involved: Bernoulli measures for k = 1, memory-1 Markov
    measures (stationary pair frequencies) for k = 2, which are exact for
    such data; k > 2 raises ``DepthUnsupported``.  The entropy of x is
    concave and 1-homogeneous and the level map's denominator is negative,
    so the box becomes linear rows and the problem one concave program:
    int(-Lambda) = 1 for the dimension objective (Charnes-Cooper), sum x = 1
    for the pressure objective.  A linear phase first finds the least
    sup-norm violation of the box; above 1e-9 (times the largest |bound| of
    C when that exceeds 1) the target is infeasible.
    Kept independent of the Legendre machinery, so route agreement is a
    real cross-check.
    """
    if objective not in ("pressure", "dimension"):
        raise ValidationError("objective must be 'pressure' or 'dimension'")
    if objective == "pressure" and phi is None:
        raise ValidationError("pressure objective needs a potential")
    lev = resolve_level(spec, level, C)
    lam = build_potentials(spec)[0]
    tables = [lam, lev.lam, *lev.phis] + ([phi] if phi is not None else [])
    if any(t.N != spec.N for t in tables):
        raise ValidationError(f"every table must have N={spec.N} symbols")
    k = max(t.depth for t in tables)
    if k > 2:
        raise DepthUnsupported(f"variational route integrates depth <= 2, got {k}")
    N, n_x = spec.N, spec.N**k
    den = _block_values(lev.lam, k)
    num = np.stack([_block_values(p, k) for p in lev.phis])
    # u >= lo and u <= hi become G x <= 0: multiply by int(level.lam) < 0
    G = np.vstack([num - C.lo[:, None] * den, C.hi[:, None] * den - num])
    # stationarity of pair frequencies: sum_j x_ij = sum_j x_ji (one is implied)
    S = np.zeros((0, n_x))
    if k == 2:
        S = (np.kron(np.eye(N), np.ones(N)) - np.kron(np.ones(N), np.eye(N)))[1:]

    # phase I: the least t with every row <= t at int(-level.lam) = 1 is
    # the least sup-norm distance of the attainable level values to C
    A = _with_slacks(
        np.hstack([np.vstack([-den, S]), np.zeros((S.shape[0] + 1, 1))]),
        np.hstack([G, -np.ones((G.shape[0], 1))]),
    )
    t = _interior_point(np.eye(A.shape[1])[n_x], A, np.eye(A.shape[0])[0])[n_x]
    if t > 1e-9 * max(1.0, float(np.max(np.abs([C.lo, C.hi])))):
        raise InfeasibleConstraint(f"level values miss the target box by {t:.3e}")

    if objective == "dimension":
        norm, gain = -_block_values(lam, k), np.zeros(n_x)
    else:
        norm, gain = np.ones(n_x), _block_values(phi, k)
    A = _with_slacks(np.vstack([norm, S]), G)
    c = np.concatenate([-gain, np.zeros(G.shape[0])])
    x = _interior_point(c, A, np.eye(A.shape[0])[0], N, n_x)[:n_x]
    value = (_block_entropy(x, N)[0] + float(gain @ x)) / float(norm @ x)
    u = (num @ x) / float(den @ x)
    gap = float(np.linalg.norm(np.maximum(np.maximum(C.lo - u, u - C.hi), 0.0)))
    X = x.reshape(-1, N) / x.sum()
    if k == 1:
        weights = ProductMeasureWeights(X[0])
    else:
        pi = X.sum(axis=1)
        weights = MarkovWeights(X / pi[:, None], pi)
    return VariationalResult(value, weights, gap)
