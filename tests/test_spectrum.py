import math

import numpy as np
import pytest

import mfshift.spectrum as spectrum_mod
from mfshift.birkhoff import ObservableTable, erg_spectrum_variational
from mfshift.errors import InfeasibleConstraint, ValidationError
from mfshift.logsum import NEG_INF
from mfshift.model import (
    LevelMap,
    ModelSpec,
    PotentialTable,
    ProductMeasureWeights,
    TargetBox,
    entropy,
    integrate,
    level_map,
    moran_dimension,
)
from mfshift.spectrum import (
    DEFAULT_Q_CAP,
    _BernoulliProblem,
    beta,
    beta_gradient,
    legendre,
    spectrum_sweep,
    sup_spectrum,
    variational_solve,
)

from conftest import zero_potential

LOG2 = math.log(2)
ALPHA0 = 2.0 - math.log2(3) / 2.0  # level value at q=0 for the quarter spec
ALPHA1 = -(0.25 * math.log2(0.25) + 0.75 * math.log2(0.75))


def random_specs(count, seed=3):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        N = int(rng.integers(2, 4))
        ratios = rng.uniform(0.15, 0.8, size=N)
        p = rng.uniform(0.05, 1.0, size=N)
        p /= p.sum()
        out.append(ModelSpec(ratios=ratios, measures=[p]))
    return out


def test_beta_anchor_values(quarter_spec):
    assert beta(quarter_spec, 0.0).beta == pytest.approx(1.0, abs=1e-12)
    assert beta(quarter_spec, 1.0).beta == pytest.approx(0.0, abs=1e-12)
    assert beta(quarter_spec, 2.0).beta == pytest.approx(
        math.log2(5 / 8), abs=1e-12
    )


def test_beta_anchors_random_specs():
    for spec in random_specs(20):
        s = moran_dimension(spec)
        assert beta(spec, 0.0).beta == pytest.approx(s, abs=1e-10)
        assert beta(spec, 1.0).beta == pytest.approx(0.0, abs=1e-10)


def test_beta_convexity_on_grid(quarter_spec):
    qs = np.arange(-5.0, 5.0 + 1e-9, 0.1)
    vals = np.array([beta(quarter_spec, q).beta for q in qs])
    assert np.all(np.diff(vals) < 0)
    assert np.min(np.diff(vals, 2)) >= -1e-10


# q from -cap to cap, both ends included
Q_WIDE = np.linspace(-DEFAULT_Q_CAP, DEFAULT_Q_CAP, 97)


def test_beta_identity_unequal_ratios():
    ratios = [0.4, 0.35, 0.3]
    p = [0.2, 0.3, 0.5]
    spec = ModelSpec(ratios=ratios, measures=[p])
    for q in Q_WIDE:
        b = beta(spec, q).beta
        total = math.fsum(pi ** float(q) * ri**b for pi, ri in zip(p, ratios))
        assert abs(math.log(total)) <= 1e-13, q


def test_beta_matches_equal_ratio_closed_form(quarter_spec, ternary_spec):
    for spec in (quarter_spec, ternary_spec):
        p = spec.measures[0].tolist()
        log_r = math.log(spec.ratios[0])
        for q in Q_WIDE:
            closed = math.log(math.fsum(pi ** float(q) for pi in p)) / -log_r
            assert abs(beta(spec, q).beta - closed) <= 1e-13, (spec.label, q)


def test_beta_gradient_examples(quarter_spec, uniform_spec):
    assert beta_gradient(quarter_spec, beta(quarter_spec, 0.0))[
        0
    ] == pytest.approx(ALPHA0, abs=1e-10)
    assert beta_gradient(quarter_spec, beta(quarter_spec, 1.0))[
        0
    ] == pytest.approx(ALPHA1, abs=1e-10)
    for q in (-3.0, 0.0, 2.5):
        assert beta_gradient(uniform_spec, beta(uniform_spec, q))[
            0
        ] == pytest.approx(1.0, abs=1e-12)


def test_gibbs_weights_consistency(quarter_spec):
    for q in (-2.0, 0.0, 0.5, 1.0, 4.0):
        bp = beta(quarter_spec, q)
        lv = level_map(bp.gibbs_weights, quarter_spec)
        assert abs(lv[0] - bp.alpha[0]) < 1e-9


def test_legendre_duality_on_grid(quarter_spec):
    for q in np.linspace(-4, 4, 41):
        bp = beta(quarter_spec, q)
        res = legendre(quarter_spec, bp.alpha)
        assert res.f == pytest.approx(q * bp.alpha[0] + bp.beta, abs=1e-8)
        assert res.q_star[0] == pytest.approx(q, abs=1e-8)


def test_legendre_peak_and_diagonal(quarter_spec):
    peak = legendre(quarter_spec, ALPHA0)
    assert peak.f == pytest.approx(1.0, abs=1e-9)
    assert peak.q_star[0] == pytest.approx(0.0, abs=1e-8)
    diag = legendre(quarter_spec, ALPHA1)
    assert diag.f == pytest.approx(ALPHA1, abs=1e-9)
    assert diag.q_star[0] == pytest.approx(1.0, abs=1e-8)


def test_legendre_boundary_and_exterior(quarter_spec):
    boundary = legendre(quarter_spec, 2.0)
    assert boundary.boundary
    assert boundary.f == pytest.approx(0.0, abs=1e-12)
    exterior = legendre(quarter_spec, 2.5)
    assert exterior.f == NEG_INF
    low = legendre(quarter_spec, 0.2)
    assert low.f == NEG_INF
    with pytest.raises(ValidationError):
        legendre(quarter_spec, -1.0)


def test_spectrum_sweep_uniform(uniform_spec):
    curve = spectrum_sweep(uniform_spec, [0.7, 1.0, 1.3])
    assert curve.f[0] == NEG_INF and curve.f[2] == NEG_INF
    assert curve.f[1] == pytest.approx(1.0, abs=1e-10)


def test_spectrum_sweep_concave_with_unit_peak(quarter_spec):
    alphas = np.linspace(0.45, 1.95, 31)
    curve = spectrum_sweep(quarter_spec, alphas)
    finite = np.isfinite(curve.f)
    assert finite.all()
    assert float(curve.f.max()) <= 1.0 + 1e-12
    peak_alpha = curve.alphas[np.argmax(curve.f), 0]
    assert abs(peak_alpha - ALPHA0) < 0.06  # grid resolution
    second = np.diff(curve.f, 2)
    assert np.max(second) <= 1e-8  # concavity along the grid


def _equal_ratio_curve(spec, q):
    """Closed-form (alpha(q), f(alpha(q))) of an equal-ratio M = 1 model."""
    p = spec.measures[0].tolist()
    log_r = math.log(spec.ratios[0])
    z = math.fsum(pi**q for pi in p)
    b = math.log(z) / -log_r
    a = math.fsum(pi**q * math.log(pi) for pi in p) / (z * log_r)
    return a, q * a + b


@pytest.mark.parametrize("name,count", [("quarter", 161), ("ternary", 41)])
def test_legendre_matches_parametric_closed_form(name, count, request):
    spec = request.getfixturevalue(f"{name}_spec")
    for q in np.linspace(-10.0, 10.0, count):
        a, f = _equal_ratio_curve(spec, float(q))
        res = legendre(spec, a)
        assert not res.boundary
        assert abs(res.f - f) <= 1e-12, (name, q)
        assert abs(res.q_star[0] - q) <= 1e-8, (name, q)


def test_mixed_identical_measures_supported_on_diagonal():
    spec = ModelSpec(
        ratios=[0.5, 0.5],
        measures=[[0.25, 0.75], [0.25, 0.75]],
        label="mixed",
    )
    on_diag = legendre(spec, [ALPHA1, ALPHA1])
    assert on_diag.f == pytest.approx(ALPHA1, abs=1e-7)
    off_diag = legendre(spec, [ALPHA1, ALPHA1 + 0.2])
    assert off_diag.f == NEG_INF


def test_mixed_two_symbols_value_only():
    # N=2 with two measures: the level set is a segment, minimizers are
    # non-unique, but the transform value is still well defined
    spec = ModelSpec(
        ratios=[0.5, 0.5],
        measures=[[0.25, 0.75], [0.6, 0.4]],
        label="mixed2",
    )
    for q in ([0.0, 0.0], [1.0, -0.5], [-0.7, 0.3]):
        bp = beta(spec, q)
        res = legendre(spec, bp.alpha, tol=1e-11)
        expect = float(np.dot(q, bp.alpha)) + bp.beta
        assert res.f == pytest.approx(expect, abs=1e-7)
        tangent = beta(spec, res.q_star)
        assert np.allclose(tangent.alpha, bp.alpha, atol=1e-7)


def test_mixed_two_symbols_singular_jacobian_grid():
    # d alpha / d q is singular on this model (its level set is a segment);
    # the least-squares Newton step must still reach the tangency point
    spec = ModelSpec(
        ratios=[0.5, 0.5],
        measures=[[0.25, 0.75], [0.6, 0.4]],
        label="mixed2",
    )
    grid = [[q1, q2] for q1 in (-1.0, 0.0, 1.0) for q2 in (-1.0, -0.5, 0.5, 1.0)]
    for q in grid:
        bp = beta(spec, q)
        res = legendre(spec, bp.alpha, tol=1e-11)
        expect = float(np.dot(q, bp.alpha)) + bp.beta
        assert res.f == pytest.approx(expect, abs=1e-7), q
        assert res.boundary is False
        assert np.all(np.isfinite(res.q_star))
        assert float(np.max(np.abs(res.q_star))) < DEFAULT_Q_CAP


def test_mixed_three_symbols_duality():
    spec = ModelSpec(
        ratios=[0.4, 0.35, 0.3],
        measures=[[0.2, 0.3, 0.5], [0.5, 0.2, 0.3]],
        label="mixed3",
    )
    for q in ([0.0, 0.0], [0.8, -0.4], [-0.6, 0.5]):
        bp = beta(spec, q)
        res = legendre(spec, bp.alpha, tol=1e-11)
        expect = float(np.dot(q, bp.alpha)) + bp.beta
        assert res.f == pytest.approx(expect, abs=1e-7)
        assert np.allclose(res.q_star, q, atol=1e-5)


def test_sup_spectrum_mixed_box():
    from mfshift.oracle import brute_variational

    spec = ModelSpec(
        ratios=[0.4, 0.35, 0.3],
        measures=[[0.2, 0.3, 0.5], [0.5, 0.2, 0.3]],
        label="mixed3",
    )
    peak = beta(spec, [0.0, 0.0])
    around_peak = TargetBox.interval(peak.alpha - 0.1, peak.alpha + 0.1)
    res = sup_spectrum(spec, around_peak)
    assert res.value == pytest.approx(peak.beta, abs=1e-9)
    off = TargetBox.interval(peak.alpha + 0.05, peak.alpha + 0.25)
    res_off = sup_spectrum(spec, off)
    scan = brute_variational(spec, off, grid_step=2e-3, objective="dimension")
    assert scan.feasible
    assert res_off.value == pytest.approx(scan.value, abs=5e-3)
    assert res_off.value < peak.beta


def test_sup_spectrum_cases(quarter_spec):
    full = sup_spectrum(quarter_spec, TargetBox.interval(0.0, 3.0))
    assert full.value == pytest.approx(1.0, abs=1e-10)
    left = sup_spectrum(quarter_spec, TargetBox.interval(0.7, 0.9))
    assert left.argmax[0] == pytest.approx(0.9)
    assert left.value == pytest.approx(legendre(quarter_spec, 0.9).f, abs=1e-10)
    single = sup_spectrum(quarter_spec, TargetBox.point(ALPHA1))
    assert single.value == pytest.approx(ALPHA1, abs=1e-9)
    missed = sup_spectrum(quarter_spec, TargetBox.interval(0.1, 0.2))
    assert missed.value == NEG_INF


def test_variational_unconstrained_max_entropy(quarter_spec):
    res = variational_solve(
        quarter_spec,
        TargetBox.interval(-50.0, 50.0),
        phi=zero_potential(quarter_spec),
        objective="pressure",
    )
    assert res.value == pytest.approx(LOG2, abs=1e-9)
    assert np.allclose(res.weights.w, 0.5, atol=1e-5)


def test_variational_dimension_at_information_point(quarter_spec):
    res = variational_solve(
        quarter_spec,
        TargetBox.point(0.811278),
        objective="dimension",
    )
    assert res.value == pytest.approx(0.811278, abs=1e-5)
    assert np.allclose(res.weights.w, [0.25, 0.75], atol=1e-3)


def test_variational_matches_sup_spectrum_box(quarter_spec):
    C = TargetBox.interval(0.7, 0.9)
    res = variational_solve(quarter_spec, C, objective="dimension")
    sup = sup_spectrum(quarter_spec, C)
    assert res.value == pytest.approx(sup.value, abs=1e-4)


def test_variational_infeasible(quarter_spec):
    with pytest.raises(InfeasibleConstraint):
        variational_solve(
            quarter_spec, TargetBox.interval(5.0, 6.0), objective="dimension"
        )


def test_route_agreement_random_boxes():
    rng = np.random.default_rng(23)
    specs = [
        ModelSpec(ratios=[0.5, 0.5], measures=[[0.25, 0.75]]),
        ModelSpec(ratios=[1 / 3, 1 / 3, 1 / 3], measures=[[0.2, 0.3, 0.5]]),
    ]
    for spec in specs:
        pts = np.sort(
            np.array(
                [level_map(ProductMeasureWeights(np.eye(spec.N)[i]), spec)[0]
                 for i in range(spec.N)]
            )
        )
        lo_att, hi_att = pts[0], pts[-1]
        for _ in range(5):
            a = rng.uniform(lo_att, hi_att)
            b = rng.uniform(a, min(a + 0.5, hi_att))
            C = TargetBox.interval(a, b)
            sup = sup_spectrum(spec, C)
            var = variational_solve(spec, C, objective="dimension")
            assert var.value == pytest.approx(sup.value, abs=1e-4)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(grid_step=0.0),
        dict(grid_step=float("nan")),
        dict(grid_step=-0.01),
        dict(grid_step=3.0),
        dict(grid_step=float("inf")),
        dict(tol=0.0),
        dict(tol=-1e-6),
        dict(tol=float("nan")),
        dict(tol=float("inf")),
    ],
)
def test_variational_rejects_bad_numeric_arguments(quarter_spec, uniform_spec, kwargs):
    with pytest.raises(ValidationError):
        variational_solve(
            quarter_spec, TargetBox.interval(0.7, 0.9), objective="dimension", **kwargs
        )
    obs = ObservableTable(PotentialTable(np.array([1.0, 0.0])))
    with pytest.raises(ValidationError):
        erg_spectrum_variational(uniform_spec, obs, TargetBox.interval(0.2, 0.4), **kwargs)


def test_variational_accepts_unit_grid_step(quarter_spec):
    # grid_step 1 seeds at the simplex vertices only
    C = TargetBox.interval(0.7, 0.9)
    res = variational_solve(quarter_spec, C, objective="dimension", grid_step=1.0)
    assert res.value == pytest.approx(sup_spectrum(quarter_spec, C).value, abs=1e-4)


def test_variational_reproduces_recorded_values(quarter_spec, uniform_spec, ternary_spec):
    # (value, constraint_gap) recorded from the per-point evaluation that
    # built a measure object for every seed and probe
    a = float(beta(quarter_spec, 1.5).alpha[0])
    res = variational_solve(
        quarter_spec, TargetBox.interval(a - 0.05, a + 0.05), objective="dimension"
    )
    assert (res.value, res.constraint_gap) == (0.70757509216885, 0.0)
    a0 = float(beta(ternary_spec, 0.0).alpha[0])
    res = variational_solve(
        ternary_spec, TargetBox.interval(a0 - 0.04, a0 + 0.08), objective="dimension"
    )
    assert (res.value, res.constraint_gap) == (1.0, 0.0)
    phi = PotentialTable(np.array([0.3, -0.7, 0.1]))
    res = variational_solve(
        ternary_spec, TargetBox.interval(1.1, 1.3), phi=phi, objective="pressure"
    )
    assert (res.value, res.constraint_gap) == (1.0820427371097208, 0.0)
    lev = LevelMap(
        (PotentialTable(quarter_spec.log_measures[0][:, None] + 0.05 * np.eye(2)),),
        PotentialTable(quarter_spec.log_ratios),
    )
    res = variational_solve(
        quarter_spec, TargetBox.interval(0.8, 1.0), objective="dimension", level=lev
    )
    assert (res.value, res.constraint_gap) == (0.9666272581343013, 2.233549123431544e-09)
    res = erg_spectrum_variational(
        uniform_spec,
        ObservableTable(PotentialTable(np.array([1.0, 0.0]))),
        TargetBox.interval(0.25, 0.35),
    )
    assert (res.value, res.constraint_gap) == (0.9340680553754911, 0.0)
    res = erg_spectrum_variational(
        uniform_spec,
        ObservableTable(PotentialTable(np.array([[0.4, -0.6], [0.9, -0.2]]))),
        TargetBox.interval(0.3, 0.4),
    )
    assert res.weights.P.shape == (2, 2)  # depth 2 selects the markov1 family
    assert (res.value, res.constraint_gap) == (0.707936235438768, 1.822880632551538e-07)
    with pytest.raises(InfeasibleConstraint):
        variational_solve(quarter_spec, TargetBox.interval(5.0, 6.0), objective="dimension")


def _evaluation_points(rng, N):
    """Simplex points, points with zero weights and finite-difference probes."""
    pts = list(rng.dirichlet(np.ones(N), size=20))
    for x in rng.dirichlet(np.ones(N), size=5):
        x[rng.integers(N)] = 0.0
        pts.append(x / x.sum())
    pts.append(np.eye(N)[0])
    for x in (np.eye(N)[0], rng.dirichlet(np.ones(N))):
        for i in range(N):
            for h in (1e-7, -1e-7):
                probe = x.copy()
                probe[i] += h  # a negative entry at the vertex; sum != 1
                pts.append(probe)
    pts.append(1.3 * rng.dirichlet(np.ones(N)))
    return np.array(pts)


@pytest.mark.parametrize("N", [2, 3, 5])
@pytest.mark.parametrize("depth", [1, 2])
@pytest.mark.parametrize("objective", ["dimension", "pressure"])
def test_bernoulli_evaluation_matches_measure_functions(N, depth, objective):
    rng = np.random.default_rng(10 * N + depth)
    p = rng.dirichlet(np.ones(N))
    spec = ModelSpec(
        ratios=rng.uniform(0.1, 0.6, size=N), measures=[p], potential_depth=depth
    )
    lam = PotentialTable(spec.log_ratios).lift(depth)
    num = np.log(p)[(...,) + (None,) * (depth - 1)] + np.zeros((N,) * depth)
    if depth == 2:
        num = num + 0.05 * np.eye(N)  # tail-sensitive, still negative
    lev = LevelMap((PotentialTable(num),), lam)
    phi = PotentialTable(-rng.uniform(0.1, 2.0, size=(N,) * depth))
    problem = _BernoulliProblem(
        spec, TargetBox.interval(0.0, 50.0), phi if objective == "pressure" else None,
        objective, lev,
    )
    X = _evaluation_points(rng, N)
    obj, u = problem.evaluate(X)
    assert obj.shape == (len(X),) and u.shape == (len(X), 1)
    for k, x in enumerate(X):
        w = np.clip(x, 0.0, None)
        mu = ProductMeasureWeights(w / w.sum())
        h = entropy(mu)
        if objective == "dimension":
            ref, scale = -h / integrate(mu, lam), None
        else:
            ref, scale = h + integrate(mu, phi), h + abs(integrate(mu, phi))
        scale = abs(ref) if scale is None else scale
        ref_u = level_map(mu, lev)
        one_obj, one_u = problem.evaluate_one(x)
        for got, got_u in ((one_obj, one_u), (obj[k], u[k])):
            assert abs(got - ref) <= 1e-15 * scale
            assert np.all(np.abs(got_u - ref_u) <= 1e-15 * np.abs(ref_u))


def test_markov_evaluate_one_builds_one_measure(monkeypatch, uniform_spec):
    built = []

    class CountingWeights(spectrum_mod.MarkovWeights):
        def __post_init__(self):
            built.append(1)
            super().__post_init__()

    monkeypatch.setattr(spectrum_mod, "MarkovWeights", CountingWeights)
    obs = ObservableTable(PotentialTable(np.eye(2)))
    problem = spectrum_mod._MarkovProblem(
        uniform_spec, TargetBox.interval(0.1, 0.3), None, "dimension",
        obs.as_level_map(),
    )
    for theta in problem.seeds(np.random.default_rng(0), 1e-2)[:10]:
        built.clear()
        problem.evaluate_one(theta)
        assert len(built) == 1
