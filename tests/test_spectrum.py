import math

import numpy as np
import pytest

import mfshift.spectrum as spectrum_mod
from mfshift.birkhoff import ObservableTable, erg_spectrum_variational
from mfshift.errors import InfeasibleConstraint, MfShiftError, ValidationError
from mfshift.logsum import NEG_INF
from mfshift.model import (
    LevelMap,
    MarkovWeights,
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
    beta,
    legendre,
    sup_spectrum,
    variational_solve,
)

from conftest import zero_potential

LOG2 = math.log(2)
ALPHA0 = 2.0 - math.log2(3) / 2.0  # level value at q=0 for the quarter spec
ALPHA1 = -(0.25 * math.log2(0.25) + 0.75 * math.log2(0.75))
TERNARY2 = ModelSpec(
    ratios=[1 / 3] * 3, measures=[[0.2, 0.3, 0.5], [0.5, 0.25, 0.25]], label="ternary2"
)
MIXED3 = ModelSpec(
    ratios=[0.4, 0.35, 0.3], measures=[[0.2, 0.3, 0.5], [0.5, 0.2, 0.3]], label="mixed3"
)
N4M3 = ModelSpec(
    ratios=[0.3, 0.25, 0.2, 0.15],
    measures=[[0.1, 0.2, 0.3, 0.4], [0.4, 0.3, 0.2, 0.1], [0.25, 0.15, 0.35, 0.25]],
    label="n4m3",
)


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
    assert beta(quarter_spec, 0.0).alpha[0] == pytest.approx(ALPHA0, abs=1e-10)
    assert beta(quarter_spec, 1.0).alpha[0] == pytest.approx(ALPHA1, abs=1e-10)
    for q in (-3.0, 0.0, 2.5):
        assert beta(uniform_spec, q).alpha[0] == pytest.approx(1.0, abs=1e-12)


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
    # both ends of the attainable interval: the minimiser runs off to
    # infinity and f is the limit 0
    for end in (2.0, math.log2(4 / 3)):
        boundary = legendre(quarter_spec, end)
        assert boundary.boundary
        assert boundary.f == pytest.approx(0.0, abs=1e-12)
    exterior = legendre(quarter_spec, 2.5)
    assert exterior.f == NEG_INF
    low = legendre(quarter_spec, 0.2)
    assert low.f == NEG_INF
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(ValidationError):
            legendre(quarter_spec, bad)
    with pytest.raises(ValidationError):
        legendre(TERNARY2, [math.nan, 0.5])
    for q in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValidationError):
            beta(quarter_spec, q)


CLOSE3 = ModelSpec(ratios=[1 / 3] * 3, measures=[[0.3, 0.31, 0.39]], label="close3")


def test_legendre_far_minimiser_close3():
    # near-tied exponents put q* far out; a search cut at |q| = 60 returned
    # 0.12532 and 0.4995 here
    res = legendre(CLOSE3, 1.0958)
    assert abs(res.f - 0.0209910461262) <= 1e-12
    assert res.q_star[0] == pytest.approx(-172.705, abs=1e-3)
    assert not res.boundary
    ref = variational_solve(CLOSE3, TargetBox.point(1.0958), objective="dimension")
    assert abs(res.f - ref.value) <= 1e-12
    bp = beta(CLOSE3, -40.0)
    res = legendre(CLOSE3, bp.alpha)
    assert abs(res.f - (-40.0 * bp.alpha[0] + bp.beta)) <= 1e-12
    assert res.q_star[0] == pytest.approx(-40.0, abs=1e-5)
    res = legendre(CLOSE3, 1.08956415)
    assert res.f == pytest.approx(0.47071, abs=1e-5)
    assert res.q_star[0] == pytest.approx(-40.0, abs=1e-3)


def test_legendre_far_minimiser_m2():
    # 1e-5 inside the vertex of symbol 2 toward the centroid: q* ~ (-90, -90),
    # where a search cut at |q| = 60 returned 0.00411
    spec = ModelSpec(ratios=[1 / 3] * 3, measures=[[0.2, 0.3, 0.5], [0.5, 0.3, 0.2]])
    a = _vertex_offset(spec, 1, -1e-5)
    res = legendre(spec, a)
    ref = variational_solve(spec, TargetBox.point(a), objective="dimension")
    assert abs(res.f - 0.0014113893) <= 1e-10
    assert abs(res.f - ref.value) <= 1e-12
    assert np.allclose(res.q_star, [-90.31, -90.31], atol=1e-2)


def _vertex_offset(spec, symbol, distance):
    """The ratio point of ``symbol`` moved by ``distance`` away from the centroid."""
    pts = LevelMap.from_spec(spec).symbol_ratios()
    d = pts[symbol] - pts.mean(axis=0)
    return pts[symbol] + distance * d / np.linalg.norm(d)


def test_legendre_near_vertex_matches_variational():
    # ternary2 just inside the vertex of symbol 1, where f -> 0: q* has
    # |q| ~ 30 and the Hessian is near singular
    for distance in (1e-7, 1e-8, 1e-9):
        a = _vertex_offset(TERNARY2, 0, -distance)
        res = legendre(TERNARY2, a)
        ref = variational_solve(TERNARY2, TargetBox.point(a), objective="dimension")
        assert 0.0 < res.f and abs(res.f - ref.value) <= 1e-13, distance
        assert not res.boundary
    # 1e-8 and 1e-9 outside it the point is unattainable
    for distance in (1e-8, 1e-9):
        assert legendre(TERNARY2, _vertex_offset(TERNARY2, 0, distance)).f == NEG_INF
    # 1.35e-8 outside the edge from symbol 1 to symbol 2: g decreases along
    # a direction of curvature ~1e-23, which a least-squares step drops (it
    # stalled here at f = 1.2076e-6, q ~ (-71.08, -18.83))
    res = legendre(TERNARY2, [1.46497348, 0.63092985])
    assert res.f == NEG_INF
    with pytest.raises(InfeasibleConstraint):
        variational_solve(
            TERNARY2, TargetBox.point([1.46497348, 0.63092985]), objective="dimension"
        )


def test_legendre_without_linear_programs(monkeypatch, quarter_spec, ternary_spec):
    def refuse(*args, **kwargs):
        raise AssertionError("legendre solved a linear program")

    monkeypatch.setattr(spectrum_mod, "linprog", refuse)
    for spec in (quarter_spec, ternary_spec, TERNARY2, N4M3):
        pts = LevelMap.from_spec(spec).symbol_ratios()
        centre = pts.mean(axis=0)
        assert legendre(spec, centre).f > 0.0
        assert legendre(spec, pts.max(axis=0) + 0.1).f == NEG_INF
        assert legendre(spec, _vertex_offset(spec, 0, 1e-3)).f == NEG_INF


def test_legendre_matches_variational_random_points():
    # N in [2, 5], M in [1, 3], ratios summing to 0.5..0.95, Dirichlet(1)
    # measures, alpha a Dirichlet(0.3) mix of the ratio points: many lie near
    # a face, with far minimisers
    rng = np.random.default_rng(7)
    for i in range(300):
        N, M = int(rng.integers(2, 6)), int(rng.integers(1, 4))
        r = rng.uniform(0.1, 0.6, size=N)
        r *= rng.uniform(0.5, 0.95) / r.sum()
        spec = ModelSpec(ratios=r, measures=rng.dirichlet(np.ones(N), size=M))
        a = rng.dirichlet(np.full(N, 0.3)) @ LevelMap.from_spec(spec).symbol_ratios()
        res = legendre(spec, a)
        ref = variational_solve(spec, TargetBox.point(a), objective="dimension")
        assert abs(res.f - ref.value) <= 1e-10, (i, res, ref.value)


def test_legendre_grid_uniform(uniform_spec):
    f = [legendre(uniform_spec, a).f for a in (0.7, 1.0, 1.3)]
    assert f[0] == NEG_INF and f[2] == NEG_INF
    assert f[1] == pytest.approx(1.0, abs=1e-10)


def test_legendre_grid_concave_with_unit_peak(quarter_spec):
    alphas = np.linspace(0.45, 1.95, 31)
    f = np.array([legendre(quarter_spec, a).f for a in alphas])
    assert np.isfinite(f).all()
    assert float(f.max()) <= 1.0 + 1e-12
    peak_alpha = alphas[np.argmax(f)]
    assert abs(peak_alpha - ALPHA0) < 0.06  # grid resolution
    second = np.diff(f, 2)
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

    spec = MIXED3
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


def test_sup_spectrum_matches_variational_route(monkeypatch, quarter_spec):
    # random boxes, many of them missing the attainable hull, plus a ternary2
    # box on which a supergradient ascent raised ValidationError and one on
    # which it ran all of its 300 steps, against the independent
    # block-frequency program; an M > 1 box takes one hull LP, M = 1 none
    calls = []
    scipy_linprog = spectrum_mod.linprog

    def counted(*args, **kwargs):
        calls.append(1)
        return scipy_linprog(*args, **kwargs)

    monkeypatch.setattr(spectrum_mod, "linprog", counted)
    a = beta(TERNARY2, [1.2, -0.8]).alpha
    cases = [
        (TERNARY2, TargetBox.interval([1.35847072, 0.47691419], [1.64404391, 0.65042967])),
        (TERNARY2, TargetBox.interval(a - 0.1, a + 0.1)),
    ]
    rng = np.random.default_rng(11)
    for spec in (TERNARY2, MIXED3, N4M3, quarter_spec):
        pts = LevelMap.from_spec(spec).symbol_ratios()
        lo, hi = pts.min(axis=0), pts.max(axis=0)
        for _ in range(15):
            c = rng.uniform(lo, hi)
            w = rng.uniform(0.0, 0.4, size=spec.M) * (hi - lo)
            cases.append((spec, TargetBox.interval(c - w / 2, c + w / 2)))
    finite = 0
    for spec, C in cases:
        before = len(calls)
        sup = sup_spectrum(spec, C)
        assert len(calls) - before == (1 if spec.M > 1 else 0)
        try:
            ref = variational_solve(spec, C, objective="dimension").value
        except InfeasibleConstraint:
            assert sup.value == NEG_INF and np.all(np.isnan(sup.argmax))
            continue
        assert abs(sup.value - ref) <= 1e-10, (spec.label, C)
        assert C.contains_point(sup.argmax)
        finite += 1
    assert finite >= 30


def test_sup_spectrum_refuses_unconverged_dual(monkeypatch):
    # every q bounds the supremum from above, so a dual solve cut short by its
    # iteration limit (SLSQP status 9) must raise, not return an overestimate
    import scipy.optimize

    minimize = scipy.optimize.minimize

    def one_step(*args, **kwargs):
        return minimize(*args, **dict(kwargs, options={"maxiter": 1}))

    monkeypatch.setattr(scipy.optimize, "minimize", one_step)
    a = beta(TERNARY2, [1.2, -0.8]).alpha
    with pytest.raises(MfShiftError, match="status 9"):
        sup_spectrum(TERNARY2, TargetBox.interval(a - 0.1, a + 0.1))


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
    # alpha = 2 is attained only by the point mass on symbol 1: entropy 0
    res = variational_solve(quarter_spec, TargetBox.point(2.0), objective="dimension")
    assert abs(res.value) <= 1e-12 and res.constraint_gap <= 1e-12
    with pytest.raises(InfeasibleConstraint):
        variational_solve(
            quarter_spec, TargetBox.interval(2.0 + 1e-7, 2.1), objective="dimension"
        )
    # each coordinate range is attainable, the box misses the hull (a triangle)
    with pytest.raises(InfeasibleConstraint):
        variational_solve(
            TERNARY2, TargetBox.interval([1.38, 1.15], [1.42, 1.2]), objective="dimension"
        )


def test_variational_point_just_outside_vertex_infeasible():
    # 1e-9 outside the vertex of symbol 1 phase I misses by 7.2e-10, under
    # its 1e-9 threshold; phase II then forces block frequencies to 0 and
    # ends in nan, which must read as infeasible
    for distance in (1e-8, 1e-9, 1e-10):
        a = _vertex_offset(TERNARY2, 0, distance)
        with pytest.raises(InfeasibleConstraint):
            variational_solve(TERNARY2, TargetBox.point(a), objective="dimension")


def test_variational_refuses_a_result_outside_the_box():
    # a point on the segment of an N = 2, M = 2 model with extreme exponents:
    # the KKT matrix of phase II turns singular and the iterates diverge,
    # ending 97 level units outside the box with value 7.8e-14
    spec = ModelSpec(
        ratios=[0.879124973888551, 0.05376364324578358],
        measures=[[3.3323587443841395e-06, 0.9999966676412555],
                  [0.9376946053257347, 0.06230539467426523]],
    )
    a = [96.86695833009965, 0.5040892021150998]
    with pytest.raises(MfShiftError, match="outside the target box"):
        variational_solve(spec, TargetBox.point(a), objective="dimension")
    # the one Bernoulli measure at a: weights proportional to theta_i / log r_i,
    # theta the position of a on the segment of the ratio points
    theta = 0.9894834508446486
    w = np.array([theta, 1 - theta]) / spec.log_ratios
    w /= w.sum()
    exact = float(w @ np.log(w)) / float(w @ spec.log_ratios)
    assert abs(legendre(spec, a).f - exact) <= 1e-12


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


def _equal_ratio_point(spec, q):
    """Closed-form (alpha(q), f(alpha(q))) of an equal-ratio model, any M.

    beta(q) = log(sum_i prod_m p_{m,i}^{q_m}) / -log r, and alpha(q) is the
    Gibbs mean of (log p_{m,i} / log r)_m.
    """
    log_r = math.log(spec.ratios[0])
    z = np.asarray(q) @ spec.log_measures
    w = np.exp(z - z.max())
    b = (z.max() + math.log(w.sum())) / -log_r
    a = spec.log_measures @ (w / w.sum()) / log_r
    return a, float(np.dot(q, a) + b)


def test_variational_m2_boxes_match_closed_form():
    # each box has its corner at alpha(q) on the side where f rises, so the
    # supremum over the box is f(alpha(q))
    rng = np.random.default_rng(1)
    for _ in range(8):
        q = rng.uniform(0.3, 2.5, size=2) * rng.choice([-1.0, 1.0], size=2)
        a, f = _equal_ratio_point(TERNARY2, q)
        width = rng.uniform(0.05, 0.2, size=2)
        C = TargetBox.interval(np.where(q > 0, a - width, a), np.where(q > 0, a, a + width))
        res = variational_solve(TERNARY2, C, objective="dimension")
        assert abs(res.value - f) <= 1e-4, q
        assert res.constraint_gap <= 1e-12, q


def test_variational_reproduces_recorded_values(quarter_spec, uniform_spec, ternary_spec):
    # (value, constraint_gap) recorded from the block-frequency program, and
    # each value within 1e-12 of an exact reference
    def check(res, recorded, exact):
        assert (res.value, res.constraint_gap) == recorded
        assert abs(res.value - exact) <= 1e-12

    def binary_entropy(x):
        return -(x * math.log(x) + (1 - x) * math.log(1 - x))

    # quarter: level u = -(w log 1/4 + (1 - w) log 3/4) / log 2 is affine in
    # the weight w of symbol 1; the box end nearest the peak is active
    a = float(beta(quarter_spec, 1.5).alpha[0])
    res = variational_solve(
        quarter_spec, TargetBox.interval(a - 0.05, a + 0.05), objective="dimension"
    )
    w = ((a + 0.05) * LOG2 + math.log(0.75)) / math.log(3)
    check(res, (0.7075750921688496, 0.0), binary_entropy(w) / LOG2)
    a0 = float(beta(ternary_spec, 0.0).alpha[0])
    res = variational_solve(
        ternary_spec, TargetBox.interval(a0 - 0.04, a0 + 0.08), objective="dimension"
    )
    check(res, (1.0, 0.0), 1.0)
    # Lagrange root on the face u = 1.1: w proportional to
    # exp(phi + s (log p - 1.1 log r)), with s bisected to machine precision
    phi = PotentialTable(np.array([0.3, -0.7, 0.1]))
    res = variational_solve(
        ternary_spec, TargetBox.interval(1.1, 1.3), phi=phi, objective="pressure"
    )
    check(res, (1.0820427402206114, 0.0), 1.0820427402206471)
    # a depth-2 level map takes the pair (memory-1 Markov) family; the
    # reference is the Perron-root equilibrium state on the face u = 1
    lev = LevelMap(
        (PotentialTable(quarter_spec.log_measures[0][:, None] + 0.05 * np.eye(2)),),
        PotentialTable(quarter_spec.log_ratios),
    )
    res = variational_solve(
        quarter_spec, TargetBox.interval(0.8, 1.0), objective="dimension", level=lev
    )
    assert isinstance(res.weights, MarkovWeights)
    check(res, (0.9666891772591466, 0.0), 0.9666891772591485)
    res = erg_spectrum_variational(
        uniform_spec,
        ObservableTable(PotentialTable(np.array([1.0, 0.0]))),
        TargetBox.interval(0.25, 0.35),
    )
    check(res, (0.934068055375485, 0.0), binary_entropy(0.35) / LOG2)
    res = erg_spectrum_variational(
        uniform_spec,
        ObservableTable(PotentialTable(np.array([[0.4, -0.6], [0.9, -0.2]]))),
        TargetBox.interval(0.3, 0.4),
    )
    assert res.weights.P.shape == (2, 2)  # depth 2 selects the markov1 family
    check(res, (0.7080402217366399, 0.0), 0.70804022173664)
    with pytest.raises(InfeasibleConstraint):
        variational_solve(quarter_spec, TargetBox.interval(5.0, 6.0), objective="dimension")


@pytest.mark.parametrize("N", [2, 3, 5])
@pytest.mark.parametrize("depth", [1, 2])
@pytest.mark.parametrize("objective", ["dimension", "pressure"])
def test_bernoulli_evaluation_matches_measure_functions(N, depth, objective):
    """Block-frequency entropy and integrals against the measure functions.

    Every row checks Bernoulli points (block frequencies w_i, or w_i w_j at
    depth 2); depth-2 rows also check memory-1 Markov points (stationary
    pair frequencies pi_i P_ij).
    The points carry a random total mass: entropy and integrals are
    1-homogeneous, and the objective divides by the normalising integral.
    """
    rng = np.random.default_rng(10 * N + depth)
    p = rng.dirichlet(np.ones(N))
    spec = ModelSpec(ratios=rng.uniform(0.1, 0.6, size=N), measures=[p])
    lam = PotentialTable(spec.log_ratios)
    num = np.log(p)[(...,) + (None,) * (depth - 1)] + np.zeros((N,) * depth)
    if depth == 2:
        num = num + 0.05 * np.eye(N)  # tail-sensitive, still negative
    lev = LevelMap((PotentialTable(num),), lam)
    phi = PotentialTable(-rng.uniform(0.1, 2.0, size=(N,) * depth))
    points = []
    for w in rng.dirichlet(np.ones(N), size=10):
        if depth == 1:
            points.append((w, ProductMeasureWeights(w)))
        else:
            points.append((np.outer(w, w).ravel(), ProductMeasureWeights(w)))
            P = rng.dirichlet(np.ones(N), size=N)
            pi = np.linalg.matrix_power(P.T, 200) @ w  # stationary vector
            points.append(((pi[:, None] * P).ravel(), MarkovWeights(P)))

    def values(table):
        return spectrum_mod._block_values(table, depth)

    for x, mu in points:
        x = x * rng.uniform(0.5, 2.0)
        h = entropy(mu)
        got_h = spectrum_mod._block_entropy(x, N)[0]
        assert abs(got_h / x.sum() - h) <= 1e-14 * max(h, 1.0)
        if objective == "dimension":
            got, ref = got_h / float(values(lam) @ -x), -h / integrate(mu, lam)
        else:
            got = (got_h + float(values(phi) @ x)) / x.sum()
            ref = h + integrate(mu, phi)
        assert abs(got - ref) <= 1e-14 * (h + abs(integrate(mu, phi)) + abs(ref))
        got_u = float(values(lev.phis[0]) @ x) / float(values(lev.lam) @ x)
        assert abs(got_u - level_map(mu, lev)[0]) <= 1e-14 * abs(got_u)
