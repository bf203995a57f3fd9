import math

import numpy as np
import pytest

from mfshift import mfzeta, pressure
from mfshift.errors import BudgetExceeded, ScheduleTooShort, ValidationError
from mfshift.logsum import NEG_INF, logsumexp
from mfshift.mfzeta import (
    _window_upper_fn,
    constrained_coefficient,
    level_tail_lipschitz,
    mf_bowen_fixed,
    mf_bowen_shrinking,
    mf_pressure_window,
    mf_zeta_series,
    sandwich_threshold,
)
from mfshift.model import ModelSpec, TargetBox
from mfshift.pressure import pressure_level, zeta_coefficients
from mfshift.spectrum import sup_spectrum

from conftest import scaling_potential, zero_potential

LOG2 = math.log(2)
VACUOUS = TargetBox.interval(-100.0, 100.0)


def test_canonical_binomial_count(quarter_spec):
    phi0 = zero_potential(quarter_spec)
    C = TargetBox.interval(0.8, 1.0)
    for mode in ("L", "M"):
        v = constrained_coefficient(quarter_spec, phi0, C, 10, mode)
        assert v == pytest.approx(math.log(120), abs=1e-13)


def test_uniform_target_one_keeps_every_word(uniform_spec):
    phi0 = zero_potential(uniform_spec)
    C = TargetBox.point(1.0)
    for n in (1, 3, 9):
        assert constrained_coefficient(uniform_spec, phi0, C, n) == pytest.approx(
            n * LOG2, rel=1e-14
        )


def test_unattainable_singleton_is_empty(quarter_spec):
    phi0 = zero_potential(quarter_spec)
    C = TargetBox.point(0.5)
    for n in (1, 4, 11):
        assert constrained_coefficient(quarter_spec, phi0, C, n) == NEG_INF


def test_vacuous_target_bitwise_depth1(quarter_spec):
    phi = scaling_potential(quarter_spec).scale(0.3)
    free = zeta_coefficients(phi, 15)
    constrained = mf_zeta_series(quarter_spec, phi, VACUOUS, 15)
    assert np.array_equal(free.log_a[1:], constrained.log_a[1:])


def test_vacuous_target_bitwise_depth2(quarter_spec, depth2_level):
    # a depth-2 summand keeps both sides on the enumeration route
    phi = scaling_potential(quarter_spec).scale(0.5).lift(2)
    free = zeta_coefficients(phi, 10)
    for mode in ("L", "M"):
        constrained = mf_zeta_series(
            quarter_spec, phi, VACUOUS, 10, mode=mode, level=depth2_level
        )
        assert np.array_equal(free.log_a[1:], constrained.log_a[1:])


def test_monotone_in_target(quarter_spec):
    phi = scaling_potential(quarter_spec).scale(0.4)
    inner = TargetBox.interval(0.75, 0.95)
    outer = TargetBox.interval(0.6, 1.1)
    for n in (3, 6, 10, 13):
        ci = constrained_coefficient(quarter_spec, phi, inner, n)
        co = constrained_coefficient(quarter_spec, phi, outer, n)
        assert ci <= co


def test_mode_coincidence_depth1(quarter_spec):
    phi = scaling_potential(quarter_spec).scale(0.2)
    C = TargetBox.interval(0.7, 1.2)
    for n in (2, 5, 9):
        cl = constrained_coefficient(quarter_spec, phi, C, n, "L")
        cm = constrained_coefficient(quarter_spec, phi, C, n, "M")
        assert cl == cm


def test_sandwich_inequality_depth2(quarter_spec, depth2_level):
    phi0 = zero_potential(quarter_spec)
    C = TargetBox.interval(0.8, 1.0)
    for r in (0.05, 0.1):
        n_r = sandwich_threshold(depth2_level, r)
        assert n_r <= 16
        Cd = C.dilate(r)
        for n in range(1, 17):
            cl = constrained_coefficient(
                quarter_spec, phi0, C, n, "L", level=depth2_level
            )
            cm = constrained_coefficient(
                quarter_spec, phi0, C, n, "M", level=depth2_level
            )
            cld = constrained_coefficient(
                quarter_spec, phi0, Cd, n, "L", level=depth2_level
            )
            assert cl <= cm
            if n >= n_r:
                assert cm <= cld


def test_sandwich_threshold_monotone_in_r(depth2_level):
    assert sandwich_threshold(depth2_level, 0.05) >= sandwich_threshold(
        depth2_level, 0.1
    )
    assert level_tail_lipschitz(depth2_level) > 0.0


def test_depth1_threshold_is_one(quarter_spec):
    assert sandwich_threshold(quarter_spec, 0.05) == 1


def test_window_vacuous_matches_pressure(quarter_spec):
    phi = scaling_potential(quarter_spec).scale(0.7)
    win = mf_pressure_window(quarter_spec, phi, VACUOUS, range(3, 9))
    for n, v in zip(win.n_values, win.per_n):
        assert v == pressure_level(phi, int(n))
    assert win.lower <= win.upper


def test_window_empty_constraint(quarter_spec):
    phi = scaling_potential(quarter_spec)
    win = mf_pressure_window(quarter_spec, phi, TargetBox.point(0.5), range(2, 6))
    assert win.lower == NEG_INF and win.upper == NEG_INF


def test_mf_bowen_fixed_uniform_full(uniform_spec):
    v = mf_bowen_fixed(uniform_spec, TargetBox.point(1.0), n_max=80, tol=1e-10)
    assert v == pytest.approx(1.0, abs=1e-9)


def test_mf_bowen_fixed_empty(quarter_spec):
    assert mf_bowen_fixed(quarter_spec, TargetBox.point(0.5), n_max=60) == NEG_INF


def test_mf_bowen_fixed_matches_legendre(quarter_spec):
    C = TargetBox.interval(0.7, 0.9)
    v = mf_bowen_fixed(quarter_spec, C, n_max=400, tol=1e-6)
    sup = sup_spectrum(quarter_spec, C)
    assert v == pytest.approx(sup.value, abs=5e-3)


def test_fixed_below_shrinking_with_interior_agreement(quarter_spec):
    C = TargetBox.interval(0.7, 0.9)
    fixed = mf_bowen_fixed(quarter_spec, C, n_max=400, tol=1e-6)
    shr = mf_bowen_shrinking(quarter_spec, C, n_max=400, tol=1e-6)
    assert fixed <= shr.value + 1e-3
    assert fixed == pytest.approx(shr.value, abs=5e-3)


def test_mf_bowen_shrinking_information_dimension(quarter_spec):
    res = mf_bowen_shrinking(
        quarter_spec, TargetBox.point(0.811278), n_max=400, tol=1e-6
    )
    assert res.value == pytest.approx(0.811278, abs=1e-2)
    assert np.all(np.diff(res.roots) <= 1e-9)  # roots shrink with the target


def test_mf_bowen_shrinking_boundary_point(quarter_spec):
    res = mf_bowen_shrinking(
        quarter_spec,
        TargetBox.point(2.0),
        r_schedule=0.5 ** np.arange(1, 11),
        n_max=400,
        tol=1e-6,
    )
    assert res.value == pytest.approx(0.0, abs=2e-2)


def test_mf_bowen_shrinking_uniform(uniform_spec):
    res = mf_bowen_shrinking(
        uniform_spec, TargetBox.point(1.0), n_max=80, tol=1e-9
    )
    assert np.allclose(res.roots, 1.0, atol=1e-7)
    assert res.value == pytest.approx(1.0, abs=1e-6)


def test_shrinking_schedule_validation(quarter_spec):
    C = TargetBox.point(1.0)
    with pytest.raises(ScheduleTooShort):
        mf_bowen_shrinking(quarter_spec, C, r_schedule=[0.5, 0.25])
    with pytest.raises(ValidationError):
        mf_bowen_shrinking(quarter_spec, C, r_schedule=[0.25, 0.5, 0.75])


def test_lifted_model_depth_matches_depth1(quarter_spec):
    # potential_depth=2 lifts the depth-1 tables; the level interval over
    # tails degenerates to a point, so both modes reproduce depth-1 values
    from mfshift.model import ModelSpec

    lifted = ModelSpec(
        ratios=[0.5, 0.5],
        measures=[[0.25, 0.75]],
        label="lifted",
        potential_depth=2,
    )
    phi = scaling_potential(quarter_spec).scale(0.3)
    C = TargetBox.interval(0.7, 1.0)
    for n in (2, 6, 9):
        base = constrained_coefficient(quarter_spec, phi, C, n, "L")
        for mode in ("L", "M"):
            v = constrained_coefficient(lifted, phi, C, n, mode)
            assert v == pytest.approx(base, rel=1e-12)


def test_bad_mode_rejected(quarter_spec):
    with pytest.raises(ValidationError):
        constrained_coefficient(
            quarter_spec, zero_potential(quarter_spec), VACUOUS, 3, mode="X"
        )


def test_target_dimension_mismatch_rejected(quarter_spec):
    from mfshift.spectrum import variational_solve

    # M=1 model, two-dimensional box: broadcasting would silently accept it
    C2 = TargetBox.interval([0.1, 0.1], [5.0, 5.0])
    phi0 = zero_potential(quarter_spec)
    calls = [
        lambda: constrained_coefficient(quarter_spec, phi0, C2, 10),
        lambda: mf_zeta_series(quarter_spec, phi0, C2, 5),
        lambda: mf_pressure_window(quarter_spec, phi0, C2, range(3, 6)),
        lambda: mf_bowen_fixed(quarter_spec, C2, n_max=40),
        lambda: mf_bowen_shrinking(quarter_spec, C2, n_max=40),
        lambda: variational_solve(quarter_spec, C2, objective="dimension"),
    ]
    for call in calls:
        with pytest.raises(ValidationError):
            call()


QUAD = ModelSpec(ratios=[0.25] * 4, measures=[[0.1, 0.2, 0.3, 0.4]], label="quad")


def test_class_budget_refused_before_generation(monkeypatch):
    calls = []

    def recording(n, N):
        calls.append((n, N))
        raise AssertionError("classes generated past the budget check")

    monkeypatch.setattr(mfzeta, "composition_arrays", recording)
    monkeypatch.setattr(pressure, "composition_arrays", recording)
    C = TargetBox.interval(0.5, 1.5)
    phi0 = zero_potential(QUAD)
    # N=4 over the n_max=400 Bowen window: about 7.9e8 classes
    with pytest.raises(BudgetExceeded):
        mf_bowen_fixed(QUAD, C, n_max=400)
    with pytest.raises(BudgetExceeded):
        mf_bowen_fixed(QUAD, C, n_max=60, budget=10**5)
    # per level: C(23, 3) = 1771 classes at n = 20
    with pytest.raises(BudgetExceeded):
        constrained_coefficient(QUAD, phi0, C, 20, budget=1770)
    with pytest.raises(BudgetExceeded):
        constrained_coefficient(QUAD, phi0, None, 20, budget=1770)
    with pytest.raises(BudgetExceeded):
        pressure_level(phi0, 20, budget=1770)
    assert calls == []


def test_class_budget_admits_what_fits(ternary_spec):
    phi0 = zero_potential(ternary_spec)
    # C(12, 2) = 66 classes at n = 10: exactly the budget
    v = constrained_coefficient(ternary_spec, phi0, None, 10, budget=66)
    assert v == pytest.approx(10 * math.log(3), rel=1e-14)
    assert pressure_level(phi0, 10, budget=66) == pytest.approx(math.log(3))


def test_stacked_window_matches_per_level_logsumexp():
    rng = np.random.default_rng(5)
    ns = list(range(40, 60))
    profiles = []
    for n in ns:
        kind = n % 5
        if kind == 0:
            profiles.append(None)
        elif kind == 1:
            profiles.append((rng.uniform(-5, 5, 1), rng.uniform(-40, -1, 1)))
        elif kind == 2:
            profiles.append((np.full(7, NEG_INF), rng.uniform(-40, -1, 7)))
        else:
            k = int(rng.integers(2, 3000))
            profiles.append((rng.uniform(0, 3 * n, k), rng.uniform(-2 * n, -n, k)))
    upper = _window_upper_fn(profiles, ns)
    for t in np.linspace(-3.0, 4.0, 50):
        ref = max(
            (logsumexp(p[0] + t * p[1]) / n for n, p in zip(ns, profiles) if p),
            default=NEG_INF,
        )
        assert abs(upper(t) - ref) <= 1e-13 * max(1.0, abs(ref))
    # a window whose every level is empty, or holds only -inf terms
    assert _window_upper_fn([None, None], [3, 4]) is None
    only_inf = _window_upper_fn([(np.full(3, NEG_INF), np.ones(3))], [3])
    assert only_inf(0.5) == NEG_INF


@pytest.mark.parametrize(
    "spec_name, n_max, root",
    [("quarter_spec", 400, 0.8885052373996353), ("ternary_spec", 200, 0.8943223400231585)],
)
def test_mf_bowen_fixed_reproduces_recorded_roots(request, spec_name, n_max, root):
    # criterion 06's box; roots recorded from the per-level window evaluation
    spec = request.getfixturevalue(spec_name)
    v = mf_bowen_fixed(spec, TargetBox.interval(0.7, 0.9), n_max=n_max, tol=1e-6)
    assert v == root
