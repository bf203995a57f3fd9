import math

import numpy as np
import pytest

from mfshift.birkhoff import (
    ObservableTable,
    erg_bowen,
    erg_constrained_coefficient,
    erg_spectrum_variational,
    periodic_discrepancy_bound,
)
from mfshift.errors import InfeasibleConstraint, ValidationError
from mfshift.logsum import NEG_INF
from mfshift.mfzeta import constrained_coefficient
from mfshift.model import PotentialTable, TargetBox
from mfshift.oracle import brute_constrained_sum, brute_variational, make_report
from mfshift.symbolic import Word, cylinder_birkhoff_range, periodic_birkhoff_sum

from conftest import scaling_potential, zero_potential

LOG2 = math.log(2)


def indicator_obs():
    return ObservableTable(PotentialTable(np.array([1.0, 0.0])))


def diagonal_obs():
    return ObservableTable(PotentialTable(np.eye(2)))


def binary_entropy_dim(x):
    return (-(x * math.log(x) + (1 - x) * math.log(1 - x))) / LOG2


def test_lip_bound_auto_and_manual():
    obs = diagonal_obs()
    # osc_0 = 1, osc_1 = 1 at gamma 1/2: constant 2
    assert obs.lip_bound == pytest.approx(2.0)
    with pytest.raises(ValidationError):
        ObservableTable(PotentialTable(np.eye(2)), lip_bound=0.5)
    with pytest.raises(ValidationError):
        ObservableTable(PotentialTable(np.eye(2)), gamma=1.5)


def test_constant_observable_all_or_nothing(uniform_spec):
    obs = ObservableTable(PotentialTable(np.array([3.0, 3.0])))
    phi0 = zero_potential(uniform_spec)
    hit = erg_constrained_coefficient(
        uniform_spec, obs, TargetBox.interval(2.5, 3.5), phi0, 7
    )
    assert hit == pytest.approx(7 * LOG2, rel=1e-14)
    miss = erg_constrained_coefficient(
        uniform_spec, obs, TargetBox.interval(0.0, 1.0), phi0, 7
    )
    assert miss == NEG_INF


def test_indicator_binomial_count(uniform_spec):
    # averages k/10; only k=3 lands in [0.25, 0.35]
    v = erg_constrained_coefficient(
        uniform_spec,
        indicator_obs(),
        TargetBox.interval(0.25, 0.35),
        zero_potential(uniform_spec),
        10,
    )
    assert v == pytest.approx(math.log(120), abs=1e-13)


def test_depth2_diagonal_periodic_words(uniform_spec):
    v = erg_constrained_coefficient(
        uniform_spec,
        diagonal_obs(),
        TargetBox.point(1.0),
        zero_potential(uniform_spec),
        2,
    )
    # periodic sums over the 4 words of length 2 are (2, 0, 0, 2) -> average 1
    # for exactly [1,1] and [2,2]
    assert v == pytest.approx(LOG2, rel=1e-14)


def test_outside_observable_range_empty(uniform_spec):
    obs = indicator_obs()
    phi0 = zero_potential(uniform_spec)
    for n in (1, 5, 9):
        v = erg_constrained_coefficient(
            uniform_spec, obs, TargetBox.interval(1.5, 2.0), phi0, n
        )
        assert v == NEG_INF


def test_erg_bowen_maximal_entropy_average(uniform_spec):
    res = erg_bowen(
        uniform_spec, indicator_obs(), TargetBox.point(0.5), n_max=200, tol=1e-8
    )
    assert res.value == pytest.approx(1.0, abs=2e-2)


def test_erg_bowen_binary_entropy_point(uniform_spec):
    res = erg_bowen(
        uniform_spec, indicator_obs(), TargetBox.point(0.3), n_max=300, tol=1e-8
    )
    assert res.value == pytest.approx(binary_entropy_dim(0.3), abs=2e-2)


def test_erg_bowen_degenerate_singleton(uniform_spec):
    v = erg_bowen(
        uniform_spec, indicator_obs(), TargetBox.point(0.0), mode="fixed",
        n_max=200, tol=1e-8,
    )
    # only the constant word 222... qualifies: zero entropy
    assert v == pytest.approx(0.0, abs=1e-6)


def test_erg_variational_binary_entropy(uniform_spec):
    res = erg_spectrum_variational(uniform_spec, indicator_obs(), TargetBox.point(0.3))
    assert res.value == pytest.approx(binary_entropy_dim(0.3), abs=1e-6)
    assert np.allclose(res.weights.w, [0.3, 0.7], atol=1e-6)


def test_erg_variational_full_range(uniform_spec):
    res = erg_spectrum_variational(
        uniform_spec, indicator_obs(), TargetBox.interval(0.0, 1.0)
    )
    assert res.value == pytest.approx(1.0, abs=1e-8)


def test_erg_variational_markov_zero_diagonal(uniform_spec, ternary_spec):
    res = erg_spectrum_variational(uniform_spec, diagonal_obs(), TargetBox.point(0.0))
    assert res.value == pytest.approx(0.0, abs=1e-9)
    spec3 = ternary_spec
    # ratios 1/3 give dim = h / log 3; rescale to r = 1/2 for the log 2 form
    from mfshift.model import ModelSpec

    spec3 = ModelSpec(
        ratios=[0.5, 0.5, 0.5], measures=[[1 / 3, 1 / 3, 1 / 3]], label="half3"
    )
    obs3 = ObservableTable(PotentialTable(np.eye(3)))
    res3 = erg_spectrum_variational(spec3, obs3, TargetBox.point(0.0))
    assert res3.value == pytest.approx(1.0, abs=1e-6)


def test_erg_variational_infeasible(uniform_spec):
    with pytest.raises(InfeasibleConstraint):
        erg_spectrum_variational(
            uniform_spec, indicator_obs(), TargetBox.interval(2.0, 3.0)
        )


def test_route_agreement_random_intervals(uniform_spec):
    rng = np.random.default_rng(5)
    obs = indicator_obs()
    for _ in range(5):
        a = rng.uniform(0.05, 0.8)
        b = min(a + rng.uniform(0.02, 0.2), 0.95)
        C = TargetBox.interval(a, b)
        via_zeta = erg_bowen(uniform_spec, obs, C, n_max=300, tol=1e-8)
        via_var = erg_spectrum_variational(uniform_spec, obs, C)
        assert via_zeta.value == pytest.approx(via_var.value, abs=2e-2)


def test_periodic_discrepancy_bound_sampled_words():
    rng = np.random.default_rng(9)
    f = PotentialTable(rng.uniform(-1, 1, size=(2, 2)))
    obs = ObservableTable(f)
    for _ in range(50):
        n = int(rng.integers(1, 10))
        w = Word(tuple(rng.integers(1, 3, size=n)), 2)
        rng_range = cylinder_birkhoff_range(f, w)
        mid = 0.5 * (rng_range.lo + rng_range.hi)
        per = periodic_birkhoff_sum(f, w)
        assert abs(mid - per) / n <= periodic_discrepancy_bound(obs, n) + 1e-12


def test_birkhoff_level_map_matches_oracle(quarter_spec):
    # depth-1 and tail-sensitive depth-2 observables, both constraint modes,
    # against literal word enumeration with explicit periodic tiling
    rng = np.random.default_rng(13)
    phi = scaling_potential(quarter_spec).scale(0.4)
    for values in (np.array([1.0, -0.5]), rng.uniform(-1.0, 1.0, size=(2, 2))):
        level = ObservableTable(PotentialTable(values)).as_level_map()
        for C in (TargetBox.interval(-0.2, 0.4), TargetBox.interval(0.1, 0.9)):
            for mode in ("L", "M"):
                for n in range(1, 11):
                    naive = brute_constrained_sum(quarter_spec, phi, C, n, mode, level)
                    fast = constrained_coefficient(
                        quarter_spec, phi, C, n, mode, level
                    )
                    assert (naive == NEG_INF) == (fast == NEG_INF)
                    rep = make_report("birkhoff", naive, fast, f"n={n}")
                    assert rep.rel_deviation < 1e-12


def test_erg_variational_matches_dense_scan(uniform_spec):
    obs = indicator_obs()
    for C in (
        TargetBox.point(0.3),
        TargetBox.interval(0.1, 0.25),
        TargetBox.interval(0.6, 0.9),
    ):
        fast = erg_spectrum_variational(uniform_spec, obs, C).value
        scan = brute_variational(uniform_spec, C, level=obs.as_level_map())
        assert scan.feasible
        assert make_report("birkhoff", scan.value, fast, "").rel_deviation < 2e-3
