import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfshift.errors import DepthUnsupported, ValidationError
from mfshift.model import (
    LevelMap,
    MarkovWeights,
    ModelSpec,
    PotentialTable,
    ProductMeasureWeights,
    TargetBox,
    build_potentials,
    entropy,
    integrate,
    level_map,
    moran_dimension,
)

LOG2 = math.log(2)


def test_build_potentials_uniform_ratios():
    spec = ModelSpec(ratios=[0.5, 0.5], measures=[[0.25, 0.75]])
    lam, (phi,) = build_potentials(spec)
    assert np.allclose(lam.values, [-LOG2, -LOG2])
    assert np.allclose(phi.values, [math.log(0.25), math.log(0.75)])


def test_build_potentials_golden():
    spec = ModelSpec(ratios=[0.5, 0.25], measures=[[0.5, 0.5]])
    lam, _ = build_potentials(spec)
    assert lam.values[0] == pytest.approx(-0.6931471805599453, abs=1e-12)
    assert lam.values[1] == pytest.approx(-1.3862943611198906, abs=1e-12)


@pytest.mark.parametrize(
    "ratios,measures",
    [
        ([1.2, 0.5], [[0.5, 0.5]]),
        ([0.5, 0.0], [[0.5, 0.5]]),
        ([0.5, 0.5], [[0.0, 1.0]]),
        ([0.5, 0.5], [[0.3, 0.3]]),
        ([0.5], [[1.0]]),
    ],
)
def test_spec_validation_rejects(ratios, measures):
    with pytest.raises(ValidationError):
        ModelSpec(ratios=ratios, measures=measures)


def test_ratio_error_message_names_the_invariant():
    with pytest.raises(ValidationError, match="ratio out of"):
        ModelSpec(ratios=[1.2, 0.5], measures=[[0.5, 0.5]])


def test_entropy_examples():
    assert entropy(ProductMeasureWeights([0.5, 0.5])) == pytest.approx(LOG2)
    assert entropy(ProductMeasureWeights([1.0, 0.0])) == 0.0
    assert entropy(ProductMeasureWeights([0.25, 0.75])) == pytest.approx(
        0.5623351446188083, abs=1e-12
    )


def test_entropy_markov_two_cycle():
    mu = MarkovWeights(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(mu.pi, [0.5, 0.5])
    assert entropy(mu) == 0.0


def test_integrate_examples():
    spec = ModelSpec(ratios=[0.5, 0.5], measures=[[0.25, 0.75]])
    lam, (phi,) = build_potentials(spec)
    uniform = ProductMeasureWeights([0.5, 0.5])
    assert integrate(uniform, lam) == pytest.approx(-LOG2)
    skew = ProductMeasureWeights([0.25, 0.75])
    assert integrate(skew, phi) == pytest.approx(-0.5623351446188083, abs=1e-12)


def test_integrate_markov_depth2():
    mu = MarkovWeights(np.array([[0.0, 1.0], [1.0, 0.0]]))
    diag = PotentialTable(np.eye(2))
    assert integrate(mu, diag) == 0.0
    with pytest.raises(DepthUnsupported):
        integrate(mu, PotentialTable(np.zeros((2, 2, 2))))


def test_integrate_bernoulli_depth2_product():
    mu = ProductMeasureWeights([0.25, 0.75])
    diag = PotentialTable(np.eye(2))
    assert integrate(mu, diag) == pytest.approx(0.25**2 + 0.75**2)


def test_level_map_examples():
    spec = ModelSpec(ratios=[0.5, 0.5], measures=[[0.25, 0.75]])
    uniform_spec = ModelSpec(ratios=[0.5, 0.5], measures=[[0.5, 0.5]])
    assert level_map(ProductMeasureWeights([0.5, 0.5]), uniform_spec)[
        0
    ] == pytest.approx(1.0)
    assert level_map(ProductMeasureWeights([0.25, 0.75]), spec)[0] == pytest.approx(
        0.8112781244591328, abs=1e-12
    )
    assert level_map(ProductMeasureWeights([1.0, 0.0]), spec)[0] == pytest.approx(
        2.0
    )


def test_gibbs_level_matches_beta_gradient():
    from mfshift.spectrum import beta

    spec = ModelSpec(ratios=[0.5, 0.25], measures=[[0.3, 0.7]])
    for q in (-2.0, -0.5, 0.0, 0.7, 1.0, 3.0):
        bp = beta(spec, q)
        lv = level_map(bp.gibbs_weights, spec)
        assert np.max(np.abs(lv - bp.alpha)) < 1e-9


def test_dilate_composes_exactly():
    C = TargetBox.interval(0.8, 1.0)
    both = C.dilate(0.1).dilate(0.2)
    once = C.dilate(0.1 + 0.2)
    # floats: 0.1 + 0.2 applied to the same endpoints in one or two steps
    assert both.lo[0] == pytest.approx(once.lo[0], abs=1e-15)
    assert both.hi[0] == pytest.approx(once.hi[0], abs=1e-15)


def test_dilate_example():
    C = TargetBox.interval(0.8, 1.0).dilate(0.1)
    assert C.lo[0] == pytest.approx(0.7)
    assert C.hi[0] == pytest.approx(1.1)


def test_contains_and_distance():
    C = TargetBox.interval(0.8, 1.0)
    assert C.contains_point([0.89053])
    assert not C.contains_point([0.5])
    assert TargetBox.interval(0.0, 1.0).distance([1.5]) == pytest.approx(0.5)
    assert TargetBox.interval(0.0, 1.0).distance([0.5]) == 0.0


@settings(max_examples=50, deadline=None)
@given(
    lo=st.floats(-2, 2),
    width=st.floats(0, 1),
    a=st.floats(-2, 2),
    b=st.floats(0, 1),
    r=st.floats(0, 3),
)
def test_contains_monotone_under_dilation(lo, width, a, b, r):
    C = TargetBox.interval(lo, lo + width)
    if C.contains_box([a], [a + b]):
        assert C.dilate(r).contains_box([a], [a + b])


def test_entropy_peaks_at_uniform_grid():
    # grid scan plus the exact uniform point: the unique maximizer
    for N in (2, 3):
        if N == 2:
            grid = [(i / 100, 1 - i / 100) for i in range(101)]
        else:
            grid = [
                (i / 50, j / 50, 1 - i / 50 - j / 50)
                for i in range(51)
                for j in range(51 - i)
            ]
        grid.append(tuple([1.0 / N] * N))
        vals = [entropy(ProductMeasureWeights(np.array(w))) for w in grid]
        best = int(np.argmax(vals))
        assert vals[best] == pytest.approx(math.log(N), abs=1e-12)
        assert np.allclose(grid[best], 1.0 / N)


def test_moran_dimension_values():
    assert moran_dimension(
        ModelSpec(ratios=[0.5, 0.5], measures=[[0.5, 0.5]])
    ) == pytest.approx(1.0, abs=1e-12)
    assert moran_dimension(
        ModelSpec(ratios=[1 / 3, 1 / 3, 1 / 3], measures=[[0.2, 0.3, 0.5]])
    ) == pytest.approx(1.0, abs=1e-12)


def test_potential_table_lift_and_combine():
    phi = PotentialTable(np.array([1.0, 2.0]))
    lifted = phi.lift(3)
    assert lifted.values.shape == (2, 2, 2)
    assert lifted.values[0, 1, 0] == 1.0
    total = phi + PotentialTable(np.eye(2))
    assert total.depth == 2
    assert total.values[0, 0] == 2.0
    assert (2.0 * phi).values[1] == 4.0


def test_potential_oscillations():
    phi = PotentialTable(np.array([[0.0, 1.0], [3.0, 3.5]]))
    osc = phi.oscillations()
    assert osc[0] == 3.5
    assert osc[1] == pytest.approx(1.0)


def test_markov_validation():
    with pytest.raises(ValidationError):
        MarkovWeights(np.array([[0.5, 0.4], [0.5, 0.5]]))
    with pytest.raises(ValidationError):
        MarkovWeights(
            np.array([[0.5, 0.5], [0.5, 0.5]]), pi=np.array([0.9, 0.1])
        )


def test_level_map_rejects_nonnegative_denominator():
    with pytest.raises(ValidationError):
        LevelMap(
            (PotentialTable(np.array([-1.0, -1.0])),),
            PotentialTable(np.array([0.5, -1.0])),
        )


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_target_box_rejects_non_finite(bad):
    with pytest.raises(ValidationError):
        TargetBox.point(bad)
    with pytest.raises(ValidationError):
        TargetBox.interval([0.0, bad], [1.0, 1.0])
    with pytest.raises(ValidationError):
        TargetBox.interval(-1.0, bad)
