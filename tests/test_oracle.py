import math

import numpy as np
import pytest

from mfshift.errors import DepthUnsupported
from mfshift.logsum import NEG_INF
from mfshift.mfzeta import constrained_coefficient
from mfshift.model import PotentialTable, TargetBox
from mfshift.oracle import (
    brute_constrained_sum,
    brute_variational,
    compare_constrained,
    compare_variational,
    make_report,
)

from conftest import scaling_potential, zero_potential

LOG2 = math.log(2)


def test_brute_canonical_binomial(quarter_spec):
    v = brute_constrained_sum(
        quarter_spec,
        zero_potential(quarter_spec),
        TargetBox.interval(0.8, 1.0),
        10,
    )
    assert v == pytest.approx(math.log(120), abs=1e-13)


def test_brute_vacuous_and_empty(quarter_spec):
    phi0 = zero_potential(quarter_spec)
    assert brute_constrained_sum(
        quarter_spec, phi0, None, 5
    ) == pytest.approx(5 * LOG2, rel=1e-14)
    assert (
        brute_constrained_sum(quarter_spec, phi0, TargetBox.point(0.5), 5)
        == NEG_INF
    )


@pytest.mark.parametrize("mode", ["L", "M"])
def test_fast_path_matches_oracle(quarter_spec, golden_spec, mode):
    boxes = [
        None,
        TargetBox.interval(0.8, 1.0),
        TargetBox.point(0.5),
        TargetBox.interval(-10.0, 10.0),
    ]
    for spec in (quarter_spec, golden_spec):
        phi = scaling_potential(spec).scale(0.4)
        for C in boxes:
            for n in range(1, 9):
                naive = brute_constrained_sum(spec, phi, C, n, mode)
                fast = constrained_coefficient(spec, phi, C, n, mode)
                if naive == NEG_INF or fast == NEG_INF:
                    assert naive == fast
                else:
                    rel = abs(naive - fast) / max(abs(naive), abs(fast), 1.0)
                    assert rel < 1e-12


def test_fast_path_matches_oracle_depth2(quarter_spec, depth2_level):
    phi0 = zero_potential(quarter_spec)
    C = TargetBox.interval(0.75, 1.05)
    for mode in ("L", "M"):
        for n in range(1, 9):
            naive = brute_constrained_sum(
                quarter_spec, phi0, C, n, mode, level=depth2_level
            )
            fast = constrained_coefficient(
                quarter_spec, phi0, C, n, mode, level=depth2_level
            )
            if naive == NEG_INF or fast == NEG_INF:
                assert naive == fast
            else:
                assert abs(naive - fast) / max(abs(naive), abs(fast), 1.0) < 1e-12


def test_brute_variational_information_point(quarter_spec):
    res = brute_variational(
        quarter_spec, TargetBox.point(0.811278), objective="dimension"
    )
    assert res.feasible
    assert res.value == pytest.approx(0.8112, abs=1e-3)


def test_brute_variational_entropy_max(quarter_spec):
    res = brute_variational(
        quarter_spec,
        TargetBox.interval(-50.0, 50.0),
        phi=zero_potential(quarter_spec),
        objective="pressure",
    )
    assert res.feasible
    assert res.value == pytest.approx(LOG2, abs=1e-6)


def test_brute_variational_infeasible(quarter_spec):
    res = brute_variational(
        quarter_spec, TargetBox.interval(9.0, 10.0), objective="dimension"
    )
    assert not res.feasible
    assert res.value == NEG_INF
    assert res.weights is None


def test_compare_helpers_record_deviations(quarter_spec):
    rep = compare_constrained(
        quarter_spec,
        zero_potential(quarter_spec),
        TargetBox.interval(0.8, 1.0),
        8,
    )
    assert rep.rel_deviation < 1e-12
    repv = compare_variational(
        quarter_spec, TargetBox.interval(0.7, 0.9), objective="dimension"
    )
    assert repv.rel_deviation < 2e-3


def test_compare_variational_refuses_depth2_phi(quarter_spec):
    # the scan covers product measures only; the block-frequency program
    # optimises over pair frequencies for depth-2 data (0.6228 against the
    # scan's 0.5693 on this box), so there is no twin to compare
    phi = PotentialTable(np.array([[0.3, -0.5], [-0.4, 0.2]]))
    with pytest.raises(DepthUnsupported):
        compare_variational(
            quarter_spec, TargetBox.interval(0.8, 1.0), phi, objective="pressure"
        )


def test_make_report_matched_neg_inf():
    rep = make_report("x", NEG_INF, NEG_INF, "n=3")
    assert rep.abs_deviation == 0.0 and rep.rel_deviation == 0.0
