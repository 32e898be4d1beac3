"""Parameter validation, weak value and postselection probability."""

import cmath
import math

import numpy as np
import pytest

from spacsim.errors import DegeneratePostselection, RangeError
from spacsim.params import (
    FIGURE_PRESET,
    MAX_TRUNC,
    MIN_TRUNC,
    TAIL_LEVELS,
    ExperimentParams,
    postselection_probability,
    validate,
    weak_value,
)


def params(**overrides):
    return FIGURE_PRESET.with_(**overrides)


class TestValidate:
    def test_figure_preset_is_valid(self):
        p = ExperimentParams(r=1, theta=math.pi / 4, delta=math.pi / 6, phi=7 * math.pi / 9, s=0.5, trunc=128)
        assert validate(p) is p

    def test_negative_modulus_names_field(self):
        with pytest.raises(RangeError) as err:
            validate(params(r=-1.0))
        assert err.value.field == "r"

    def test_phi_at_pi_is_degenerate(self):
        with pytest.raises(DegeneratePostselection):
            validate(params(phi=math.pi))

    @pytest.mark.parametrize(
        "field,value",
        [("theta", -0.1), ("theta", 2 * math.pi), ("delta", 7.0), ("s", -0.5), ("trunc", 1)],
    )
    def test_out_of_range_fields(self, field, value):
        with pytest.raises(RangeError) as err:
            validate(params(**{field: value}))
        assert err.value.field == field

    def test_delta_endpoint_allowed(self):
        validate(params(delta=2 * math.pi))


class TestWeakValue:
    def test_quarter_turn(self):
        assert weak_value(0.0, math.pi / 2) == pytest.approx(1 + 0j, abs=1e-15)

    def test_vanishes_at_phi_zero(self):
        assert weak_value(1.234, 0.0) == 0

    def test_figure_default(self):
        w = weak_value(math.pi / 6, 7 * math.pi / 9)
        assert abs(w) == pytest.approx(math.tan(7 * math.pi / 18), rel=1e-15)
        assert cmath.phase(w) == pytest.approx(math.pi / 6, abs=1e-15)

    def test_diverges_at_pi(self):
        with pytest.raises(DegeneratePostselection):
            weak_value(0.0, math.pi)


class TestPostselectionProbability:
    @pytest.mark.parametrize(
        "phi,expected",
        [
            (0.0, 1.0),
            (math.pi / 2, 0.5),
            (7 * math.pi / 9, 0.11697777844051098),  # cos(7*pi/18)**2
        ],
    )
    def test_values(self, phi, expected):
        assert postselection_probability(phi) == pytest.approx(expected, abs=1e-15)

    def test_monotonically_decreasing(self):
        grid = np.linspace(0.0, math.pi - 1e-6, 200)
        values = [postselection_probability(phi) for phi in grid]
        assert all(a > b for a, b in zip(values, values[1:]))


class TestPhiDomain:
    """weak_value and postselection_probability check phi as validate does, NaN included."""

    @pytest.mark.parametrize("function", [lambda phi: weak_value(0.3, phi), postselection_probability])
    @pytest.mark.parametrize("phi", [math.nan, -1.0, math.inf, -math.inf])
    def test_outside_the_domain_is_a_range_error(self, function, phi):
        with pytest.raises(RangeError) as err:
            function(phi)
        assert err.value.field == "phi"

    @pytest.mark.parametrize("function", [lambda phi: weak_value(0.3, phi), postselection_probability])
    def test_pi_is_degenerate(self, function):
        with pytest.raises(DegeneratePostselection):
            function(math.pi)


class TestIdentities:
    def test_amplification_tradeoff(self):
        """|w|^2 * P_s equals sin(phi/2)^2 for any angles."""
        rng = np.random.default_rng(7)
        for _ in range(100):
            delta = rng.uniform(0, 2 * math.pi)
            phi = rng.uniform(0, math.pi - 1e-9)
            lhs = abs(weak_value(delta, phi)) ** 2 * postselection_probability(phi)
            assert lhs == pytest.approx(math.sin(phi / 2) ** 2, abs=1e-12)

    def test_weak_value_finite_up_to_pi(self):
        for phi in np.linspace(0, math.pi - 1e-9, 50):
            assert math.isfinite(abs(weak_value(0.3, phi)))


class TestTruncationBound:
    @pytest.mark.parametrize("trunc", [2, 3, TAIL_LEVELS, TAIL_LEVELS + 1, MAX_TRUNC + 1, 10**30])
    def test_truncations_the_tail_check_cannot_pass_are_out_of_range(self, trunc):
        with pytest.raises(RangeError) as err:
            validate(params(trunc=trunc))
        assert err.value.field == "trunc"

    def test_smallest_allowed_truncation(self):
        assert MIN_TRUNC == TAIL_LEVELS + 2
        validate(params(trunc=MIN_TRUNC))

    def test_largest_allowed_truncation(self):
        validate(params(trunc=MAX_TRUNC))
