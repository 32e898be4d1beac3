"""Printed closed forms: forced values, exactness of kappa, known ratios.

These tests pin the transcription, not the physics: where the printed
text disagrees with the oracle the expected value here is the printed
one, and the known constant-factor anomalies are asserted as ratios so
any silent "fix" of the transcription shows up as a failure.
"""

import cmath
import math

import numpy as np
import pytest

import spacsim.printed
from spacsim.errors import NonPositiveNorm, NumericalOverflow
from spacsim.fock import final_pointer_state, moments, oracle_kappa_sq, spacs
from spacsim.params import FIGURE_PRESET, ExperimentParams, weak_value
from spacsim.printed import (
    evaluate_points,
    printed_kappa_sq,
    printed_moment_columns,
    printed_moments,
    printed_wigner,
    printed_wigner_values,
    t3,
    w1,
)

SINGLE_PHOTON = ExperimentParams(r=0.0, theta=0.0, delta=math.pi / 6, phi=7 * math.pi / 9, s=0.0)


class TestPrintedKappa:
    @pytest.mark.parametrize("delta,phi", [(0.0, 0.0), (math.pi / 6, 7 * math.pi / 9), (2.0, 1.0)])
    def test_collapses_to_half_at_zero_coupling(self, delta, phi):
        p = FIGURE_PRESET.with_(delta=delta, phi=phi, s=0.0)
        assert printed_kappa_sq(p) == 0.5

    @pytest.mark.parametrize("s", [0.0, 0.25, 0.5, 1.0, 2.0, 4.0])
    def test_exact_against_oracle_norm(self, s):
        p = FIGURE_PRESET.with_(s=s)
        assert printed_kappa_sq(p) == pytest.approx(oracle_kappa_sq(p), rel=1e-10)

    def test_positive_on_random_parameters(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            p = FIGURE_PRESET.with_(
                r=rng.uniform(0, 2),
                theta=rng.uniform(0, 2 * math.pi),
                delta=rng.uniform(0, 2 * math.pi),
                phi=rng.uniform(0, math.pi - 0.05),
                s=rng.uniform(0, 4),
            )
            assert printed_kappa_sq(p) > 0


class TestPrintedMoments:
    def test_single_photon_point_doubles_oracle(self):
        # oracle pointer state at alpha=0, s=0 is the one-photon state
        pm = printed_moments(SINGLE_PHOTON)
        assert pm.n_mean == pytest.approx(2.0, abs=1e-12)  # oracle value is 1

    def test_field_amplitude_factor_two_at_zero_coupling(self):
        p = FIGURE_PRESET.with_(s=0.0)
        pm = printed_moments(p)
        om = moments(spacs(p.alpha, p.trunc))
        assert pm.m_a / om.m_a == pytest.approx(2.0, abs=1e-12)
        assert pm.m_a2 / om.m_a2 == pytest.approx(2.0, abs=1e-12)
        assert pm.m_a4 / om.m_a4 == pytest.approx(2.0, abs=1e-12)
        assert pm.m_a2d2 / om.m_a2d2 == pytest.approx(2.0, abs=1e-12)

    def test_depends_on_angles_only_through_weak_value(self):
        # delta = 0 and delta = 2*pi give the same weak value up to one
        # ulp of exp(i*delta), so equality holds at float tolerance
        a = printed_moments(FIGURE_PRESET.with_(delta=0.0))
        b = printed_moments(FIGURE_PRESET.with_(delta=2 * math.pi))
        for field in ("m_a", "m_a2", "m_a4", "n_mean", "m_a2d2", "kappa_sq"):
            assert getattr(a, field) == pytest.approx(getattr(b, field), rel=1e-12)

    def test_finite_on_random_parameters(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            p = FIGURE_PRESET.with_(
                r=rng.uniform(0, 2),
                theta=rng.uniform(0, 2 * math.pi),
                delta=rng.uniform(0, 2 * math.pi),
                phi=rng.uniform(0, math.pi - 0.05),
                s=rng.uniform(0, 4),
            )
            pm = printed_moments(p)
            for value in (pm.m_a, pm.m_a2, pm.m_a4, pm.n_mean, pm.m_a2d2, pm.kappa_sq):
                assert np.all(np.isfinite([np.real(value), np.imag(value)]))

    @pytest.mark.parametrize("alpha", [0.5, 1.0 + 0.4j, 1.5j])
    def test_helper_zero_coupling_identities(self, alpha):
        # transcription regression: at s=0 the cross helpers reduce to
        # the exact single-branch expressions
        g2 = 1 / (1 + abs(alpha) ** 2)
        assert w1(alpha, 0.0) == pytest.approx(2 * alpha + alpha * abs(alpha) ** 2, abs=1e-12)
        assert t3(alpha, 0.0) == pytest.approx(
            g2 * (abs(alpha) ** 4 + 3 * abs(alpha) ** 2 + 1), abs=1e-12
        )


class TestPrintedMomentColumns:
    FIELDS = ("m_a", "m_a2", "m_a4", "n_mean", "m_a2d2", "kappa_sq")

    @pytest.mark.parametrize("theta, delta", [(math.pi / 4, math.pi / 6), (2.5, 0.3), (5.9, 1.1), (4.275, 2.687)])
    @pytest.mark.parametrize("swept, values", [("s", np.linspace(0.0, 4.0, 201)), ("r", np.linspace(0.0, 3.0, 151))])
    def test_matches_scalar_on_figure_grids(self, theta, delta, swept, values):
        # the fig1a and fig1b grids, from s = 0 and r = 0, at every figure angle
        base = FIGURE_PRESET.with_(theta=theta, delta=delta)
        r = values if swept == "r" else np.full(values.size, base.r)
        s = values if swept == "s" else np.full(values.size, base.s)
        for phi in (math.pi / 3, math.pi / 2, 2 * math.pi / 3, 7 * math.pi / 9):
            columns = printed_moment_columns(r * cmath.exp(1j * theta), s, weak_value(delta, phi))
            for j, value in enumerate(values.tolist()):
                ref = printed_moments(base.with_(phi=phi, **{swept: value}))
                for name in self.FIELDS:
                    want = getattr(ref, name)
                    assert getattr(columns, name)[j] == want, (phi, value, name)

    def test_overflow_is_numerical(self):
        columns = np.array([1.0, 1e200], dtype=complex), np.full(2, 0.5), np.full(2, weak_value(0.5, 1.0))
        with pytest.raises(NumericalOverflow, match="^printed_moments: .* overflows a double at row 1: "):
            evaluate_points("printed_moments", printed_moment_columns, "row {}".format, *columns)

    def test_overflow_of_a_long_column_names_its_first_failing_point(self):
        # |alpha|^2 overflows from the second entry on, about 1.2e197
        alpha = np.linspace(0.0, 1e200, 804) * np.exp(0.25j * math.pi)
        columns = alpha, np.full(alpha.size, 0.5), np.full(alpha.size, weak_value(0.5, 1.0))
        with pytest.raises(NumericalOverflow) as raised:
            evaluate_points("printed_moments", printed_moment_columns, "row {}".format, *columns)
        assert " at row 1: " in str(raised.value) and len(str(raised.value)) < 300

    def test_non_positive_norm_names_its_point(self):
        def inverse(values):
            bad = np.flatnonzero(values <= 0.0)
            if bad.size:
                raise NonPositiveNorm(f"printed normalisation expression is {values[bad[0]]}")
            return values

        with pytest.raises(NonPositiveNorm, match="^printed normalisation expression is -0.5 at row 1$"):
            evaluate_points("printed_kappa_sq", inverse, "row {}".format, np.array([1.0, -0.5, 0.0]))


    def test_failure_search_halves_a_window(self):
        # only the last of 1,000 points fails; a point-by-point search would evaluate 1,001 columns
        calls = []

        def evaluate(values):
            calls.append(values.size)
            if (values == 999.0).any():
                raise FloatingPointError("overflow encountered in multiply")
            return values

        with pytest.raises(NumericalOverflow, match="^printed_moments: .* at row 999: overflow encountered in multiply$"):
            evaluate_points("printed_moments", evaluate, "row {}".format, np.arange(1000.0))
        assert len(calls) <= 2 * math.log2(1000) + 2
        assert calls[0] == 1000 and calls[-1] == 1


class TestPrintedWigner:
    def test_single_photon_origin_doubles_oracle(self):
        value = printed_wigner(SINGLE_PHOTON, 0)
        assert value == pytest.approx(-4.0 / math.pi, abs=1e-12)  # oracle: -2/pi

    def test_factor_two_against_oracle_on_grid(self):
        """Away from the normalisation slip the printed Wigner is exact."""
        from spacsim.wigner import wigner_values

        p = FIGURE_PRESET
        state = final_pointer_state(p)
        zs = np.array([0.0, 0.3 + 0.2j, 1.0 - 0.5j, -0.7 + 1.1j, 1.5])
        oracle = wigner_values(state, zs)
        for z, ov in zip(zs, oracle):
            assert printed_wigner(p, z) == pytest.approx(2.0 * ov, abs=1e-10)

    def test_real_and_finite(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            value = printed_wigner(FIGURE_PRESET.with_(s=rng.uniform(0, 4)), z)
            assert isinstance(value, float) and math.isfinite(value)

    @pytest.mark.parametrize("r", [0.0, 1.0, 2.0])
    @pytest.mark.parametrize("s", [0.0, 0.5, 2.0])
    def test_vectorised_matches_scalar_on_panel_grid(self, r, s):
        p = FIGURE_PRESET.with_(r=r, s=s)
        axis = np.linspace(-4.0, 4.0, 33)
        zs = axis[:, None] + 1j * axis[None, :]
        values = printed_wigner_values(p, zs)
        assert values.shape == zs.shape
        for z, v in zip(zs.ravel(), values.ravel()):
            assert v == printed_wigner(p, z)

    def test_clipping_far_points_keeps_every_near_point_bit_and_the_callers_array(self, monkeypatch):
        parts = [-1e153, -2.5, -0.0, 0.0, 0.75, 1e153]
        zs = np.array([complex(x, p) for x in parts for p in parts])
        given = zs.copy()
        clipped = printed_wigner_values(FIGURE_PRESET, zs)
        monkeypatch.setattr(spacsim.printed, "_FAR_Z", math.inf)  # no clipping
        assert clipped.tobytes() == printed_wigner_values(FIGURE_PRESET, zs).tobytes()
        monkeypatch.undo()
        far = printed_wigner_values(FIGURE_PRESET, np.array([1e155 + 0.5j, -0.5 - 1e300j, 1e300 + 1e300j]))
        assert far.tolist() == [0.0, 0.0, 0.0]
        assert zs.tobytes() == given.tobytes()
