"""Wigner function: displaced parity primary route and quadrature check."""

import cmath
import math
import tracemalloc

import numpy as np
import pytest

from spacsim import wigner
from spacsim.errors import TruncationTooSmall
from spacsim.fock import basis_state, coherent, final_pointer_state, spacs
from spacsim.params import FIGURE_PRESET
from spacsim.wigner import (
    CharacteristicFunctionGrid,
    required_dim,
    wigner_grid_values,
    wigner_normalization,
    wigner_point,
    wigner_point_quadrature,
    wigner_values,
)

BOUND = 2.0 / math.pi


class TestDisplacedParity:
    def test_vacuum_origin(self):
        assert wigner_point(basis_state(0, 64), 0) == pytest.approx(BOUND, abs=1e-12)

    def test_single_photon_origin(self):
        assert wigner_point(basis_state(1, 64), 0) == pytest.approx(-BOUND, abs=1e-12)

    def test_coherent_peak_at_displacement(self):
        alpha = 0.8 + 0.5j
        assert wigner_point(coherent(alpha, 64), alpha) == pytest.approx(BOUND, abs=1e-10)

    def test_bounded_everywhere_sampled(self):
        rng = np.random.default_rng(3)
        state = final_pointer_state(FIGURE_PRESET.with_(r=1.5, s=2.0))
        zs = rng.uniform(-5, 5, 40) + 1j * rng.uniform(-5, 5, 40)
        values = wigner_values(state, zs)
        assert np.all(np.abs(values) <= BOUND + 1e-9)

    def test_grid_orientation(self):
        # entry (i, j) belongs to xs[i] + 1j*ps[j]
        state = coherent(1.0, 64)
        xs = np.array([0.0, 1.0])
        ps = np.array([-0.5, 0.0, 0.5])
        grid = wigner_grid_values(state, xs, ps)
        assert grid.shape == (2, 3)
        assert grid[1, 1] == pytest.approx(BOUND, abs=1e-10)
        assert grid[1, 1] > grid[0, 1]

    def test_normalisation_integral(self):
        integral, values = wigner_normalization(spacs(1.0 * np.exp(1j * math.pi / 4), 128))
        assert integral == pytest.approx(1.0, abs=1e-3)
        assert np.all(np.abs(values) <= BOUND + 1e-9)

    def test_padding_grows_with_distance(self):
        state = spacs(1.0, 128)
        assert required_dim(state, 0.5) == 128
        assert required_dim(state, 8.5) > 128

    def test_batch_and_single_points_agree(self):
        # not bit for bit: the batch pads to its largest |z| and multiplies a chunk of columns at once
        rng = np.random.default_rng(50)
        state = final_pointer_state(FIGURE_PRESET.with_(r=2.0, s=2.0))
        zs = rng.uniform(-4, 4, 50) + 1j * rng.uniform(-4, 4, 50)
        batch = wigner_values(state, zs)
        single = np.array([wigner_point(state, z) for z in zs])
        assert np.max(np.abs(batch - single)) <= 1e-14

    def test_workers_do_not_change_values(self):
        state = final_pointer_state(FIGURE_PRESET)
        zs = np.linspace(-2, 2, 40) + 1j * np.linspace(-1, 1, 40)
        serial = wigner_values(state, zs, workers=1)
        threaded = wigner_values(state, zs, workers=4)
        assert np.array_equal(serial, threaded)


class TestPositionRepresentationGrid:
    @pytest.mark.parametrize("r", [0.0, 1.0, 2.0])
    @pytest.mark.parametrize("s", [0.0, 0.5, 2.0])
    def test_agrees_with_displaced_parity_on_figure_panels(self, r, s):
        state = final_pointer_state(FIGURE_PRESET.with_(r=r, s=s))
        axis = np.linspace(-4.0, 4.0, 201)
        grid = wigner_grid_values(state, axis, axis)
        rng = np.random.default_rng(int(10 * r + 100 * s))
        for i, j in rng.integers(0, axis.size, size=(8, 2)):
            ref = wigner_point(state, complex(axis[i], axis[j]))
            assert abs(grid[i, j] - ref) <= 1e-12

    def test_coherent_closed_form_at_large_amplitude(self):
        # exp(-u^2/2) underflows at u = sqrt(2) * 30, where psi is O(1)
        alpha = 30.0
        xs = np.linspace(alpha - 1.5, alpha + 1.5, 31)
        ps = np.linspace(-1.5, 1.5, 21)
        grid = wigner_grid_values(coherent(alpha, 1400), xs, ps)
        zs = xs[:, None] + 1j * ps[None, :]
        assert np.max(np.abs(grid - BOUND * np.exp(-2.0 * np.abs(zs - alpha) ** 2))) <= 1e-12

    def test_tail_guard_fires_when_y_range_cuts_psi(self, monkeypatch):
        monkeypatch.setattr(wigner, "SUPPORT_MARGIN", 0.5)
        axis = np.linspace(-2.0, 2.0, 41)
        with pytest.raises(TruncationTooSmall):
            wigner_grid_values(spacs(1.0, 64), axis, axis)

    def test_single_x_value_agrees_with_displaced_parity(self):
        state = final_pointer_state(FIGURE_PRESET.with_(r=1.0, s=2.0))
        ps = np.linspace(-4.0, 4.0, 201)
        grid = wigner_grid_values(state, np.array([0.5]), ps)
        assert grid.shape == (1, ps.size)
        assert np.max(np.abs(grid[0] - wigner_values(state, 0.5 + 1j * ps))) <= 1e-12

    @pytest.mark.parametrize(
        "ps", [[2.5, -0.7, 0.0, -0.0, 0.7, -3.1, 2.5], [-0.3, -2.0, -1.1]], ids=["mixed", "negative"]
    )
    def test_unsorted_asymmetric_and_repeated_ps(self, ps):
        # the route sums over the distinct |p| and sets the sign of the odd part per p
        state = final_pointer_state(FIGURE_PRESET.with_(r=1.0, s=2.0))
        xs = np.linspace(-2.0, 2.0, 9)
        ps = np.array(ps)
        grid = wigner_grid_values(state, xs, ps)
        assert np.max(np.abs(grid - wigner_values(state, xs[:, None] + 1j * ps[None, :]))) <= 1e-12
        assert np.max(np.abs(grid - wigner_grid_values(state, xs, -ps))) > 1e-2  # W is not even in p here

    def test_rejects_non_uniform_xs(self):
        with pytest.raises(ValueError):
            wigner_grid_values(spacs(1.0, 64), np.array([0.0, 0.1, 0.3]), np.array([0.0]))


class TestQuadratureCrossCheck:
    def test_vacuum(self):
        value = wigner_point_quadrature(basis_state(0, 64), 0, cutoff=5, res=0.02)
        assert value == pytest.approx(BOUND, abs=1e-4)

    def test_single_photon(self):
        value = wigner_point_quadrature(basis_state(1, 64), 0, cutoff=5, res=0.02)
        assert value == pytest.approx(-BOUND, abs=1e-4)

    def test_agrees_with_parity_on_figure_state(self):
        """Two independent algorithms for the same transform."""
        state = final_pointer_state(FIGURE_PRESET)
        char = CharacteristicFunctionGrid(state, cutoff=6, res=0.04, workers=2)
        rng = np.random.default_rng(42)
        for x, p in rng.uniform(-2, 2, size=(5, 2)):
            z = complex(x, p)
            assert char.wigner_at(z) == pytest.approx(wigner_point(state, z), abs=1e-4)


def _default_grid(state):
    """<D(lambda)> on the default quadrature grid (cutoff 6, res 0.04) and the lambdas."""
    char = CharacteristicFunctionGrid(state)
    return char.values, char.centers[:, None] + 1j * char.centers[None, :]


class TestCharacteristicFunctionClosedForms:
    """The Laguerre matrix-element route against exact <D(lambda)> on every default grid point."""

    def test_vacuum(self):
        values, lam = _default_grid(basis_state(0, 64))
        assert values.shape == (300, 300)
        assert np.max(np.abs(values - np.exp(-np.abs(lam) ** 2 / 2))) <= 1e-12

    def test_single_photon(self):
        values, lam = _default_grid(basis_state(1, 64))
        x = np.abs(lam) ** 2
        assert np.max(np.abs(values - np.exp(-x / 2) * (1 - x))) <= 1e-12

    def test_coherent_at_amplitude_four(self):
        alpha = 4.0 * cmath.exp(0.7j)
        state = coherent(alpha, 128)
        assert state.support(wigner.SUPPORT_CUTOFF) == 84
        values, lam = _default_grid(state)
        exact = np.exp(-np.abs(lam) ** 2 / 2 + lam * alpha.conjugate() - lam.conj() * alpha)
        assert np.max(np.abs(values - exact)) <= 1e-12

    def test_high_fock_state_past_row_zero_underflow(self):
        # <900|D(lambda)|900> = exp(-x/2) L_900(x) with x = |lambda|^2; row 0
        # of the recurrence, exp(-x/2), underflows for |lambda| above 38.6,
        # where the element is still about 0.02
        mpmath = pytest.importorskip("mpmath")
        char = CharacteristicFunctionGrid(basis_state(900, 912), cutoff=48.0, res=8.0)
        x = np.abs(char.centers[:, None] + 1j * char.centers[None, :]) ** 2
        with mpmath.workdps(30):
            exact = np.vectorize(lambda v: float(mpmath.exp(-v / 2) * mpmath.laguerre(900, 0, v)))(x)
        assert np.max(np.abs(exact[x > 40.0**2])) > 0.01
        assert np.max(np.abs(char.values - exact)) <= 1e-12

    @pytest.mark.parametrize("cutoff, res", [(1e49, 1e48), (3e153, 1e153), (1e200, 1e199)])
    def test_far_points_are_zero(self, cutoff, res):
        # |lambda|^2 overflows a double on the last grid; the exact values are far below 1e-300
        assert np.all(CharacteristicFunctionGrid(basis_state(3, 16), cutoff, res).values == 0)

    def test_odd_grid_centred_on_the_origin(self):
        char = CharacteristicFunctionGrid(final_pointer_state(FIGURE_PRESET), cutoff=1.5, res=1.0)
        assert np.array_equal(char.centers, [-1.0, 0.0, 1.0])
        assert np.all(np.isfinite(char.values))
        assert char.values[1, 1] == pytest.approx(1.0, abs=1e-12)


def _peak_bytes(call) -> int:
    """Peak traced allocation while ``call()`` raises ValueError."""
    tracemalloc.start()
    try:
        with pytest.raises(ValueError):
            call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestReferenceRouteInput:
    """The parity and quadrature routes reject bad input with ValueError, as the grid route does."""

    @pytest.mark.parametrize("z", [math.inf, complex(0.0, -math.inf), complex(math.nan, 0.0)])
    def test_wigner_point_rejects_non_finite_points(self, z):
        with pytest.raises(ValueError, match="finite"):
            wigner_point(spacs(1.0, 64), z)

    def test_wigner_values_rejects_non_finite_points(self):
        with pytest.raises(ValueError, match="finite"):
            wigner_values(spacs(1.0, 64), np.array([0.0, 1.0 + 1j, complex(1.0, math.nan)]))

    @pytest.mark.parametrize(
        "half_width, step",
        [(1.0, -0.1), (1.0, 0.0), (0.0, 0.05), (-6.0, 0.05), (1.0, math.inf), (math.inf, 0.05), (math.nan, 0.05), (6.0, math.nan)],
    )
    @pytest.mark.parametrize("route", [wigner_normalization, CharacteristicFunctionGrid])
    def test_bad_range_is_rejected(self, route, half_width, step):
        with pytest.raises(ValueError, match="finite and positive"):
            route(spacs(1.0, 64), half_width, step)

    @pytest.mark.parametrize("route", [wigner_normalization, CharacteristicFunctionGrid])
    def test_step_that_leaves_no_cell_is_rejected(self, route):
        # the midpoint rule would have no cell, and the integral would read 0
        with pytest.raises(ValueError, match="no cell"):
            route(spacs(1.0, 64), 0.1, 1.0)

    @pytest.mark.parametrize("step", [1e-6, 1e-300])
    @pytest.mark.parametrize("route", ["normalization", "characteristic"])
    def test_over_cap_grid_is_rejected_before_allocating(self, route, step):
        state = spacs(1.0, 64)
        build = wigner_normalization if route == "normalization" else CharacteristicFunctionGrid
        # a 1e-6 step asks for 1.2e7 cells per axis: 96 MB for the axis alone
        assert _peak_bytes(lambda: build(state, 6.0, step)) < 2**20
