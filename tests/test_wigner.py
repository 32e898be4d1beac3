"""Wigner function: displaced parity primary route and quadrature check."""

import math

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
