"""Wigner function: displaced parity primary route and quadrature check."""

import cmath
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from spacsim import wigner
from spacsim.errors import TruncationTooSmall
from spacsim.fock import basis_state, coherent, displaced_columns, final_pointer_state, pad, spacs
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

    def test_parity_sums_the_displaced_columns(self):
        # one displacement routine: the parity values are (2/pi) sum_n (-1)^n |<n|D(-z)|psi>|^2 over displaced_columns
        state = final_pointer_state(FIGURE_PRESET.with_(r=1.5, s=4.0))
        zs = np.array([0.3 - 0.2j, -1.0 + 0.5j, 2.0j, 0.0])
        work = pad(state, required_dim(state, float(np.max(np.abs(zs)))))
        cols = displaced_columns(work, -zs)
        expected = (2.0 / math.pi) * (np.where(np.arange(work.dim) % 2 == 0, 1.0, -1.0) @ (cols.real**2 + cols.imag**2))
        assert wigner_values(state, zs).tobytes() == expected.tobytes()


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

    @pytest.mark.parametrize("axis", ["x", "p"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_coordinates(self, axis, bad):
        xs, ps = np.linspace(-1.0, 1.0, 5), np.linspace(-1.0, 1.0, 3)
        (xs if axis == "x" else ps)[1] = bad
        with pytest.raises(ValueError, match="grid coordinates must be finite"):
            wigner_grid_values(spacs(1.0, 64), xs, ps)

    @pytest.mark.parametrize("nx, np_", [(0, 3), (4, 0), (0, 0)])
    def test_empty_axis_gives_an_empty_grid_of_zeros(self, nx, np_):
        grid = wigner_grid_values(spacs(1.0, 64), np.linspace(-1.0, 1.0, nx), np.linspace(-1.0, 1.0, np_))
        assert grid.shape == (nx, np_) and not grid.any()

    def test_lone_x_is_planned_as_a_grid_of_spacing_two_dy_max(self):
        # the lattice plan of a lone x is that of a grid of spacing 2 * dy_max
        # (one lattice step dy_max per half spacing), so its row has the bits
        # of the first row of such a grid
        state = final_pointer_state(FIGURE_PRESET.with_(r=1.0, s=2.0))
        ps = np.linspace(-4.0, 4.0, 201)
        y_max = math.sqrt(state.support(wigner.SUPPORT_CUTOFF) + 0.5) + wigner.SUPPORT_MARGIN
        dy_max = 2.0 * math.pi / (4.0 * y_max + 4.0 * 4.0)
        lone = wigner_grid_values(state, np.array([0.0]), ps)
        pair = wigner_grid_values(state, np.array([0.0, 2.0 * dy_max]), ps)
        assert lone.tobytes() == pair[:1].tobytes()

    @pytest.mark.parametrize("xs", [[0.0], [0.0, 0.5]], ids=["lone", "pair"])
    def test_overflowing_p_bandwidth_fails_the_size_check(self, xs):
        # 4 |p| overflows a double: the lattice would need infinitely many
        # samples, for a lone x as for a grid, and nothing is allocated
        with pytest.raises(ValueError, match="at least inf elements"):
            wigner_grid_values(spacs(1.0, 64), np.array(xs), np.array([1e308]))


def test_far_point_has_the_same_bits_alone_and_among_near_points():
    # at x = 22 the recurrence frame of these 640 levels passes _RESCALE, near the origin it cannot
    amps = spacs(20.0, 640).amps
    near, far = np.linspace(-3.0, 3.0, 13), np.array([22.0])
    batch = wigner._position_amplitudes(amps, np.append(near, far))
    alone = wigner._position_amplitudes(amps, far)
    assert abs(alone[0]) > 1e-3
    assert batch[-1:].tobytes() == alone.tobytes()
    assert batch[:-1].tobytes() == wigner._position_amplitudes(amps, near).tobytes()


@pytest.mark.parametrize("x", [1e50, 1e154, 1e170, 1e300])
def test_far_position_amplitudes_are_zero(x):
    # from |x| = 9.5e153 u^2 overflows a double; |u| is clipped to wigner._FAR, where every term is 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        psi = wigner._position_amplitudes(spacs(2.0, 64).amps, np.array([x, -x]))
    assert np.all(psi == 0)


def test_near_radial_sums_have_the_same_bits_alone_and_beside_a_far_point():
    # at r = 30 row 0 is exp(-450) and the rows near n = 225 are O(1), so the frame of these 400 rows
    # passes _RESCALE; near the origin it cannot, and alone the near points skip the per-level test
    coef = np.random.default_rng(3).normal(size=400)
    near, far = np.linspace(0.0, 3.0, 13), np.array([30.0])
    for k in (0, 1, 7):
        batch = wigner._radial_sum(coef, k, np.append(near, far))
        alone = wigner._radial_sum(coef, k, far)
        assert abs(alone[0]) > 1e-3
        assert batch[-1:].tobytes() == alone.tobytes()
        assert batch[:-1].tobytes() == wigner._radial_sum(coef, k, near).tobytes()


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
        char = CharacteristicFunctionGrid(state, cutoff=6, res=0.04)
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

    def test_displaced_state_that_leaks_out_of_the_padding_is_a_truncation_failure(self, monkeypatch):
        # without padding, spacs(1, 32) displaced by 6 puts its mass near level 49
        monkeypatch.setattr(wigner, "required_dim", lambda state, beta_max: state.dim)
        with pytest.raises(TruncationTooSmall, match=r"displaced state leaks .* phase-space point too far out"):
            wigner_point(spacs(1.0, 32), 6.0)

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

    @pytest.mark.parametrize("half_width, step", [(6.0, 0.07), (5.0, 0.3), (6.0, 0.35)])
    @pytest.mark.parametrize("route", [wigner_normalization, CharacteristicFunctionGrid])
    def test_step_that_does_not_tile_the_box_is_rejected(self, route, half_width, step):
        # the axis would be off-centre, and the characteristic grid's lambda -> -lambda mirror wrong
        with pytest.raises(ValueError, match=re.escape(f"a step of {step!r} does not tile [-{half_width!r}, {half_width!r}]")):
            route(spacs(1.0, 64), half_width, step)

    @pytest.mark.parametrize("step", [1e-6, 1e-300])
    @pytest.mark.parametrize("route", ["normalization", "characteristic"])
    def test_over_cap_grid_is_rejected_before_allocating(self, route, step):
        state = spacs(1.0, 64)
        build = wigner_normalization if route == "normalization" else CharacteristicFunctionGrid
        # a 1e-6 step asks for 1.2e7 cells per axis: 96 MB for the axis alone
        assert _peak_bytes(lambda: build(state, 6.0, step)) < 2**20

    @pytest.mark.parametrize("z", [300.0, 1e170])
    def test_padded_dimension_is_bounded_before_allocating(self, z):
        # |z| = 300 would pad the preset state to 95,776 levels, a 147 GB eigenvector matrix;
        # at 1e170 the padded dimension overflows a double
        state = final_pointer_state(FIGURE_PRESET)
        assert _peak_bytes(lambda: wigner_point(state, z)) < 2**20
        with pytest.raises(ValueError, match="16777216"):
            required_dim(state, z)
        assert required_dim(state, 54.0) == 4032  # 4032^2 is within wigner.MAX_GRID_ELEMENTS

    @pytest.mark.parametrize("z, levels", [(300.0, "95770"), (1e170, "1e308")])
    def test_padded_dimension_error_names_the_displacement_and_the_dimension(self, z, levels):
        state = final_pointer_state(FIGURE_PRESET)
        with pytest.raises(ValueError) as info:
            wigner_point(state, z)
        message = str(info.value)
        assert f"|beta| = {z:.6g} " in message and f" at least {levels} Fock levels" in message
        assert "grid" not in message and "inf" not in message

    def test_state_dimension_over_the_cap_is_refused_before_allocating(self):
        # 8192 levels need no padding at beta = 0, but the eigenvector matrix would hold 8192^2 > 2^24 elements
        state = basis_state(1, 8192)
        with pytest.raises(ValueError, match="16777216"):
            required_dim(state, 0.0)
        assert _peak_bytes(lambda: wigner_point(state, 0.0)) < 2**20
