"""Truncated Fock-space oracle: states, displacement, moments, fidelity."""

import math

import numpy as np
import pytest

from spacsim import fock
from spacsim.errors import DimensionMismatch, TruncationTooSmall
from spacsim.fock import (
    FockVector,
    basis_state,
    coherent,
    column_moments,
    displace,
    displaced_columns,
    fidelity,
    final_pointer_state,
    moments,
    pointer_columns,
    pointer_norm_sq,
    spacs,
)
from spacsim.params import FIGURE_PRESET, weak_value
from spacsim.printed import printed_kappa_sq


class TestCoherent:
    def test_vacuum_amplitude(self):
        state = coherent(0.0, 32)
        assert state.amps[0] == 1.0
        assert np.all(state.amps[1:] == 0)

    def test_log_factorials_are_cached_read_only(self):
        column = fock._half_log_factorials(40)
        assert fock._half_log_factorials(40) is column and not column.flags.writeable
        assert column[:, 0].tolist() == [math.lgamma(n + 1.0) / 2 for n in range(40)]

    def test_ground_coefficient(self):
        state = coherent(1.0, 64)
        assert state.amps[0].real == pytest.approx(math.exp(-0.5), abs=1e-12)

    def test_truncation_guard(self):
        # independent tail oracle: Poisson(4) mass on levels 4..7
        mean = abs(2 * np.exp(1j * math.pi / 4)) ** 2
        tail = sum(math.exp(-mean) * mean**n / math.factorial(n) for n in range(4, 8))
        assert tail > 1e-10
        with pytest.raises(TruncationTooSmall):
            coherent(2 * np.exp(1j * math.pi / 4), 8)

    def test_normalised(self):
        for alpha in (0.5, 1.5j, 2.0, -1.3 + 0.4j):
            assert coherent(alpha, 128).norm() == pytest.approx(1.0, abs=1e-12)


class TestSpacs:
    def test_vacuum_gives_single_photon(self):
        state = spacs(0.0, 32)
        assert state.amps[1] == 1.0
        assert abs(state.amps[0]) == 0

    def test_normalisation_constant_at_unit_alpha(self):
        state = spacs(1.0, 64)
        base = coherent(1.0, 64)
        assert state.amps[1] == pytest.approx(base.amps[0] / math.sqrt(2), abs=1e-12)

    def test_mean_photon_number(self):
        # brute-force sum against the closed form (1 + 3|a|^2 + |a|^4)/(1 + |a|^2)
        state = spacs(1.0, 64)
        brute = sum(n * abs(a) ** 2 for n, a in enumerate(state.amps))
        assert brute == pytest.approx(2.5, abs=1e-10)
        assert moments(state).n_mean == pytest.approx(2.5, abs=1e-10)


class TestDisplace:
    def test_zero_displacement_is_identity(self):
        from spacsim.fock import displace

        state = spacs(0.7 + 0.2j, 96)
        assert displace(0.0, state) is state

    @pytest.mark.parametrize("beta", [0.5, -1.2, 1.0j, 1.4 - 0.9j, 2.0])
    def test_vacuum_maps_to_coherent(self, beta):
        from spacsim.fock import displace

        out = displace(beta, basis_state(0, 128))
        ref = coherent(beta, 128)
        assert np.max(np.abs(out.amps - ref.amps)) < 1e-10

    @pytest.mark.parametrize("beta", [0.8, 1.5j, -1.1 + 0.7j])
    def test_round_trip(self, beta):
        from spacsim.fock import displace

        state = spacs(0.5 + 0.2j, 128)
        back = displace(-beta, displace(beta, state))
        assert np.max(np.abs(back.amps - state.amps)) < 1e-10

    def test_unitarity_before_renormalisation(self):
        state = spacs(1.0, 128)
        cols = displaced_columns(state, np.array([0.5, 1.0, -2.0, 1.5j]))
        norms = np.linalg.norm(cols, axis=0)
        assert np.max(np.abs(norms - 1.0)) < 1e-10

    def test_leak_raises(self):
        from spacsim.fock import displace

        with pytest.raises(TruncationTooSmall):
            displace(4.0, spacs(2.0, 32))


class TestFinalPointerState:
    def test_reduces_to_initial_at_zero_coupling(self):
        p = FIGURE_PRESET.with_(s=0.0)
        out = final_pointer_state(p)
        ref = spacs(p.alpha, p.trunc)
        assert np.max(np.abs(out.amps - ref.amps)) < 1e-12

    def test_even_superposition_at_zero_weak_value(self):
        from spacsim.fock import displace

        p = FIGURE_PRESET.with_(phi=0.0)
        out = final_pointer_state(p)
        initial = spacs(p.alpha, p.trunc)
        vec = displace(p.s / 2, initial).amps + displace(-p.s / 2, initial).amps
        ref = vec / np.linalg.norm(vec)
        assert np.max(np.abs(out.amps - ref)) < 1e-12

    def test_norm_matches_printed_normalisation(self):
        # the printed kappa expression is one of the few exact ones:
        # kappa^2 * ||branch superposition||^2 / 2 must be 1
        for s in (0.0, 0.5, 1.0, 2.5, 4.0):
            p = FIGURE_PRESET.with_(s=s)
            ratio = printed_kappa_sq(p) * pointer_norm_sq(p) / 2.0
            assert ratio == pytest.approx(1.0, abs=1e-10)


class TestMoments:
    def test_vacuum(self):
        m = moments(basis_state(0, 32))
        assert (m.m_a, m.m_a2, m.m_a4, m.n_mean, m.m_a2d2) == (0, 0, 0, 0, 0)

    def test_single_photon(self):
        m = moments(basis_state(1, 32))
        assert m.n_mean == pytest.approx(1.0, abs=1e-14)
        assert m.m_a == m.m_a2 == m.m_a4 == 0
        assert m.m_a2d2 == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("alpha", [0.3, 1.0, 2.0, 1.2 + 0.9j, -0.7j])
    def test_coherent_is_eigenstate(self, alpha):
        m = moments(coherent(alpha, 128))
        assert m.m_a == pytest.approx(alpha, abs=1e-10)
        assert m.m_a2 == pytest.approx(alpha**2, abs=1e-10)
        assert m.m_a4 == pytest.approx(alpha**4, abs=1e-10)
        assert m.n_mean == pytest.approx(abs(alpha) ** 2, abs=1e-10)
        assert m.m_a2d2 == pytest.approx(abs(alpha) ** 4, abs=1e-10)

    def test_phase_covariance(self):
        base = moments(coherent(1.3, 128))
        chi = 0.7
        rotated = moments(coherent(1.3 * np.exp(1j * chi), 128))
        assert rotated.m_a == pytest.approx(base.m_a * np.exp(1j * chi), abs=1e-10)
        assert rotated.m_a2 == pytest.approx(base.m_a2 * np.exp(2j * chi), abs=1e-10)
        assert rotated.n_mean == pytest.approx(base.n_mean, abs=1e-10)

    def test_cauchy_schwarz_on_random_pointer_states(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            p = FIGURE_PRESET.with_(
                r=rng.uniform(0, 2),
                theta=rng.uniform(0, 2 * math.pi),
                delta=rng.uniform(0, 2 * math.pi),
                phi=rng.uniform(0, math.pi - 0.1),
                s=rng.uniform(0, 4),
            )
            m = moments(final_pointer_state(p))
            assert m.n_mean >= 0
            assert m.m_a2d2 >= 0
            assert abs(m.m_a) ** 2 <= m.n_mean + 1e-10
            assert abs(m.m_a2) ** 2 <= m.m_a2d2 + 1e-10

    def test_truncation_convergence(self):
        """Moments at dim 96 and dim 128 agree to 1e-8 over the sweep ranges."""
        for r, s in [(0.5, 1.0), (1.0, 4.0), (2.0, 0.5), (2.0, 4.0), (0.0, 2.0)]:
            p96 = FIGURE_PRESET.with_(r=r, s=s, trunc=96)
            p128 = FIGURE_PRESET.with_(r=r, s=s, trunc=128)
            m96 = moments(final_pointer_state(p96))
            m128 = moments(final_pointer_state(p128))
            for field in ("m_a", "m_a2", "m_a4", "n_mean", "m_a2d2"):
                assert abs(getattr(m96, field) - getattr(m128, field)) < 1e-8


class TestFidelity:
    def test_self_overlap(self):
        state = spacs(1.0 + 0.5j, 64)
        assert fidelity(state, state) == pytest.approx(1.0, abs=1e-14)

    def test_orthogonal_basis_states(self):
        assert fidelity(basis_state(0, 16), basis_state(1, 16)) == 0

    def test_zero_coupling_preserves_state(self):
        p = FIGURE_PRESET.with_(s=0.0)
        assert fidelity(spacs(p.alpha, p.trunc), final_pointer_state(p)) == pytest.approx(1.0, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            fidelity(basis_state(0, 16), basis_state(0, 32))


class TestLargeAmplitudes:
    def test_spacs_mean_photon_number_at_large_amplitude(self):
        # (|a|^4 + 3|a|^2 + 1) / (1 + |a|^2); a^n / sqrt(n!) alone overflows here
        a2 = 40.0**2
        n_mean = moments(spacs(40.0, 4000)).n_mean
        assert n_mean == pytest.approx((a2 * a2 + 3 * a2 + 1) / (1 + a2), rel=1e-9)

    def test_tail_check_uses_normalised_share(self):
        # unnormalised top-level mass is about 1e-226, but it is 99.96 % of the state
        with pytest.raises(TruncationTooSmall, match="tail share"):
            coherent(30.0, 128)

    def test_all_underflow_is_truncation_failure(self):
        with pytest.raises(TruncationTooSmall):
            coherent(100.0, 128)


def reference_pointer(alpha, s, w, dim):
    """Initial state and normalised pointer state through spacs and the eigh-based displace."""
    initial = spacs(alpha, dim)
    vec = (1 + w) * displace(s / 2, initial).amps + (1 - w) * displace(-s / 2, initial).amps
    return initial, FockVector(dim=dim, amps=vec / np.linalg.norm(vec)), float(np.linalg.norm(vec) ** 2)


class TestPointerColumns:
    @pytest.mark.parametrize("dim", [128, 256])
    def test_matches_eigh_route(self, dim):
        rng = np.random.default_rng(dim)
        alphas = rng.uniform(0, 3, 40) * np.exp(1j * rng.uniform(0, 2 * math.pi, 40))
        alphas[0] = 0.0
        s = rng.uniform(0, 4, 40)
        s[1] = 0.0
        w = np.array([weak_value(d, p) for d, p in zip(rng.uniform(0, 2 * math.pi, 40), rng.uniform(0, 3.0, 40))])
        cols = pointer_columns(alphas, s, w, dim)
        assert cols.errors == ("",) * 40
        m = column_moments(cols.final)
        for j in range(40):
            initial, final, norm_sq = reference_pointer(alphas[j], s[j], w[j], dim)
            assert np.max(np.abs(cols.initial[:, j] - initial.amps)) < 1e-12
            assert np.max(np.abs(cols.final[:, j] - final.amps)) < 1e-12
            assert cols.norm_sq[j] == pytest.approx(norm_sq, rel=1e-12)
            ref = moments(final)
            for field in ("m_a", "m_a2", "m_a4", "n_mean", "m_a2d2"):
                assert abs(getattr(m, field)[j] - getattr(ref, field)) < 1e-12 * max(1.0, abs(getattr(ref, field)))

    def test_failed_columns_carry_reasons_and_nan(self):
        cols = pointer_columns([0.5, 3.0, 0.5], [0.5, 0.5, 8.0], 0.3, 24)
        assert cols.errors[0] == ""
        assert cols.errors[1].startswith("spacs(") and "tail share" in cols.errors[1]
        assert cols.errors[2].startswith("displace(")
        assert np.all(np.isfinite(cols.final[:, 0]))
        assert np.all(np.isnan(cols.final[:, 1:])) and np.all(np.isnan(cols.initial[:, 1:]))

    def test_repeated_alphas_give_the_bits_of_a_column_per_point(self):
        # a coupling sweep builds each distinct coherent column once; the bits
        # must equal those of one coherent column per point, -0.0 kept apart
        alphas = np.random.default_rng(4).uniform(0, 3, 12) * np.exp(0.7j)
        alphas[:6] = alphas[0]
        alphas[6:8] = [complex(0.0, -0.0), 0.0]
        s = np.linspace(0.0, 3.0, alphas.size)
        cols = pointer_columns(alphas, s, 0.3 + 1.1j, 64)
        initial, _, _ = fock._normalised(fock._raised(fock._coherent_columns(alphas, 64)))
        assert np.ascontiguousarray(cols.initial).tobytes() == np.ascontiguousarray(initial).tobytes()

    def test_single_point_uses_the_same_columns(self):
        p = FIGURE_PRESET.with_(s=1.3)
        cols = pointer_columns(p.alpha, p.s, weak_value(p.delta, p.phi), p.trunc)
        assert np.array_equal(final_pointer_state(p).amps, cols.final[:, 0])
        assert pointer_norm_sq(p) == float(cols.norm_sq[0])
