"""Truncated Fock-space oracle: states, displacement, moments, fidelity."""

import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
    reached_levels,
    spacs,
)
from spacsim.params import FIGURE_PRESET, weak_value
from spacsim.printed import printed_kappa_sq
from spacsim.squeezing import column_report


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

    def test_generator_above_the_cap_is_refused_before_allocating(self):
        # an 8192-level generator would take 1 GiB before eigh ran
        state = basis_state(1, 8192)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="dimension 8192 .* more than 16777216 elements"):
                displace(1.0, state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_the_eigh_cache_keeps_within_its_byte_budget(self, monkeypatch):
        assert 16 * 1024 * 1024 * 16 <= fock.BASIS_CACHE_BYTES  # the default keeps 16 matrices of dimension 1024
        # eigenvector matrices of 25,600, 50,176 and 82,944 bytes: the budget holds the last alone
        monkeypatch.setattr(fock, "BASIS_CACHE_BYTES", 100_000)
        for dim in (40, 56, 72):
            fock._displacement_basis(dim)
        info = fock._displacement_basis.cache_info()
        assert info.nbytes <= 100_000
        assert (info.currsize, info.nbytes) == (1, 72 * 72 * 16)
        fock._displacement_basis(72)
        after = fock._displacement_basis.cache_info()
        assert (after.hits, after.misses) == (info.hits + 1, info.misses)


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


def _report_bytes(cols) -> list[bytes]:
    return [column.tobytes() for column in vars(column_report(cols)).values()]


#: (r, theta, s, delta, phi) of one point: phi in [0, pi), near pi about one time in three.
_POINT = st.tuples(
    st.floats(0.0, 6.0),
    st.floats(0.0, 2 * math.pi),
    st.floats(0.0, 8.0),
    st.floats(0.0, 2 * math.pi),
    st.one_of(st.floats(0.0, math.pi, exclude_max=True), st.floats(1e-6, 1e-3).map(lambda d: math.pi - d)),
)


class TestReachedLevels:
    """A block built on the levels its points reach has the bits it has on the full truncation."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(points=st.lists(_POINT, min_size=1, max_size=6), trunc=st.integers(6, 384))
    @example(points=[(6.0, 0.0, 8.0, 0.0, math.pi - 1e-6), (0.0, 0.0, 0.0, 0.0, 0.0)], trunc=384)
    @example(points=[(6.0, 1.0, 8.0, 2.0, 2.0), (0.5, 0.0, 1.0, 0.0, 1.0)], trunc=100)  # the first fails at 100
    def test_reached_levels_change_no_bit(self, points, trunc):
        r, theta, s, delta, phi = (np.array(column) for column in zip(*points))
        alphas = r * np.exp(1j * theta)
        w = np.array([weak_value(d, p) for d, p in zip(delta.tolist(), phi.tolist())])
        rows = reached_levels(alphas, s, trunc)
        full = pointer_columns(alphas, s, w, trunc)
        assert rows.shape == r.shape and np.all(rows <= trunc)
        assert all(count == trunc for count, error in zip(rows.tolist(), full.errors) if error)
        block = pointer_columns(alphas, s, w, int(rows.max()))
        assert block.errors == full.errors
        assert _report_bytes(block) == _report_bytes(full)
        for j in range(r.size):
            alone, at_trunc = (pointer_columns(alphas[j], s[j], w[j], dim) for dim in (int(rows[j]), trunc))
            assert alone.errors == at_trunc.errors
            assert _report_bytes(alone) == _report_bytes(at_trunc)

    def test_counts_follow_the_bound(self):
        # a = |alpha| + s/2: a = 0 reaches 32 levels; a = 3 has its last level within e^-40 of the peak
        # at 68, so it reaches 80 levels, capped at the truncation; a = 4.15 has it at 91, so it reaches
        # 96 levels, and all 99 of a truncation whose top 8 levels include 91; a non-finite a reaches every level
        counts = reached_levels([0.0, 1.0, 1.5j, 1e308], [0.0, 4.0, 3.0, 1e308], 128)
        assert counts.tolist() == [32, 80, 80, 128]
        assert [reached_levels(1.0, 4.0, trunc).item() for trunc in (77, 81)] == [77, 80]
        assert [reached_levels(4.15, 0.0, trunc).item() for trunc in (99, 100)] == [99, 96]
        assert reached_levels([0.5, 40.0], 0.5, 24).tolist() == [24, 24]


class TestDimensionChecks:
    """Each state builder rejects a dimension it cannot hold with ValueError, naming it."""

    @pytest.mark.parametrize("n", [-1, 8])
    def test_basis_level_outside_the_dimension(self, n):
        with pytest.raises(ValueError, match=f"level {n} outside dimension 8"):
            basis_state(n, 8)

    def test_coherent_needs_two_levels(self):
        with pytest.raises(ValueError, match="coherent state needs dim >= 2, got 1"):
            coherent(0.5, 1)

    def test_spacs_needs_three_levels(self):
        with pytest.raises(ValueError, match="photon-added state needs dim >= 3, got 2"):
            spacs(0.5, 2)

    def test_pad_cannot_shrink(self):
        with pytest.raises(ValueError, match="cannot pad dim 16 down to 8"):
            fock.pad(spacs(0.5, 16), 8)

    def test_pointer_columns_need_three_levels(self):
        with pytest.raises(ValueError, match="photon-added state needs dim >= 3, got 2"):
            pointer_columns([0.5], [1.0], 0.3, 2)


class TestNonFiniteAmplitudes:
    """A non-finite amplitude is bad input, refused before numpy warns and without truncation advice."""

    @pytest.mark.parametrize(
        "build, shown",
        [
            (lambda: coherent(complex("inf"), 16), "(inf+0j)"),
            (lambda: coherent(complex("nan"), 16), "(nan+0j)"),
            (lambda: spacs(complex("nan"), 16), "(nan+0j)"),
            (lambda: displace(complex(0, math.inf), basis_state(1, 16)), "infj"),
        ],
        ids=["coherent-inf", "coherent-nan", "spacs-nan", "displace-inf"],
    )
    def test_refused_with_value_error_naming_it(self, build, shown):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"must be finite, got {re.escape(shown)}"):
                build()
