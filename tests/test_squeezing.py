"""Witnesses, variance identities and sweep behaviour."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import spacsim.sweeps
from spacsim.errors import TruncationTooSmall
from spacsim.fock import FockVector, basis_state, coherent, displace, fidelity, moments, pointer_columns, spacs
from spacsim.params import FIGURE_PRESET, weak_value
from spacsim.squeezing import column_report, min_variances, point_report, report_from_moments, s_ass, s_os
from spacsim.sweeps import BLOCK_ELEMENTS, DEFAULT_PHIS, fidelity_table, grid_values, sweep_columns, sweep_r, sweep_s


class TestWitnesses:
    def test_coherent_state_is_the_reference(self):
        m = moments(coherent(1.3 + 0.4j, 128))
        assert s_os(m) == pytest.approx(0.0, abs=1e-10)
        assert s_ass(m) == pytest.approx(0.0, abs=1e-10)

    def test_single_photon(self):
        m = moments(basis_state(1, 32))
        assert s_os(m) == pytest.approx(1.0, abs=1e-12)
        assert s_ass(m) == pytest.approx(0.0, abs=1e-12)

    def test_initial_state_witness_vanishes_at_unit_amplitude(self):
        # exact algebra: at |alpha| = 1 the photon-added state sits right
        # on the ordinary-squeezing boundary, for any phase
        m = moments(spacs(np.exp(1j * math.pi / 4), 128))
        assert s_os(m) == pytest.approx(0.0, abs=1e-10)

    def test_initial_state_squeezed_above_unit_amplitude(self):
        m = moments(spacs(2.0 * np.exp(1j * math.pi / 4), 128))
        assert s_os(m) == pytest.approx(-0.12, abs=1e-10)

    def test_figure_preset_has_amplitude_squared_squeezing(self):
        report = point_report(FIGURE_PRESET)
        assert report.s_ass == pytest.approx(-0.8513260769145519, abs=1e-9)
        assert report.s_ass < 0


class TestMinimumVariances:
    def test_coherent_floor(self):
        var_x, _ = min_variances(moments(coherent(0.9, 128)))
        assert var_x == pytest.approx(0.25, abs=1e-10)

    def test_single_photon(self):
        var_x, var_y = min_variances(moments(basis_state(1, 32)))
        assert var_x == pytest.approx(0.75, abs=1e-12)
        assert var_y == pytest.approx(1.5, abs=1e-12)

    def test_identities_with_witnesses(self):
        m = moments(spacs(1.2 + 0.3j, 128))
        var_x, var_y = min_variances(m)
        assert var_x == pytest.approx(0.25 + s_os(m) / 2, abs=1e-14)
        assert var_y == pytest.approx(m.n_mean + 0.5 + s_ass(m) / 2, abs=1e-14)
        assert var_x >= 0


class TestGridValues:
    def test_inclusive_endpoints(self):
        grid = grid_values(0.0, 4.0, 0.02)
        assert grid.size == 201
        assert grid[0] == 0.0
        assert grid[-1] == 4.0

    def test_degenerate_range(self):
        assert list(grid_values(0.0, 0.0, 1.0)) == [0.0]

    def test_rejects_misaligned_endpoint(self):
        with pytest.raises(ValueError):
            grid_values(0.0, 1.0, 0.3)


class TestSweeps:
    def test_row_ordering_angle_outer(self):
        rows = sweep_s(FIGURE_PRESET, phis=(0.5, 1.0), s_range=(0.0, 0.2, 0.1))
        assert [(r.phi, r.s) for r in rows] == [
            (0.5, 0.0), (0.5, 0.1), (0.5, 0.2),
            (1.0, 0.0), (1.0, 0.1), (1.0, 0.2),
        ]

    def test_zero_coupling_column_equals_initial_state(self):
        rows = sweep_s(FIGURE_PRESET, s_range=(0.0, 0.0, 1.0))
        m = moments(spacs(FIGURE_PRESET.alpha, FIGURE_PRESET.trunc))
        for row in rows:
            assert row.report.s_os == pytest.approx(s_os(m), abs=1e-10)
            assert row.report.s_ass == pytest.approx(s_ass(m), abs=1e-10)
            assert row.report.fidelity_to_initial == pytest.approx(1.0, abs=1e-12)

    def test_vacuum_row_is_single_photon(self):
        rows = sweep_r(FIGURE_PRESET.with_(s=0.0), phis=(FIGURE_PRESET.phi,), r_range=(0.0, 0.0, 1.0))
        assert rows[0].report.n_mean == pytest.approx(1.0, abs=1e-10)

    def test_printed_backend_reports_nan_fidelity(self):
        rows = sweep_s(FIGURE_PRESET, phis=(FIGURE_PRESET.phi,), s_range=(0.0, 0.5, 0.5), backend="printed")
        assert all(math.isnan(r.report.fidelity_to_initial) for r in rows)
        assert all(math.isfinite(r.report.s_os) for r in rows)

    def test_row_level_error_markers(self):
        rows = sweep_s(
            FIGURE_PRESET.with_(r=2.0, trunc=16),
            phis=(FIGURE_PRESET.phi,),
            s_range=(0.0, 0.0, 1.0),
        )
        assert rows[0].error != ""
        assert "TruncationTooSmall" in rows[0].error

    def test_workers_do_not_change_rows(self):
        serial = sweep_s(FIGURE_PRESET, s_range=(0.0, 1.0, 0.1), workers=1)
        threaded = sweep_s(FIGURE_PRESET, s_range=(0.0, 1.0, 0.1), workers=4)
        assert serial == threaded

    def test_witness_sign_stability_between_truncations(self):
        """Signs at dim 96 and 128 agree away from zero crossings."""
        rows96 = sweep_s(FIGURE_PRESET.with_(trunc=96), s_range=(0.0, 4.0, 0.5))
        rows128 = sweep_s(FIGURE_PRESET.with_(trunc=128), s_range=(0.0, 4.0, 0.5))
        for a, b in zip(rows96, rows128):
            for field in ("s_os", "s_ass"):
                va, vb = getattr(a.report, field), getattr(b.report, field)
                if abs(va) > 1e-6:
                    assert math.copysign(1, va) == math.copysign(1, vb)


class TestFidelityTable:
    def test_monotone_at_unit_amplitude(self):
        rvals, table = fidelity_table(FIGURE_PRESET, r_range=(1.0, 1.0, 1.0))
        values = [table[s][0].report.fidelity_to_initial for s in (0.5, 1.0, 2.0, 3.0)]
        assert all(a > b for a, b in zip(values, values[1:]))


REPORT_FIELDS = ("s_os", "s_ass", "var_x_min", "var_y_min", "n_mean", "fidelity_to_initial")


def reference_report(p):
    """One sweep point through spacs, the eigh-based displace, moments and fidelity."""
    initial = spacs(p.alpha, p.trunc)
    w = weak_value(p.delta, p.phi)
    vec = (1 + w) * displace(p.s / 2, initial).amps + (1 - w) * displace(-p.s / 2, initial).amps
    final = FockVector(dim=vec.size, amps=vec / np.linalg.norm(vec))
    return report_from_moments(moments(final), fidelity(initial, final))


def assert_matches_reference(row, base, swept, tol):
    ref = reference_report(base.with_(phi=row.phi, **{swept: getattr(row, swept)}))
    for field in REPORT_FIELDS:
        got, want = getattr(row.report, field), getattr(ref, field)
        assert abs(got - want) <= tol * max(1.0, abs(want)), (row, field, got, want)


class TestColumnSweeps:
    @pytest.mark.parametrize("trunc", [128, 256])
    def test_random_angle_sweeps_match_eigh_route(self, trunc):
        rng = np.random.default_rng(trunc)
        phis = (0.4, FIGURE_PRESET.phi)
        for _ in range(2):
            base = FIGURE_PRESET.with_(
                theta=rng.uniform(0, 2 * math.pi), delta=rng.uniform(0, 2 * math.pi), trunc=trunc
            )
            by_s = sweep_s(base, phis=phis, s_range=(0.0, 4.0, 0.25))
            by_r = sweep_r(base, phis=phis, r_range=(0.0, 3.0, 0.25))
            assert by_s[0].s == 0.0 and by_r[0].r == 0.0
            for rows, swept in ((by_s, "s"), (by_r, "r")):
                for row in rows:
                    assert row.error == ""
                    assert_matches_reference(row, base, swept, 1e-12)

    def test_small_truncation_gives_good_and_error_rows(self):
        base = FIGURE_PRESET.with_(trunc=32)
        rows = sweep_r(base, phis=(FIGURE_PRESET.phi,), r_range=(0.0, 4.0, 0.1))
        good = [row for row in rows if not row.error]
        bad = [row for row in rows if row.error]
        assert good and bad
        for row in good:
            # both routes are only as good as the truncation: next to the accepted
            # tail share of 1e-10 they differ from the exact values by up to ~1e-10
            assert_matches_reference(row, base, "r", 1e-9)
        for row in bad:
            assert row.error.startswith("TruncationTooSmall: ")
            assert all(math.isnan(getattr(row.report, field)) for field in REPORT_FIELDS)
            with pytest.raises(TruncationTooSmall):
                reference_report(base.with_(r=row.r))

    def test_blocks_of_consecutive_points_are_fixed(self):
        # a point built in a block of its own differs in the last bits from one built with
        # others, so the partition is part of the CSV bytes: here 804 points make 11 blocks
        # of 73, some across two angles, and a last block of one
        base = FIGURE_PRESET.with_(trunc=448)
        values = grid_values(0.0, 4.0, 0.02)
        sweep = sweep_columns(base, "s", values, DEFAULT_PHIS)
        w = np.repeat([weak_value(base.delta, phi) for phi in DEFAULT_PHIS], values.size)
        width = BLOCK_ELEMENTS // base.trunc
        assert (width, sweep.s.size % width) == (73, 1)
        for start in range(0, sweep.s.size, width):
            block = slice(start, start + width)
            ref = column_report(pointer_columns(base.alpha, sweep.s[block], w[block], base.trunc))
            for name in REPORT_FIELDS:
                assert np.array_equal(getattr(sweep.report, name)[block], getattr(ref, name)), (start, name)

    @settings(max_examples=25, deadline=2000, derandomize=True, database=None)
    @given(
        phis=st.lists(st.sampled_from([0.3, 1.0, 2.0, 7 * math.pi / 9]), min_size=1, max_size=5),
        count=st.integers(1, 40),
        step=st.sampled_from([0.05, 0.1, 0.25]),
        swept=st.sampled_from(["s", "r"]),
        trunc=st.integers(8, 48),
        width=st.sampled_from([0, 1, 2, 3, 4, 5, 7, 12]),
        spare=st.integers(0, 5),
    )
    @example(phis=[0.3, 1.0, 2.0], count=9, step=0.25, swept="r", trunc=16, width=2, spare=0)  # a lone last row
    @example(phis=[1.0, 1.0, 2.0, 0.3], count=5, step=0.25, swept="s", trunc=20, width=3, spare=5)
    def test_point_major_blocks_keep_the_angle_outer_bits(self, phis, count, step, swept, trunc, width, spare):
        # a width of 0 makes BLOCK_ELEMENTS < trunc, which the sweep clamps to one point per block
        values = step * np.arange(count)
        base = FIGURE_PRESET.with_(r=1.0, s=1.0, trunc=trunc)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(spacsim.sweeps, "BLOCK_ELEMENTS", width * trunc + min(spare, trunc - 1))
            sweep = sweep_columns(base, swept, values, tuple(phis))
        w = np.repeat([weak_value(base.delta, phi) for phi in phis], count)
        alpha = sweep.r * np.exp(1j * base.theta)
        errors = []
        for start in range(0, sweep.s.size, max(1, width)):
            block = slice(start, start + max(1, width))
            cols = pointer_columns(alpha[block], sweep.s[block], w[block], base.trunc)
            ref = column_report(cols)
            for name in REPORT_FIELDS:
                assert np.array_equal(getattr(sweep.report, name)[block], getattr(ref, name), equal_nan=True), (start, name)
            errors += [f"TruncationTooSmall: {e}" if e else "" for e in cols.errors]
        assert sweep.errors == tuple(errors)

    def test_repeated_pair_has_the_bits_it_has_beside_another(self):
        alpha, w = FIGURE_PRESET.alpha, [weak_value(FIGURE_PRESET.delta, phi) for phi in (0.3, 1.0, 2.0)]
        alone = pointer_columns(alpha, [1.5, 1.5, 1.5], w, 64)
        beside = pointer_columns(alpha, [1.5, 0.7, 1.5, 1.5], [w[0], w[0], w[1], w[2]], 64)
        keep = [0, 2, 3]
        for name in ("initial", "final"):
            assert np.array_equal(getattr(alone, name), getattr(beside, name)[:, keep]), name
        assert np.array_equal(alone.norm_sq, beside.norm_sq[keep])

    def test_programming_errors_propagate(self, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("broken builder")

        monkeypatch.setattr(spacsim.sweeps, "pointer_columns", broken)
        with pytest.raises(TypeError, match="broken builder"):
            sweep_s(FIGURE_PRESET, s_range=(0.0, 0.5, 0.25))
