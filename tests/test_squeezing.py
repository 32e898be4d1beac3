"""Witnesses, variance identities and sweep behaviour."""

import cmath
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import spacsim.sweeps
from spacsim.audit import default_audit_grid
from spacsim.errors import DegeneratePostselection, NumericalOverflow, RangeError, TruncationTooSmall
from spacsim.fock import (
    FockVector,
    MomentSet,
    PointerColumns,
    basis_state,
    coherent,
    displace,
    fidelity,
    moments,
    pointer_columns,
    spacs,
)
from spacsim.params import FIGURE_PRESET, point_columns, weak_value
from spacsim.printed import printed_moments
from spacsim.squeezing import column_report, min_variances, point_report, report_from_moments, s_ass, s_os
from spacsim.sweeps import (
    BLOCK_ELEMENTS,
    DEFAULT_PHIS,
    FIDELITY_COUPLINGS,
    fidelity_columns,
    fidelity_table,
    grid_values,
    pointer_blocks,
    report_columns,
    sweep_columns,
    sweep_r,
    sweep_s,
)


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

    def test_printed_moments_are_a_moment_set_with_the_report_bits(self):
        m = printed_moments(FIGURE_PRESET)
        assert isinstance(m, MomentSet)
        report = point_report(FIGURE_PRESET, "printed")
        assert s_os(m).hex() == report.s_os.hex()
        assert s_ass(m).hex() == report.s_ass.hex()


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

    @pytest.mark.parametrize(
        "lo, hi, step",
        [(1e16, 1e16 + 4, 1.0), (-1e16 - 4, -1e16, 1.0), (1.0, 1.0 + 2**-50, 2**-53)],
        ids=["above-1e16", "below-minus-1e16", "above-one"],
    )
    def test_rejects_a_step_below_the_precision_of_its_values(self, lo, hi, step):
        # linspace would round neighbouring points to the same double and write each twice
        with pytest.raises(ValueError, match="rounds neighbouring points to the same double"):
            grid_values(lo, hi, step)

    def test_a_step_of_one_ulp_is_kept(self):
        assert np.all(np.diff(grid_values(1e16, 1e16 + 8, 2.0)) == 2.0)


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

    def test_witness_sign_stability_between_truncations(self):
        """Signs at dim 96 and 128 agree away from zero crossings."""
        rows96 = sweep_s(FIGURE_PRESET.with_(trunc=96), s_range=(0.0, 4.0, 0.5))
        rows128 = sweep_s(FIGURE_PRESET.with_(trunc=128), s_range=(0.0, 4.0, 0.5))
        for a, b in zip(rows96, rows128):
            for field in ("s_os", "s_ass"):
                va, vb = getattr(a.report, field), getattr(b.report, field)
                if abs(va) > 1e-6:
                    assert math.copysign(1, va) == math.copysign(1, vb)


class TestPointSetCaps:
    """Each point set above MAX_GRID_ELEMENTS rows is refused before its columns are allocated."""

    @pytest.mark.parametrize(
        "build, sides",
        [
            (lambda: sweep_columns(FIGURE_PRESET, "s", grid_values(0.0, 4.0, 4 / 65535), (1.0,) * 257), "257 x 65536"),
            (lambda: fidelity_columns(FIGURE_PRESET, (0.5,) * 257, grid_values(0.0, 3.0, 3 / 65535)), "257 x 65536"),
            (lambda: default_audit_grid(FIGURE_PRESET, (1.0,) * 4097, (0.5,) * 4097), "4097 x 4097"),
        ],
        ids=["sweep", "fidelity", "audit"],
    )
    def test_refused_before_allocating(self, build, sides):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"of {sides} = [0-9]+ points exceeds the cap of 16777216 points"):
                build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_invalid_coupling_is_named_before_the_size(self):
        with pytest.raises(RangeError, match="coupling ratio must be >= 0"):
            fidelity_columns(FIGURE_PRESET, (0.5,) * 256 + (-1.0,), grid_values(0.0, 3.0, 3 / 65535))


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
        # each block of consecutive points gives the bits it gives alone, a last block of
        # one row included: here 804 points make 11 blocks of 73, some across two angles,
        # and a last block of one
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
        # a repeated pair on its own, and single points: one distinct and one of the pair
        alpha, w = FIGURE_PRESET.alpha, [weak_value(FIGURE_PRESET.delta, phi) for phi in (0.3, 1.0, 2.0)]
        beside = pointer_columns(alpha, [1.5, 0.7, 1.5, 1.5], [w[0], w[0], w[1], w[2]], 64)
        beside_report = column_report(beside)
        for s, ws, keep in (([1.5, 1.5, 1.5], w, [0, 2, 3]), (0.7, w[0], [1]), (1.5, w[1], [2])):
            alone = pointer_columns(alpha, s, ws, 64)
            for name in ("initial", "final", "norm_sq"):
                assert np.array_equal(getattr(alone, name), getattr(beside, name)[..., keep]), (keep, name)
            for name, column in vars(column_report(alone)).items():
                assert np.array_equal(column, getattr(beside_report, name)[keep]), (keep, name)

    def test_programming_errors_propagate(self, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("broken builder")

        monkeypatch.setattr(spacsim.sweeps, "pointer_columns", broken)
        with pytest.raises(TypeError, match="broken builder"):
            sweep_s(FIGURE_PRESET, s_range=(0.0, 0.5, 0.25))


# The oracle sweep layouts the output comparison script runs: fig1a and fig2a,
# fig1b and fig2b, their variants, and one fig3 sweep (one angle per coupling).
class TestPointerBlocks:
    def test_runs_of_one_truncation_grouped_by_pair_in_blocks(self, monkeypatch):
        calls = []

        def recording(alpha, s, w, dim):
            calls.append((alpha, s, w, dim))
            empty = np.zeros((1, alpha.size), dtype=np.complex128)
            return PointerColumns(initial=empty, final=empty, norm_sq=np.ones(alpha.size), errors=("",) * alpha.size)

        monkeypatch.setattr(spacsim.sweeps, "pointer_columns", recording)
        monkeypatch.setattr(spacsim.sweeps, "BLOCK_ELEMENTS", 128)  # two points per block at 64, one at 128
        # pairs A, B, C; runs [0, 4), [4, 7) and [7, 9) of one truncation, where A and B come back
        pair = np.array(["A", "B", "A", "C", "B", "B", "A", "A", "B"])
        alpha = np.where(pair == "B", 1.0 + 0.5j, np.where(pair == "C", 2.0 + 0j, 0.5 + 0j))
        s = np.where(pair == "A", 0.5, 2.0)
        w = np.arange(pair.size) + 0.25j  # each point its own weak value, as at different angles
        trunc = np.array([64, 64, 64, 64, 128, 128, 128, 64, 64])
        blocks = [block.tolist() for block, _ in pointer_blocks(alpha, s, w, trunc)]
        assert blocks == [[0, 2], [1, 3], [4], [5], [6], [7, 8]]
        for block, (a, b, c, dim) in zip(blocks, calls, strict=True):
            assert {int(trunc[j]) for j in block} == {dim}
            for got, column in zip((a, b, c), (alpha, s, w)):
                assert got.tobytes() == column[block].tobytes()

    @pytest.mark.parametrize("trunc", [128, np.empty(0, dtype=int)], ids=["one_truncation", "per_point"])
    def test_an_empty_point_set_yields_no_block(self, trunc):
        empty = np.empty(0, dtype=np.complex128)
        assert list(pointer_blocks(empty, np.empty(0), empty, trunc)) == []


FIGURE_LAYOUTS = [
    ("s", (0.0, 4.0, 0.02), DEFAULT_PHIS, {}),
    ("s", (0.0, 0.04, 0.02), (0.3, 0.6), {}),
    ("s", (0.0, 0.0, 0.02), DEFAULT_PHIS, {}),
    ("s", (0.0, 4.0, 0.02), (1.0, 1.0, 2.0), {}),
    ("r", (0.0, 3.0, 0.02), DEFAULT_PHIS, {}),
    ("r", (0.0, 3.0, 0.02), DEFAULT_PHIS, {"theta": 5.9, "delta": 1.1}),
    ("r", (0.0, 30.0, 0.02), DEFAULT_PHIS, {}),
    ("r", (0.0, 0.1, 0.02), DEFAULT_PHIS, {}),
    ("r", (0.0, 3.0, 0.02), (FIGURE_PRESET.phi,), {"s": 2.0}),
]


class TestReportColumns:
    def test_arbitrary_points_match_blocks_in_first_appearance_order(self):
        # shuffled figure points with repeated (alpha, s) pairs, a repeated point and
        # amplitudes too large for the truncation, built in blocks of 8
        base = FIGURE_PRESET.with_(trunc=4096)
        rng = np.random.default_rng(5)
        s_values = np.concatenate([np.tile(np.arange(0.0, 4.25, 0.25), 4), np.full(13, 0.5), [1.5, 1.5, 0.5, 0.5]])
        r_values = np.concatenate([np.full(68, 1.0), np.arange(0.0, 3.25, 0.25), [1.0, 1.0, 70.0, 70.0]])
        phis = np.concatenate([np.repeat(DEFAULT_PHIS, 17), rng.choice(DEFAULT_PHIS, 13), [0.3, 0.3, 1.0, 2.0]])
        shuffle = rng.permutation(s_values.size)
        s, phi = s_values[shuffle], phis[shuffle]
        alpha = r_values[shuffle] * np.exp(1j * base.theta)
        w = np.array([weak_value(base.delta, angle) for angle in phi.tolist()])
        report, errors = report_columns(alpha, s, w, base.trunc, "oracle", "point {}".format)

        rank = {}
        for j, pair in enumerate(zip(alpha.tolist(), s.tolist())):
            rank.setdefault(pair, j)
        order = sorted(range(s.size), key=lambda j: rank[alpha[j].item(), s[j].item()])
        width = BLOCK_ELEMENTS // base.trunc
        assert width == 8
        ref_errors = [""] * s.size
        for start in range(0, s.size, width):
            block = order[start : start + width]
            cols = pointer_columns(alpha[block], s[block], w[block], base.trunc)
            ref = column_report(cols)
            for name in REPORT_FIELDS:
                assert np.array_equal(getattr(report, name)[block], getattr(ref, name), equal_nan=True), (start, name)
            for row, e in zip(block, cols.errors):
                ref_errors[row] = f"TruncationTooSmall: {e}" if e else ""
        assert errors == tuple(ref_errors)
        assert sum(bool(e) for e in errors) == 2

    @pytest.mark.parametrize("swept, grid, phis, overrides", FIGURE_LAYOUTS)
    def test_derived_order_is_point_major_on_figure_layouts(self, monkeypatch, swept, grid, phis, overrides):
        blocks = []

        def recording(alpha, s, w, dim):
            blocks.append((alpha, s, w))
            empty = np.zeros((1, alpha.size), dtype=np.complex128)
            return PointerColumns(initial=empty, final=empty, norm_sq=np.ones(alpha.size), errors=("",) * alpha.size)

        monkeypatch.setattr(spacsim.sweeps, "pointer_columns", recording)
        base = FIGURE_PRESET.with_(trunc=448, **overrides)
        values = grid_values(*grid)
        sweep = sweep_columns(base, swept, values, phis)
        point_major = np.arange(sweep.s.size).reshape(len(phis), values.size).T.ravel()
        alpha = sweep.r * cmath.exp(1j * base.theta)
        w = np.repeat([weak_value(base.delta, phi) for phi in phis], values.size)
        assert [b[0].size for b in blocks[:-1]] == [73] * (len(blocks) - 1)
        for got, want in zip((np.concatenate(column) for column in zip(*blocks)), (alpha, sweep.s, w)):
            assert np.array_equal(got.view(np.uint8), want[point_major].view(np.uint8))

    def test_printed_failure_names_the_first_failing_point_in_input_order(self):
        # points 0 and 2 share (alpha, s), so grouping them would put point 2 ahead of point 1
        alpha = np.full(4, FIGURE_PRESET.alpha)
        s = np.array([0.5, 1e62, 0.5, 1.0])
        w = np.array([0.3, 0.3, 1e200, 0.3], dtype=np.complex128)
        with pytest.raises(NumericalOverflow, match=" at point 1: "):
            report_columns(alpha, s, w, 128, "printed", "point {}".format)

    def test_unknown_backend(self):
        with pytest.raises(ValueError, match="unknown backend 'exact'"):
            report_columns(np.ones(1, dtype=complex), np.ones(1), np.ones(1, dtype=complex), 128, "exact", str)

    def test_point_report_rejects_an_unknown_backend(self):
        with pytest.raises(ValueError, match="unknown backend 'bogus'"):
            point_report(FIGURE_PRESET, "bogus")

    def test_sweep_columns_sweeps_only_r_or_s(self):
        with pytest.raises(ValueError, match="cannot sweep 'theta'; sweep 'r' or 's'"):
            sweep_columns(FIGURE_PRESET, "theta", [0.1, 0.2], DEFAULT_PHIS)

    def test_sweep_columns_checks_every_angle_before_the_largest_value(self):
        # ascending values and valid angles: the first invalid row's error
        with pytest.raises(RangeError, match="got inf") as info:
            sweep_columns(FIGURE_PRESET, "r", [0.0, 1.0, math.inf], (1.0, 2.0))
        assert info.value.field == "r"
        # an invalid later angle is found first, although the row (phi 1, r inf) comes before it
        with pytest.raises(DegeneratePostselection, match="phi = 4.0"):
            sweep_columns(FIGURE_PRESET, "r", [0.0, 1.0, math.inf], (1.0, 4.0))
        # each angle is checked with the smallest value in field order, r before phi
        with pytest.raises(RangeError, match="got -1.0"):
            sweep_columns(FIGURE_PRESET, "r", [1.0, -1.0], (4.0,))

    @pytest.mark.parametrize("trunc", [128, 256, 448])
    def test_oracle_fidelity_is_at_most_one_and_exactly_one_at_zero_coupling(self, trunc):
        base = FIGURE_PRESET.with_(trunc=trunc)
        r_grid = grid_values(0.0, 3.0, 0.02)
        sweeps = [
            sweep_columns(base, "s", grid_values(0.0, 4.0, 0.02), DEFAULT_PHIS),
            sweep_columns(base, "r", r_grid, DEFAULT_PHIS),
            *fidelity_columns(base, FIDELITY_COUPLINGS, r_grid),
        ]
        for sweep in sweeps:
            fid = sweep.report.fidelity_to_initial
            assert np.all(fid <= 1.0)
            assert np.all(fid[sweep.s == 0] == 1.0)
        assert np.count_nonzero(sweeps[0].s == 0) == len(DEFAULT_PHIS)


def report_bits(report) -> np.ndarray:
    """The report's fields as raw 64-bit patterns, so NaN compares equal to itself."""
    return np.array([getattr(report, name) for name in REPORT_FIELDS], dtype=np.float64).ravel().view(np.uint64)


class TestRoutes:
    @pytest.mark.parametrize("name", list(spacsim.sweeps.ROUTES))
    @pytest.mark.parametrize(
        "p",
        [FIGURE_PRESET, FIGURE_PRESET.with_(r=2.5, s=0.0, phi=0.3), FIGURE_PRESET.with_(r=0.7, s=3.1, theta=5.9, delta=1.1, trunc=256)],
        ids=["preset", "zero-coupling", "other-angles"],
    )
    def test_point_report_is_row_zero_of_its_route_columns(self, name, p):
        report, errors = report_columns(*point_columns(p), p.trunc, name, lambda j: p)
        assert errors == ("",)
        assert np.array_equal(report_bits(point_report(p, name)), report_bits(report))

    def test_point_report_raises_the_raw_tail_check_message(self):
        p = FIGURE_PRESET.with_(r=40)
        with pytest.raises(TruncationTooSmall) as info:
            point_report(p)
        reason = pointer_columns(*point_columns(p), p.trunc).errors[0]
        assert reason and str(info.value) == reason

    def test_a_new_entry_is_reachable_with_no_other_edit(self, monkeypatch):
        monkeypatch.setitem(spacsim.sweeps.ROUTES, "copy", spacsim.sweeps.ROUTES["printed"])
        columns = point_columns(FIGURE_PRESET)
        copied = report_columns(*columns, FIGURE_PRESET.trunc, "copy", str)
        assert np.array_equal(report_bits(copied[0]), report_bits(report_columns(*columns, FIGURE_PRESET.trunc, "printed", str)[0]))
        assert np.array_equal(report_bits(point_report(FIGURE_PRESET, "copy")), report_bits(point_report(FIGURE_PRESET, "printed")))
        values = grid_values(0.0, 1.0, 0.25)
        sweeps = [sweep_columns(FIGURE_PRESET, "s", values, DEFAULT_PHIS, backend) for backend in ("copy", "printed")]
        assert np.array_equal(report_bits(sweeps[0].report), report_bits(sweeps[1].report))
        assert sweeps[0].errors == sweeps[1].errors
