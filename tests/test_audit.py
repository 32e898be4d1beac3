"""Comparison harness: scale fitting and the known printed anomalies."""

import math
import tracemalloc

import numpy as np
import pytest

import spacsim.audit
import spacsim.sweeps
from spacsim.audit import DEFAULT_S_VALUES, audit_columns, compare, default_audit_grid, fit_scale
from spacsim.cli import main
from spacsim.errors import RangeError, TruncationTooSmall
from spacsim.io import fmt, load_manifest
from spacsim.params import FIGURE_PRESET, weak_value


def summary_map(summaries):
    return {s.quantity: s for s in summaries}


class TestFitScale:
    def test_recovers_constant_factor(self):
        oracle = np.array([1.0 + 2j, -0.5, 3.0j, 2.4])
        assert fit_scale(2.0 * oracle, oracle) == pytest.approx(2.0, abs=1e-14)

    def test_least_squares_beats_identity(self):
        rng = np.random.default_rng(17)
        oracle = rng.standard_normal(50) + 1j * rng.standard_normal(50)
        printed = 1.7 * oracle + 0.05 * (rng.standard_normal(50) + 1j * rng.standard_normal(50))
        c = fit_scale(printed, oracle)
        assert np.sum(np.abs(printed - c * oracle) ** 2) <= np.sum(np.abs(printed - oracle) ** 2)

    def test_all_zero_oracle_keeps_scale_one(self):
        assert fit_scale(np.array([0.0, 1.5j]), np.zeros(2)) == 1.0

    def test_cli_zero_oracle_prints_scale_one_and_zero_residuals(self, tmp_path, capsys):
        # at r = 0 and s = 0 the state is one photon, whose field amplitude is 0
        argv = ["audit", "--r-values", "0", "--s-values", "0", "--quantities", "m_a", "--out", str(tmp_path / "a.csv")]
        assert main(argv) == 0
        assert capsys.readouterr().out == "quantity=m_a scale=1.0 max_scaled_residual=0.0 max_raw_residual=0.0 points=1\n"


class TestCompare:
    def test_kappa_scale_is_one_at_zero_coupling(self):
        grid = default_audit_grid(s_values=(0.0,))
        rows, summaries = compare(grid, quantities=("kappa_sq",))
        assert summary_map(summaries)["kappa_sq"].scale == pytest.approx(1.0, abs=1e-6)
        for row in rows:
            assert row.printed.real / row.oracle.real == pytest.approx(1.0, abs=1e-6)

    def test_field_amplitude_scale_anomaly_on_zero_coupling_line(self):
        """The known normalisation slip: <a> fits a factor of two."""
        grid = default_audit_grid(s_values=(0.0,), r_values=(0.5, 1.0, 1.5, 2.0))
        _, summaries = compare(grid, quantities=("m_a",))
        m_a = summary_map(summaries)["m_a"]
        assert m_a.scale == pytest.approx(2.0, abs=1e-9)
        assert m_a.max_scaled_residual < 1e-10

    def test_structural_misprints_leave_residuals(self):
        rows, summaries = compare(default_audit_grid(), quantities=("n_mean", "m_a2d2"))
        by_q = summary_map(summaries)
        # no constant factor explains the misprinted helpers
        assert by_q["n_mean"].max_scaled_residual > 1e-2
        assert by_q["m_a2d2"].max_scaled_residual > 1e-2

    def test_wigner_forced_point(self):
        grid = [FIGURE_PRESET.with_(r=0.0, s=0.0)]
        rows, summaries = compare(grid, quantities=("wigner",), wigner_half_width=3.0, wigner_step=0.75)
        centre = next(r for r in rows if r.x == 0.0 and r.p == 0.0)
        assert centre.oracle.real == pytest.approx(-2 / math.pi, abs=1e-10)
        assert centre.printed.real == pytest.approx(-4 / math.pi, abs=1e-10)
        assert summary_map(summaries)["wigner"].scale == pytest.approx(2.0, abs=1e-9)

    def test_scale_normalised_never_worse_in_aggregate(self):
        # least squares guarantees the fitted scale beats scale 1 in
        # the sum of squares, not per row
        rows, _ = compare(default_audit_grid(), quantities=("m_a2", "n_mean"))
        for q in ("m_a2", "n_mean"):
            group = [r for r in rows if r.quantity == q]
            raw = sum(r.raw_residual**2 for r in group)
            scaled = sum(r.scaled_residual**2 for r in group)
            assert scaled <= raw + 1e-12

    def test_rejects_unknown_quantity(self):
        with pytest.raises(ValueError):
            compare(default_audit_grid(), quantities=("bogus",))

    def test_rows_echo_parameters(self):
        grid = default_audit_grid(r_values=(1.0,), s_values=(0.5,))
        rows, _ = compare(grid, quantities=("m_a",))
        assert len(rows) == 1
        row = rows[0]
        assert (row.r, row.s) == (1.0, 0.5)
        assert row.theta == FIGURE_PRESET.theta
        assert math.isnan(row.x) and math.isnan(row.p)


class TestColumns:
    @pytest.mark.parametrize(
        "flags, kwargs",
        [
            ([], {}),
            (["--wigner-step", "0.25"], {"wigner_step": 0.25}),
            (["--theta", "0.3", "--delta", "5.1"], {"grid": default_audit_grid(FIGURE_PRESET.with_(theta=0.3, delta=5.1))}),
        ],
        ids=["default", "fine_wigner_step", "other_angles"],
    )
    def test_cli_csv_matches_per_cell_rows_of_compare(self, flags, kwargs, tmp_path, capsys):
        out = tmp_path / "audit.csv"
        assert main(["audit", "--trunc", "128", *flags, "--out", str(out)]) == 0
        rows, summaries = compare(**kwargs)
        header = (
            "quantity,r,theta,delta,phi,s,x,p,oracle_re,oracle_im,printed_re,printed_im,"
            "raw_residual,fitted_scale,scaled_residual"
        )
        lines = [header]
        for row in rows:
            cells = [
                row.r, row.theta, row.delta, row.phi, row.s, row.x, row.p,
                row.oracle.real, row.oracle.imag, row.printed.real, row.printed.imag,
                row.raw_residual, row.scale, row.scaled_residual,
            ]
            lines.append(",".join([row.quantity] + [fmt(v) for v in cells]))
        assert out.read_bytes() == ("\n".join(lines) + "\n").encode("utf-8")
        recorded = load_manifest(str(out) + ".manifest")["summary"]
        for s in summaries:
            assert recorded[s.quantity] == {
                "scale": s.scale,
                "max_raw_residual": s.max_raw_residual,
                "max_scaled_residual": s.max_scaled_residual,
                "n_points": s.n_points,
            }

    def test_residuals_are_complex_abs(self):
        rows, summaries = compare(default_audit_grid(r_values=(0.5, 2.0)), quantities=("wigner", "m_a4"))
        scales = {s.quantity: s.scale for s in summaries}
        for row in rows:
            assert row.raw_residual == abs(row.printed - row.oracle)
            assert row.scale == scales[row.quantity]
            assert row.scaled_residual == abs(row.printed - row.scale * row.oracle)

    def test_each_state_is_built_once(self, monkeypatch):
        calls = []
        original = spacsim.sweeps.pointer_columns
        monkeypatch.setattr(spacsim.sweeps, "pointer_columns", lambda *args: calls.append(args) or original(*args))
        grid = default_audit_grid()
        for width in (max(1, spacsim.sweeps.BLOCK_ELEMENTS // grid[0].trunc), 7):
            monkeypatch.setattr(spacsim.sweeps, "BLOCK_ELEMENTS", width * grid[0].trunc)
            calls.clear()
            compare(grid)
            assert len(calls) == math.ceil(len(grid) / width)
            alphas, couplings, weak_values = (np.concatenate(column).tolist() for column in list(zip(*calls))[:3])
            assert alphas == [params.alpha for params in grid]
            assert couplings == [params.s for params in grid]
            assert weak_values == [weak_value(params.delta, params.phi) for params in grid]

    @pytest.mark.parametrize("width", [1, 7, 30])
    def test_block_width_leaves_every_column_bit_identical(self, width, monkeypatch):
        grid = default_audit_grid()
        whole = audit_columns(grid)
        monkeypatch.setattr(spacsim.sweeps, "BLOCK_ELEMENTS", width * grid[0].trunc)
        for a, b in zip(audit_columns(grid), whole, strict=True):
            assert a.quantity == b.quantity and a.scale == b.scale
            for name in ("oracle", "printed", "raw_residual", "scaled_residual"):
                assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), (a.quantity, name)

    def test_mixed_truncations_keep_grid_order(self, monkeypatch):
        dims = []
        original = spacsim.sweeps.pointer_columns
        monkeypatch.setattr(spacsim.sweeps, "pointer_columns", lambda *args: dims.append(args[3]) or original(*args))
        points = default_audit_grid(r_values=(0.5, 1.0), s_values=(0.0, 0.5, 2.0))
        grid = [params.with_(trunc=trunc) for params, trunc in zip(points, (64, 64, 128, 128, 128, 64))]
        mixed = audit_columns(grid)
        assert dims == [32, 48, 64]
        for j, params in enumerate(grid):
            for a, alone in zip(mixed, audit_columns([params]), strict=True):
                size = alone.oracle.size
                assert a.oracle[j * size : (j + 1) * size].tobytes() == alone.oracle.tobytes(), (j, a.quantity)

    def test_repeated_points_keep_grid_order_bit_for_bit(self, monkeypatch):
        couplings = []
        original = spacsim.sweeps.pointer_columns
        monkeypatch.setattr(spacsim.sweeps, "pointer_columns", lambda *args: couplings.extend(args[1].tolist()) or original(*args))
        grid = default_audit_grid(r_values=(1.0, 0.5, 1.0), s_values=(0.5, 2.0, 0.5))
        repeated = audit_columns(grid)
        assert couplings != [params.s for params in grid]  # the walk puts each point beside its twins
        for j, params in enumerate(grid):
            for a, alone in zip(repeated, audit_columns([params]), strict=True):
                size = alone.oracle.size
                for name in ("x", "p", "oracle", "printed"):
                    got = getattr(a, name)[j * size : (j + 1) * size]
                    assert got.tobytes() == getattr(alone, name).tobytes(), (j, a.quantity, name)
                for name, echo in alone.echo.items():
                    assert a.echo[name][j * size : (j + 1) * size].tobytes() == echo.tobytes(), (j, a.quantity, name)

    def test_failing_state_raises_after_the_wigner_comparisons_before_it(self, monkeypatch):
        compared = []
        original = spacsim.audit.wigner_grid_values
        monkeypatch.setattr(spacsim.audit, "wigner_grid_values", lambda *args: compared.append(args) or original(*args))
        grid = default_audit_grid(r_values=(0.0, 12.0))
        with pytest.raises(TruncationTooSmall, match=r"^spacs\(\(8\.48"):
            audit_columns(grid)
        assert len(compared) == len(DEFAULT_S_VALUES)

    def test_cli_failing_state_exits_3_naming_it(self, tmp_path, capsys):
        out = tmp_path / "audit.csv"
        assert main(["audit", "--r-values", "0,12", "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            "spacsim: numerical failure: spacs((8.485281374238571+8.48528137423857j)): tail share 5.283e-01 "
            "of the norm in the top 4 of 128 levels exceeds 1e-10; increase the truncation dimension\n"
        )
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("subset", [("wigner",), ("kappa_sq",), ("kappa_sq", "wigner"), ("m_a", "wigner")], ids="-".join)
    def test_a_quantity_is_bit_identical_whichever_others_are_requested(self, subset):
        full = {c.quantity: c for c in audit_columns()}
        for a in audit_columns(quantities=subset):
            b = full[a.quantity]
            assert a.scale == b.scale
            for name in ("x", "p", "oracle", "printed", "raw_residual", "scaled_residual"):
                assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), (a.quantity, name)

    def test_repeated_quantity_counts_once(self):
        grid = default_audit_grid(r_values=(1.0,), s_values=(0.0, 0.5))
        rows, summaries = compare(grid, quantities=("m_a", "m_a"))
        assert [r.quantity for r in rows] == ["m_a", "m_a"]
        assert [s.quantity for s in summaries] == ["m_a"]

    def test_empty_grid(self):
        assert compare([], quantities=("m_a", "wigner")) == ([], [])


class TestWignerHalfWidth:
    @pytest.mark.parametrize("half_width", [-1.0, -1e-300, math.nan, math.inf, -math.inf])
    def test_rejected_naming_the_field(self, half_width):
        with pytest.raises(RangeError) as err:
            audit_columns(default_audit_grid(r_values=(1.0,), s_values=(0.5,)), ("wigner",), half_width)
        assert err.value.field == "wigner_half_width"

    def test_cli_names_the_flag(self, tmp_path, capsys):
        assert main(["audit", "--wigner-half-width", "-1", "--out", str(tmp_path / "audit.csv")]) == 2
        assert capsys.readouterr().err == (
            "spacsim: invalid arguments: wigner_half_width: half width must be finite and >= 0, got -1.0\n"
        )

    @pytest.mark.parametrize("step", [0.0, -0.5, 0.3, math.inf])
    def test_a_bad_step_names_the_range(self, step):
        with pytest.raises(RangeError) as err:
            audit_columns(default_audit_grid(r_values=(1.0,), s_values=(0.5,)), ("wigner",), 1.0, step)
        assert err.value.field == "wigner_half_width/wigner_step"

    def test_cli_rejects_more_wigner_rows_than_the_grid_cap_before_allocating(self, tmp_path, capsys):
        # 30 states of 1001^2 points each would be two 30 M-entry complex arrays and a CSV of about 3 GB
        out = tmp_path / "audit.csv"
        argv = ["audit", "--wigner-half-width", "3", "--wigner-step", "0.006", "--out", str(out)]
        tracemalloc.start()
        try:
            assert main(argv) == 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert capsys.readouterr().err.startswith(
            "spacsim: invalid arguments: wigner_half_width/wigner_step: the Wigner grid needs an array of at least 3.01e+07"
        )
        assert list(tmp_path.iterdir()) == []

    def test_zero_gives_one_point_per_state(self):
        grid = default_audit_grid(r_values=(1.0,), s_values=(0.0, 0.5))
        (columns,) = audit_columns(grid, ("wigner",), 0.0)
        assert columns.oracle.size == len(grid)
        assert columns.x.tolist() == columns.p.tolist() == [0.0, 0.0]


def test_csv_columns_of_no_quantity_names_every_column():
    columns = spacsim.audit.csv_columns([])
    assert [name for name, _ in columns] == [
        "quantity", "r", "theta", "delta", "phi", "s", "x", "p", "oracle_re", "oracle_im",
        "printed_re", "printed_im", "raw_residual", "fitted_scale", "scaled_residual",
    ]
    assert all(len(values) == 0 for _, values in columns)
