"""Comparison harness: scale fitting and the known printed anomalies."""

import math

import numpy as np
import pytest

import spacsim.audit
from spacsim.audit import compare, default_audit_grid, fit_scale
from spacsim.cli import main
from spacsim.io import fmt, load_manifest
from spacsim.params import FIGURE_PRESET


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
        original = spacsim.audit.pointer_column
        monkeypatch.setattr(spacsim.audit, "pointer_column", lambda p: calls.append(p) or original(p))
        grid = default_audit_grid()
        compare(grid)
        assert calls == grid

    def test_repeated_quantity_counts_once(self):
        grid = default_audit_grid(r_values=(1.0,), s_values=(0.0, 0.5))
        rows, summaries = compare(grid, quantities=("m_a", "m_a"))
        assert [r.quantity for r in rows] == ["m_a", "m_a"]
        assert [s.quantity for s in summaries] == ["m_a"]

    def test_empty_grid(self):
        assert compare([], quantities=("m_a", "wigner")) == ([], [])
