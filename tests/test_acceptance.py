"""Acceptance suite: ten numbered criteria, one test and one printed
pass/fail line each.  Run with ``pytest tests/test_acceptance.py -v -s``.

Criterion 8 is expected to fail and is left failing on purpose: its
pointwise fidelity-ordering clause is contradicted by exact physics
(the coupling-2 curve has an exact zero at vanishing amplitude where
the coupling-3 curve does not, and the curves cross again at moderate
amplitude).  The test prints the full diagnosis before asserting; see
README.md.
"""

import math
import time

import numpy as np
import pytest

from spacsim.cli import main
from spacsim.fock import fidelity, final_pointer_state, spacs
from spacsim.io import load_manifest, read_csv
from spacsim.params import FIGURE_PRESET
from spacsim.squeezing import point_report
from spacsim.sweeps import DEFAULT_PHIS, fidelity_table, grid_values, sweep_s
from spacsim.wigner import CharacteristicFunctionGrid, wigner_normalization, wigner_point

BOUND = 2.0 / math.pi

PANEL_R = (0.0, 1.0, 2.0)
PANEL_S = (0.0, 0.5, 2.0)


def ok(number: int, description: str) -> None:
    print(f"\nACCEPTANCE criterion {number}: PASS - {description}")


@pytest.fixture(scope="module")
def fig1a_sweeps():
    """Coupling sweeps of the first figure at both truncations, timed."""
    start = time.perf_counter()
    rows = {
        trunc: sweep_s(FIGURE_PRESET.with_(trunc=trunc), s_range=(0.0, 4.0, 0.02))
        for trunc in (96, 128)
    }
    return rows, time.perf_counter() - start


@pytest.fixture(scope="module")
def fidelity_tables():
    rvals, table = fidelity_table(FIGURE_PRESET)
    return rvals, {s: np.array([row.report.fidelity_to_initial for row in rows]) for s, rows in table.items()}


def curves_by_phi(rows):
    svals = grid_values(0.0, 4.0, 0.02)
    per = svals.size
    return svals, {phi: rows[i * per : (i + 1) * per] for i, phi in enumerate(DEFAULT_PHIS)}


def test_criterion_1_zero_coupling_reduction():
    rng = np.random.default_rng(20240801)
    start = time.perf_counter()
    for _ in range(20):
        p = FIGURE_PRESET.with_(
            r=rng.uniform(0, 2),
            theta=rng.uniform(0, 2 * math.pi),
            delta=rng.uniform(0, 2 * math.pi),
            phi=rng.uniform(0, math.pi - 1e-6),
            s=0.0,
        )
        assert abs(fidelity(spacs(p.alpha, p.trunc), final_pointer_state(p)) - 1.0) <= 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.2f}s, limit 1s"
    ok(1, f"zero-coupling pointer state keeps fidelity 1 for 20 random tuples in {elapsed:.2f}s")


def test_criterion_2_single_photon_limit():
    p = FIGURE_PRESET.with_(r=0.0, s=0.0)
    report = point_report(p)
    state = final_pointer_state(p)
    assert abs(report.n_mean - 1.0) <= 1e-10
    assert abs(report.s_os - 1.0) <= 1e-10
    assert abs(report.s_ass) <= 1e-10
    assert abs(report.var_x_min - 0.75) <= 1e-10
    assert abs(report.var_y_min - 1.5) <= 1e-10
    assert abs(wigner_point(state, 0) + BOUND) <= 1e-10
    ok(2, "single-photon limit reproduces all six forced values to 1e-10")


def test_criterion_3_truncation_convergence(fig1a_sweeps):
    rows, elapsed_a = fig1a_sweeps
    start = time.perf_counter()
    extra = {
        trunc: fidelity_table(
            FIGURE_PRESET.with_(trunc=trunc), r_range=(0.0, 2.0, 0.02)
        )[1]
        for trunc in (96, 128)
    }
    elapsed = elapsed_a + (time.perf_counter() - start)
    worst = 0.0
    for a, b in zip(rows[96], rows[128]):
        for field in ("s_os", "s_ass", "fidelity_to_initial"):
            worst = max(worst, abs(getattr(a.report, field) - getattr(b.report, field)))
    for s in (0.5, 1.0, 2.0, 3.0):
        for a, b in zip(extra[96][s], extra[128][s]):
            for field in ("s_os", "s_ass", "fidelity_to_initial"):
                worst = max(worst, abs(getattr(a.report, field) - getattr(b.report, field)))
    assert worst < 1e-8, f"worst truncation discrepancy {worst:.3e}"
    assert elapsed < 60.0, f"took {elapsed:.1f}s, limit 60s"
    ok(3, f"dim 96 vs 128 sweep quantities agree to {worst:.1e} in {elapsed:.1f}s")


def test_criterion_4_wigner_validity():
    start = time.perf_counter()
    for r in PANEL_R:
        for s in PANEL_S:
            state = final_pointer_state(FIGURE_PRESET.with_(r=r, s=s))
            integral, values = wigner_normalization(state, half_width=6.0, step=0.05)
            assert np.all(values >= -BOUND - 1e-9), f"panel r={r} s={s} below -2/pi"
            assert np.all(values <= BOUND + 1e-9), f"panel r={r} s={s} above 2/pi"
            assert abs(integral - 1.0) <= 1e-3, f"panel r={r} s={s} integral {integral}"
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"took {elapsed:.1f}s, limit 120s"
    ok(4, f"nine panels bounded by 2/pi and normalised to 1e-3 in {elapsed:.1f}s")


def test_criterion_5_wigner_algorithm_cross_check():
    state = final_pointer_state(FIGURE_PRESET)
    char = CharacteristicFunctionGrid(state, cutoff=6.0, res=0.04)
    rng = np.random.default_rng(2024)
    worst = 0.0
    for x, p in rng.uniform(-2, 2, size=(5, 2)):
        z = complex(x, p)
        worst = max(worst, abs(char.wigner_at(z) - wigner_point(state, z)))
    assert worst <= 1e-4, f"worst algorithm disagreement {worst:.3e}"
    ok(5, f"displaced parity and quadrature agree to {worst:.1e} at 5 points")


def test_criterion_6_ordinary_squeezing_figure(fig1a_sweeps):
    rows, _ = fig1a_sweeps
    svals, curves = curves_by_phi(rows[128])
    for phi, curve in curves.items():
        assert curve[0].report.s_os >= -1e-9, f"initial witness negative at phi={phi}"
    emphasised = min(r.report.s_os for r in curves[DEFAULT_PHIS[3]] if 0 < r.s < 2)
    mild = min(r.report.s_os for r in curves[DEFAULT_PHIS[0]] if 0 < r.s < 2)
    assert emphasised < mild, "larger weak value should squeeze deeper"

    def gap(s):
        values = [next(r.report.s_os for r in c if r.s == s) for c in curves.values()]
        return max(values) - min(values)

    assert gap(4.0) < gap(2.0), "curves should converge at strong coupling"
    ok(6, "witness curves: no initial squeezing, deeper minimum for the larger weak value, strong-coupling convergence")


def test_criterion_7_amplitude_squared_figure(fig1a_sweeps):
    rows, _ = fig1a_sweeps
    _, curves = curves_by_phi(rows[128])
    emphasised = curves[DEFAULT_PHIS[3]]
    assert any(r.report.s_ass < 0 for r in emphasised if 0 < r.s < 1), "no squeezing in the weak regime"
    assert all(r.report.s_ass > 0 for r in emphasised if 2 < r.s < 4), "squeezing persists in the strong regime"
    ok(7, "amplitude-squared witness negative in the weak regime, positive throughout the strong regime")


def test_criterion_8_fidelity_figure(fidelity_tables):
    rvals, f = fidelity_tables
    at_r1 = [f[s][np.nonzero(rvals == 1.0)[0][0]] for s in (0.5, 1.0, 2.0, 3.0)]
    assert all(a > b for a, b in zip(at_r1, at_r1[1:])), "fidelity not decreasing at unit amplitude"

    # full diagnosis of the pointwise clause before asserting it
    bad_05_2 = rvals[~(f[0.5] > f[2.0])]
    bad_2_3 = rvals[~(f[2.0] > f[3.0])]
    print(
        f"\npointwise ordering: f(0.5)>f(2) violated at {bad_05_2.size} of {rvals.size} "
        f"grid points; f(2)>f(3) violated at {bad_2_3.size} of {rvals.size} "
        f"(r in {np.round(bad_2_3[:6], 2)}...). At r=0, s=2 the fidelity is exactly 0: "
        f"both displaced branches are orthogonal to the one-photon state there, "
        f"while the s=3 overlap is finite, so the printed ordering cannot hold."
    )
    assert bad_05_2.size == 0, "f(s=0.5) > f(s=2) violated pointwise"
    assert bad_2_3.size == 0, "f(s=2) > f(s=3) violated pointwise"
    ok(8, "fidelity ordering holds pointwise")


def test_criterion_9_audit_completeness(tmp_path):
    out = tmp_path / "audit.csv"
    assert main(["audit", "--out", str(out)]) == 0
    summary = load_manifest(str(out) + ".manifest")["summary"]
    expected = {"n_mean", "m_a", "m_a2", "m_a2d2", "m_a4", "kappa_sq", "wigner"}
    assert set(summary) == expected
    for quantity, entry in summary.items():
        assert math.isfinite(entry["scale"]), quantity
        assert math.isfinite(entry["max_scaled_residual"]), quantity
    header, rows = read_csv(out)
    s_col, q_col = header.index("s"), header.index("quantity")
    k_rows = [r for r in rows if r[q_col] == "kappa_sq" and r[s_col] == 0.0]
    assert k_rows, "no forced zero-coupling normalisation points in the audit"
    for row in k_rows:
        ratio = row[header.index("printed_re")] / row[header.index("oracle_re")]
        assert abs(ratio - 1.0) <= 1e-6
    ok(
        9,
        "audit reports scales and residuals for all seven quantities "
        f"(field-amplitude anomaly: fitted scale {summary['m_a']['scale']:.6f}); "
        "normalisation ratio 1 at zero coupling",
    )


def test_criterion_10_determinism(tmp_path):
    files = {}
    for tag, workers in (("serial", "1"), ("parallel", "4")):
        for attempt in ("first", "second"):
            sweep_out = tmp_path / f"sweep_{tag}_{attempt}.csv"
            grid_out = tmp_path / f"grid_{tag}_{attempt}.csv"
            assert main(["fig1a", "--workers", workers, "--out", str(sweep_out)]) == 0
            assert main(
                ["wigner", "--grid-step", "0.1", "--workers", workers, "--out", str(grid_out)]
            ) == 0
            files[(tag, attempt)] = (sweep_out.read_bytes(), grid_out.read_bytes())
    reference = files[("serial", "first")]
    assert all(content == reference for content in files.values())
    ok(10, "sweep and grid outputs byte-identical across repeats and worker counts")
