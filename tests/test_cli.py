"""Command-line interface: outputs, exit codes, manifests, determinism."""

import json
import math
import os
import random
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import spacsim
from spacsim.cli import build_parser, main
from spacsim.errors import SpacsimError
from spacsim.fock import final_pointer_state, pointer_column
from spacsim.io import WignerGrid, csv_round_trips, load_manifest, read_csv, write_csv
from spacsim.params import FIGURE_PRESET, MAX_TRUNC
from spacsim.printed import printed_moments, printed_wigner_values
from spacsim.sweeps import DEFAULT_PHIS, FIDELITY_COUPLINGS, fidelity_table, grid_values, sweep_r, sweep_s
from spacsim.wigner import wigner_grid_values

PRESET_PHI = repr(7 * math.pi / 9)


def run(*argv) -> int:
    return main(list(argv))


def column(header, rows, name):
    idx = header.index(name)
    return [row[idx] for row in rows]


class TestFigCommands:
    def test_fig1a_zero_coupling_baseline(self, tmp_path):
        out = tmp_path / "fig1a.csv"
        assert run("fig1a", "--s-max", "0", "--out", str(out)) == 0
        header, rows = read_csv(out)
        assert header[:2] == ["phi", "s"]
        assert len(rows) == 4  # one row per default angle
        # initial state carries no ordinary squeezing at unit amplitude
        preset_row = next(r for r in rows if abs(r[0] - 7 * math.pi / 9) < 1e-12)
        assert preset_row[header.index("s_os")] >= -1e-9
        assert preset_row[header.index("fidelity")] == pytest.approx(1.0, abs=1e-12)
        assert csv_round_trips(out)
        assert load_manifest(str(out) + ".manifest")["command"] == "fig1a"

    def test_fig1b_sweeps_amplitude(self, tmp_path):
        out = tmp_path / "fig1b.csv"
        assert run("fig1b", "--r-max", "1", "--r-step", "0.5", "--phis", PRESET_PHI, "--out", str(out)) == 0
        header, rows = read_csv(out)
        assert header[1] == "r"
        assert [r[1] for r in rows] == [0.0, 0.5, 1.0]

    def test_fig3_fidelity_columns_decrease_in_coupling(self, tmp_path):
        out = tmp_path / "fig3.csv"
        assert run("fig3", "--r-step", "0.25", "--out", str(out)) == 0
        header, rows = read_csv(out)
        assert header == ["r", "fidelity_s0.5", "fidelity_s1.0", "fidelity_s2.0", "fidelity_s3.0"]
        at_r1 = next(r for r in rows if r[0] == 1.0)
        assert at_r1[1] > at_r1[2] > at_r1[3] > at_r1[4]
        assert csv_round_trips(out)


class TestWignerCommand:
    def test_single_photon_panel_dip(self, tmp_path):
        out = tmp_path / "w00.csv"
        assert run(
            "wigner", "--r", "0", "--s", "0",
            "--x-min", "-2", "--x-max", "2", "--p-min", "-2", "--p-max", "2",
            "--grid-step", "0.05", "--out", str(out),
        ) == 0
        header, rows = read_csv(out)
        assert header == ["x", "p", "w"]
        lowest = min(rows, key=lambda row: row[2])
        assert lowest[2] == pytest.approx(-2 / math.pi, abs=1e-6)
        assert (lowest[0], lowest[1]) == (0.0, 0.0)
        assert csv_round_trips(out)

    def test_displaced_panel_peak_away_from_origin(self, tmp_path):
        out = tmp_path / "w10.csv"
        assert run(
            "wigner", "--r", "1", "--s", "0",
            "--x-min", "-2", "--x-max", "2", "--p-min", "-2", "--p-max", "2",
            "--grid-step", "0.1", "--out", str(out),
        ) == 0
        _, rows = read_csv(out)
        x, p, _ = max(rows, key=lambda row: row[2])
        peak = complex(x, p)
        alpha = complex(math.cos(math.pi / 4), math.sin(math.pi / 4))
        # the peak sits just outside alpha along the alpha direction
        assert abs(peak) > 0.5
        assert abs(peak - alpha) < 1.0
        assert abs(math.atan2(p, x) - math.pi / 4) < 0.2

    def test_strong_coupling_panel_shows_interference(self, tmp_path):
        out = tmp_path / "w12.csv"
        assert run(
            "wigner", "--r", "1", "--s", "2",
            "--x-min", "-3", "--x-max", "3", "--p-min", "-3", "--p-max", "3",
            "--grid-step", "0.1", "--out", str(out),
        ) == 0
        _, rows = read_csv(out)
        alpha = complex(math.cos(math.pi / 4), math.sin(math.pi / 4))
        fringe = [
            row for row in rows
            if row[2] < -0.01 and abs(complex(row[0], row[1]) - alpha / 2) > 1.0
        ]
        assert fringe, "expected negative interference away from the initial dip"

    def test_printed_backend(self, tmp_path):
        out = tmp_path / "wp.csv"
        assert run(
            "wigner", "--backend", "printed", "--r", "0", "--s", "0",
            "--x-min", "-1", "--x-max", "1", "--p-min", "-1", "--p-max", "1",
            "--grid-step", "0.5", "--out", str(out),
        ) == 0
        _, rows = read_csv(out)
        centre = next(r for r in rows if r[0] == 0.0 and r[1] == 0.0)
        assert centre[2] == pytest.approx(-4 / math.pi, abs=1e-12)


class TestAuditCommand:
    def test_summary_and_forced_points(self, tmp_path, capsys):
        out = tmp_path / "audit.csv"
        assert run(
            "audit", "--r-values", "0,1", "--s-values", "0,0.5",
            "--wigner-step", "1.5", "--out", str(out),
        ) == 0
        printed = capsys.readouterr().out
        for q in ("n_mean", "m_a", "m_a2", "m_a2d2", "m_a4", "kappa_sq", "wigner"):
            assert f"quantity={q} " in printed
        header, rows = read_csv(out)
        k_rows = [r for r in rows if r[0] == "kappa_sq" and r[header.index("s")] == 0.0]
        assert k_rows
        for row in k_rows:
            ratio = row[header.index("printed_re")] / row[header.index("oracle_re")]
            assert ratio == pytest.approx(1.0, abs=1e-6)
        assert csv_round_trips(out)
        summary = load_manifest(str(out) + ".manifest")["summary"]
        assert set(summary) == {"n_mean", "m_a", "m_a2", "m_a2d2", "m_a4", "kappa_sq", "wigner"}

    def test_quantity_subset(self, tmp_path, capsys):
        out = tmp_path / "audit_w.csv"
        assert run(
            "audit", "--quantities", "wigner", "--r-values", "1", "--s-values", "0.5",
            "--wigner-step", "1.0", "--out", str(out),
        ) == 0
        _, rows = read_csv(out)
        assert all(r[0] == "wigner" for r in rows)


class TestPointCommand:
    def parse(self, text):
        pairs = dict(line.split("=", 1) for line in text.strip().splitlines())
        return pairs

    def test_zero_coupling_fidelity(self, capsys):
        assert run("point", "--s", "0") == 0
        values = self.parse(capsys.readouterr().out)
        assert float(values["fidelity_to_initial"]) == 1.0

    def test_single_photon_limit(self, capsys):
        assert run("point", "--r", "0", "--s", "0") == 0
        values = self.parse(capsys.readouterr().out)
        assert float(values["n_mean"]) == pytest.approx(1.0, abs=1e-12)

    def test_preset_has_negative_ass_witness(self, capsys):
        assert run("point") == 0
        values = self.parse(capsys.readouterr().out)
        assert float(values["s_ass"]) < 0

    def test_env_var_steers_truncation(self, capsys, monkeypatch):
        monkeypatch.setenv("SPACS_TRUNC", "96")
        assert run("point", "--s", "0") == 0
        values = self.parse(capsys.readouterr().out)
        assert values["trunc"] == "96"


class TestExitCodes:
    def test_unknown_flag(self, capsys):
        assert run("fig1a", "--bogus") == 2

    def test_degenerate_postselection(self, capsys):
        assert run("point", "--phi", repr(math.pi)) == 2

    def test_negative_amplitude(self, capsys):
        assert run("point", "--r", "-1") == 2

    def test_tiny_truncation_is_numerical_failure(self, tmp_path, capsys):
        out = tmp_path / "never.csv"
        code = run("fig1a", "--r", "2", "--trunc", "16", "--s-max", "0", "--out", str(out))
        assert code == 3
        assert not out.exists()
        message = capsys.readouterr().err
        assert "phi=" in message and "s=" in message  # names the failing row

    @pytest.mark.parametrize(
        "argv",
        [
            ("wigner", "--x-max", "inf"),
            ("wigner", "--grid-step", "nan"),
            ("audit", "--wigner-step", "inf"),
        ],
    )
    def test_non_finite_range_is_invalid_input(self, argv, tmp_path, capsys):
        out = tmp_path / "never.csv"
        assert run(*argv, "--out", str(out)) == 2
        assert "invalid arguments" in capsys.readouterr().err
        assert not out.exists()

    def test_eigh_failure_is_numerical_failure(self, monkeypatch, capsys):
        # the point path no longer diagonalises; a LinAlgError raised on it
        # (a ValueError subclass) must still exit 3, not 2
        import spacsim.sweeps

        def failing(*args, **kwargs):
            raise np.linalg.LinAlgError("eigenvalues did not converge")

        monkeypatch.setattr(spacsim.sweeps, "pointer_columns", failing)
        assert run("point", "--s", "0.5") == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_invalid_swept_value_is_invalid_input(self, tmp_path, capsys):
        out = tmp_path / "never.csv"
        assert run("fig1a", "--s-min", "-1", "--s-max", "0", "--s-step", "1", "--out", str(out)) == 2
        assert "invalid arguments" in capsys.readouterr().err
        assert not out.exists()

    def test_large_amplitude_with_large_truncation(self, capsys):
        assert run("point", "--r", "40", "--trunc", "4000") == 0
        values = TestPointCommand().parse(capsys.readouterr().out)
        for key in ("s_os", "s_ass", "var_x_min", "var_y_min", "n_mean", "fidelity_to_initial"):
            assert math.isfinite(float(values[key]))

    def test_large_amplitude_with_small_truncation_is_numerical_failure(self, capsys):
        assert run("point", "--r", "40") == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_tail_report_is_a_share_of_the_norm(self, capsys):
        assert run("point", "--r", "30") == 3
        message = capsys.readouterr().err
        share = float(re.search(r"tail share (\S+)", message).group(1))
        assert 0.5 < share <= 1.0

    def test_printed_wigner_far_from_origin(self, tmp_path):
        out = tmp_path / "w.csv"
        assert run(
            "wigner", "--backend", "printed", "--s", "4", "--x-min", "100", "--x-max", "101",
            "--p-min", "0", "--p-max", "0", "--grid-step", "1", "--out", str(out),
        ) == 0
        _, rows = read_csv(out)
        assert [row[2] for row in rows] == [0.0, 0.0]

    @pytest.mark.parametrize("x", ["1e154", "1e170", "1e300"])
    def test_oracle_wigner_far_from_origin(self, x, tmp_path, capsys):
        # u^2 = 2 x^2 of the Hermite recurrence overflows a double from x = 9.5e153; W is exactly 0 there
        out = tmp_path / "w.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run("wigner", "--x-min", x, "--x-max", x, "--p-min", "0", "--p-max", "1", "--grid-step", "0.5", "--out", str(out))
        assert (code, capsys.readouterr().err) == (0, "")
        assert [line.rsplit(",", 1)[1] for line in out.read_text().splitlines()[1:]] == ["0.0"] * 3


    @pytest.mark.parametrize("x", ["1e155", "1e300", "-1e300"])
    def test_printed_wigner_far_from_origin_is_zero(self, x, tmp_path, capsys):
        # |2z - alpha|^2 overflows a double from x = 9e153; the printed Gaussian factor is 0 there
        out = tmp_path / "w.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(
                "wigner", "--backend", "printed", f"--x-min={x}", f"--x-max={x}", "--p-min", "0", "--p-max", "1",
                "--grid-step", "0.5", "--out", str(out),
            )
        assert (code, capsys.readouterr().err) == (0, "")
        assert [line.rsplit(",", 1)[1] for line in out.read_text().splitlines()[1:]] == ["0.0"] * 3


class TestDeterminism:
    def test_sweep_serial_vs_parallel_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run("fig1a", "--s-max", "1", "--s-step", "0.05", "--workers", "1", "--out", str(a)) == 0
        assert run("fig1a", "--s-max", "1", "--s-step", "0.05", "--workers", "4", "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_grid_serial_vs_parallel_bytes(self, tmp_path):
        a, b = tmp_path / "wa.csv", tmp_path / "wb.csv"
        common = ["wigner", "--x-min", "-2", "--x-max", "2", "--p-min", "-2", "--p-max", "2", "--grid-step", "0.1"]
        assert run(*common, "--workers", "1", "--out", str(a)) == 0
        assert run(*common, "--workers", "3", "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_rerun_from_manifest_reproduces_bytes(self, tmp_path):
        first = tmp_path / "first.csv"
        again = tmp_path / "again.csv"
        assert run("fig1b", "--r-max", "0.5", "--r-step", "0.25", "--out", str(first)) == 0
        assert run("rerun", str(first) + ".manifest", "--out", str(again)) == 0
        assert first.read_bytes() == again.read_bytes()


class TestColumnarOutput:
    @pytest.mark.parametrize("backend", ["oracle", "printed"])
    def test_wigner_matches_the_row_writer(self, backend, tmp_path):
        out, ref = tmp_path / "w.csv", tmp_path / "ref.csv"
        assert run(
            "wigner", "--backend", backend, "--r", "1", "--s", "0.5", "--trunc", "128",
            "--x-min", "-2", "--x-max", "2", "--p-min", "-1.5", "--p-max", "1", "--grid-step", "0.25",
            "--out", str(out),
        ) == 0
        params = FIGURE_PRESET.with_(r=1.0, s=0.5, trunc=128)
        xs, ps = grid_values(-2.0, 2.0, 0.25), grid_values(-1.5, 1.0, 0.25)
        if backend == "oracle":
            values = wigner_grid_values(final_pointer_state(params), xs, ps)
        else:
            values = printed_wigner_values(params, xs[:, None] + 1j * ps[None, :])
        grid = WignerGrid(x_min=-2.0, x_max=2.0, p_min=-1.5, p_max=1.0, step=0.25, values=values)
        write_csv(ref, ["x", "p", "w"], grid.rows())
        assert out.read_bytes() == ref.read_bytes()


_REPORT_FIELDS = ("s_os", "s_ass", "var_x_min", "var_y_min", "n_mean", "fidelity_to_initial")
_DRAWN = random.Random(2021)
_DRAWN_ANGLES = (_DRAWN.uniform(0, 2 * math.pi), _DRAWN.uniform(0, 2 * math.pi))


def _row_api_csv(command: str, base, path) -> None:
    """What a sweep command writes at its default ranges, built from the row API cell by cell."""
    if command == "fig3":
        rvals, table = fidelity_table(base)
        header = ["r"] + [f"fidelity_s{s!r}" for s in FIDELITY_COUPLINGS]
        rows = [[r] + [table[s][i].report.fidelity_to_initial for s in FIDELITY_COUPLINGS] for i, r in enumerate(rvals.tolist())]
    else:
        swept = "s" if command in ("fig1a", "fig2a") else "r"
        header = ["phi", swept, "s_os", "s_ass", "var_x_min", "var_y_min", "n_mean", "fidelity"]
        sweep = sweep_s(base) if swept == "s" else sweep_r(base)
        rows = [[row.phi, getattr(row, swept)] + [getattr(row.report, name) for name in _REPORT_FIELDS] for row in sweep]
    write_csv(path, header, rows)


class TestColumnarSweeps:
    @pytest.mark.parametrize("angles", [None, _DRAWN_ANGLES], ids=["preset", "drawn"])
    @pytest.mark.parametrize("command", ["fig1a", "fig1b", "fig2a", "fig2b", "fig3"])
    def test_csv_matches_the_row_api(self, command, angles, tmp_path):
        out, ref = tmp_path / "out.csv", tmp_path / "ref.csv"
        base = FIGURE_PRESET
        argv = [command, "--out", str(out)]
        if angles:
            base = FIGURE_PRESET.with_(theta=angles[0], delta=angles[1])
            argv += ["--theta", repr(angles[0]), "--delta", repr(angles[1])]
        assert run(*argv) == 0
        _row_api_csv(command, base, ref)
        assert out.read_bytes() == ref.read_bytes()

    @staticmethod
    def point_failure(call, params) -> str:
        """The message of the error that one point's scalar route raises."""
        with pytest.raises(SpacsimError) as failure:
            call(params)
        return str(failure.value)

    def test_printed_overflow_part_way_names_the_first_failing_point(self, tmp_path, capsys):
        out = tmp_path / "never.csv"
        assert run("fig1b", "--backend", "printed", "--r-max", "1e200", "--r-step", "1e198", "--out", str(out)) == 3
        first = FIGURE_PRESET.with_(r=1e198, phi=DEFAULT_PHIS[0])
        assert capsys.readouterr().err == f"spacsim: numerical failure: {self.point_failure(printed_moments, first)}\n"
        assert list(tmp_path.iterdir()) == []

    @staticmethod
    def assert_points_print_their_sweep_rows(backend, command, angles, tmp_path, capsys):
        out = tmp_path / "out.csv"
        scenario = ["--backend", backend] + (["--theta", repr(angles[0]), "--delta", repr(angles[1])] if angles else [])
        assert run(command, *scenario, "--out", str(out)) == 0
        header, rows = read_csv(out)
        for row in random.Random(command).sample(rows, 16):
            assert run("point", *scenario, "--phi", repr(row[0]), f"--{header[1]}", repr(row[1])) == 0
            printed = dict(line.split("=") for line in capsys.readouterr().out.splitlines())
            values = [float(printed[name]) for name in _REPORT_FIELDS]
            np.testing.assert_array_equal(values, row[2:], err_msg=f"{command} row {row[:2]}")

    @pytest.mark.parametrize("angles", [None, _DRAWN_ANGLES], ids=["preset", "drawn"])
    @pytest.mark.parametrize("command", ["fig1a", "fig1b"])
    def test_printed_point_prints_its_sweep_row(self, command, angles, tmp_path, capsys):
        """A printed point is the sweep's column form at one entry, so it prints the row's values bit for bit."""
        self.assert_points_print_their_sweep_rows("printed", command, angles, tmp_path, capsys)

    @pytest.mark.parametrize("angles", [None, _DRAWN_ANGLES], ids=["preset", "drawn"])
    @pytest.mark.parametrize("command", ["fig1a", "fig1b"])
    def test_oracle_point_prints_its_sweep_row(self, command, angles, tmp_path, capsys):
        """An oracle point is a block of one column, summed row by row as its sweep block is, so it prints the row bit for bit."""
        self.assert_points_print_their_sweep_rows("oracle", command, angles, tmp_path, capsys)

    def test_truncation_failure_names_the_first_failing_row(self, tmp_path, capsys):
        out = tmp_path / "never.csv"
        assert run("fig1b", "--trunc", "8", "--out", str(out)) == 3
        first = FIGURE_PRESET.with_(r=0.0, phi=DEFAULT_PHIS[0], trunc=8)
        reason = self.point_failure(pointer_column, first)
        assert capsys.readouterr().err == (
            f"spacsim: numerical failure: row phi={first.phi} r=0.0 s=0.5 failed: TruncationTooSmall: {reason}\n"
        )
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["fig1a", "--s-min", "-1"], "s: coupling ratio must be >= 0, got -1.0"),
            (["fig1b", "--phis", "1,nan", "--r-min", "-1"], "phi: polar angle must be >= 0, got nan"),
            (["fig3", "--s-values", "0.5,-1"], "s: coupling ratio must be >= 0, got -1.0"),
            (["fig3", "--s-values", "nan", "--r-step", "0"], "s: coupling ratio must be >= 0, got nan"),
            (["fig3", "--s-values", "0.5,-1", "--r-min", "2", "--r-max", "1"], "s: coupling ratio must be >= 0, got -1.0"),
            (["fig3", "--s-values=", "--r-min", "-1", "--r-max", "1", "--r-step", "0.5"], "r: coherent amplitude modulus must be >= 0, got -1.0"),
            (["fig1a", "--phis=", "--s-min", "-1", "--s-max", "1", "--s-step", "0.5"], "s: coupling ratio must be >= 0, got -1.0"),
        ],
        ids=[
            "negative-swept-value", "bad-angle-before-range", "bad-coupling", "bad-coupling-before-step", "bad-coupling-before-range",
            "no-coupling-negative-r", "no-angle-negative-s",
        ],
    )
    def test_invalid_input_names_the_first_invalid_field(self, argv, message, tmp_path, capsys):
        out = tmp_path / "never.csv"
        assert run(*argv, "--out", str(out)) == 2
        assert capsys.readouterr().err == f"spacsim: invalid arguments: {message}\n"
        assert list(tmp_path.iterdir()) == []


class TestRerunErrors:
    def assert_bad_manifest(self, path, capsys) -> str:
        assert run("rerun", str(path)) == 2
        err = capsys.readouterr().err
        assert err.startswith("spacsim: invalid arguments: ")
        assert err.count("\n") == 1 and str(path) in err
        return err

    def test_unreadable_file(self, tmp_path, capsys):
        self.assert_bad_manifest(tmp_path / "missing.csv.manifest", capsys)

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "bad.csv.manifest"
        path.write_text("{not json")
        self.assert_bad_manifest(path, capsys)

    @pytest.mark.parametrize("key", ["command", "config", "out"])
    def test_missing_key(self, key, tmp_path, capsys):
        first = tmp_path / "first.csv"
        assert run("fig1b", "--r-max", "0.5", "--r-step", "0.25", "--out", str(first)) == 0
        path = Path(str(first) + ".manifest")
        manifest = json.loads(path.read_text())
        del manifest[key]
        path.write_text(json.dumps(manifest))
        capsys.readouterr()
        assert repr(key) in self.assert_bad_manifest(path, capsys)


class TestTruncationInput:
    @pytest.mark.parametrize("trunc", ["4", "5"])
    def test_truncation_below_the_tail_check_is_invalid_input(self, trunc, capsys):
        assert run("point", "--trunc", trunc) == 2
        err = capsys.readouterr().err
        assert "invalid arguments" in err and "trunc" in err

    def test_smallest_truncation_still_runs(self, capsys):
        assert run("point", "--trunc", "6", "--r", "0", "--s", "0") == 0
        values = TestPointCommand().parse(capsys.readouterr().out)
        assert float(values["n_mean"]) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("source", ["flag", "environment"])
    def test_truncation_above_the_cap_is_invalid_input_before_allocating(self, source, tmp_path, capsys, monkeypatch):
        out = tmp_path / "never.csv"
        over = str(MAX_TRUNC + 1)
        if source == "environment":
            monkeypatch.setenv("SPACS_TRUNC", over)
        argv = ["--trunc", over] if source == "flag" else []
        assert run("fig1a", "--s-max", "0", *argv, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("spacsim: invalid arguments: trunc: ") and err.count("\n") == 1
        assert not out.exists() and not Path(str(out) + ".manifest").exists()

    @pytest.mark.parametrize("text", ["abc", "1e3", "0x10"])
    def test_non_integer_environment_truncation_is_invalid_input(self, text, tmp_path, capsys, monkeypatch):
        out = tmp_path / "never.csv"
        monkeypatch.setenv("SPACS_TRUNC", text)
        assert run("fig1a", "--s-max", "0", "--out", str(out)) == 2
        assert capsys.readouterr().err == (
            f"spacsim: invalid arguments: trunc: SPACS_TRUNC must be a decimal integer, got {text!r}\n"
        )
        assert list(tmp_path.iterdir()) == []


def _spacsim_subprocess(*argv: str, **env_vars: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(Path(spacsim.__file__).resolve().parents[1]), **env_vars)
    return subprocess.run(
        [sys.executable, "-m", "spacsim.cli", *argv], capture_output=True, text=True, env=env, timeout=60
    )


def test_overflowing_amplitude_prints_no_warning():
    done = _spacsim_subprocess("point", "--s", "1e200")
    assert done.returncode == 3
    assert "numerical failure" in done.stderr
    assert "RuntimeWarning" not in done.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["point", "--backend", "printed", "--s", "1e200"],
        ["point", "--backend", "printed", "--s", "1e62"],
        ["fig1b", "--backend", "printed", "--s", "1e200", "--r-max", "0", "--out", "f.csv"],
        ["wigner", "--backend", "printed", "--s", "1e200", "--out", "w.csv"],
    ],
    ids=["point", "point-1e62", "fig1b", "wigner"],
)
def test_printed_overflow_is_one_line_numerical_failure(argv, tmp_path):
    done = _spacsim_subprocess(*(str(tmp_path / arg) if arg.endswith(".csv") else arg for arg in argv))
    assert done.returncode == 3
    assert done.stderr.startswith("spacsim: numerical failure: printed_") and done.stderr.count("\n") == 1
    assert "overflows a double" in done.stderr and "Traceback" not in done.stderr
    assert list(tmp_path.iterdir()) == []


def test_wigner_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    """The default (0, 0) panel writes the same bytes under one and two OpenBLAS threads.

    OpenBLAS never runs more threads than the host has CPUs, so on a
    one-CPU host both runs use one thread and this passes trivially.
    """
    panels = []
    for threads in ("1", "2"):
        out = tmp_path / f"w{threads}.csv"
        done = _spacsim_subprocess("wigner", "--r", "0", "--s", "0", "--out", str(out), OPENBLAS_NUM_THREADS=threads)
        assert done.returncode == 0, done.stderr
        panels.append(out.read_bytes())
    assert panels[0] == panels[1]


_THREADS_CHILD = """
import json, os, sys
if sys.argv[2] == "numpy-first":
    import numpy
import spacsim.cli
code = spacsim.cli.main(["wigner", "--r", "0", "--s", "0", "--out", sys.argv[1]])
print(json.dumps([code, len(os.listdir("/proc/self/task")), os.environ.get("OPENBLAS_NUM_THREADS")]))
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="counts threads in /proc/self/task")
@pytest.mark.parametrize(
    "setting, order, env_after",
    [(None, "cli-first", "1"), ("2", "cli-first", "2"), (None, "numpy-first", None)],
    ids=["default", "explicit", "numpy-first"],
)
def test_a_cli_process_defaults_openblas_to_one_thread(setting, order, env_after, tmp_path):
    """Only a process that imports the CLI before numpy gets the one-thread default, and never over a set value."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = str(Path(spacsim.__file__).resolve().parents[1])
    if setting is not None:
        env["OPENBLAS_NUM_THREADS"] = setting
    argv = [sys.executable, "-c", _THREADS_CHILD, str(tmp_path / "w.csv"), order]
    done = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    code, count, value = json.loads(done.stdout)
    assert (code, value) == (0, env_after)
    if order == "cli-first":  # OpenBLAS runs no more threads than the process may use CPUs
        assert count == min(int(env_after), len(os.sched_getaffinity(0)))


# The manifest config keys each command wrote before its flags came from one table.
_SCENARIO_KEYS = {"r", "theta", "delta", "phi", "s", "trunc", "backend", "workers"}
_CONFIG_KEYS = {
    "fig1a": _SCENARIO_KEYS | {"phis", "s_min", "s_max", "s_step"},
    "fig2a": _SCENARIO_KEYS | {"phis", "s_min", "s_max", "s_step"},
    "fig1b": _SCENARIO_KEYS | {"phis", "r_min", "r_max", "r_step"},
    "fig2b": _SCENARIO_KEYS | {"phis", "r_min", "r_max", "r_step"},
    "fig3": _SCENARIO_KEYS | {"s_values", "r_min", "r_max", "r_step"},
    "wigner": _SCENARIO_KEYS | {"x_min", "x_max", "p_min", "p_max", "grid_step"},
    "audit": _SCENARIO_KEYS | {"r_values", "s_values", "quantities", "wigner_half_width", "wigner_step"},
}
_SMALL_RUNS = {
    "fig1a": ["--s-max", "0.5", "--s-step", "0.25", "--phis", "2"],
    "fig2a": ["--s-max", "0.5", "--s-step", "0.25", "--phis", "2"],
    "fig1b": ["--r-max", "0.5", "--r-step", "0.25", "--phis", "2"],
    "fig2b": ["--r-max", "0.5", "--r-step", "0.25", "--phis", "2", "--backend", "printed"],
    "fig3": ["--r-max", "1", "--r-step", "0.5", "--s-values", "0.5,2"],
    "wigner": ["--x-min", "-1", "--x-max", "1", "--p-min", "0", "--p-max", "1", "--grid-step", "0.5"],
    "audit": ["--r-values", "1", "--s-values", "0.5", "--quantities", "kappa_sq,m_a,wigner", "--wigner-step", "1.5"],
}


class TestCommandTable:
    @pytest.mark.parametrize("command", sorted(_SMALL_RUNS))
    def test_manifest_keys_and_rerun_bytes(self, command, tmp_path, capsys):
        first, again = tmp_path / "first.csv", tmp_path / "again.csv"
        assert run(command, *_SMALL_RUNS[command], "--out", str(first)) == 0
        manifest = load_manifest(str(first) + ".manifest")
        assert manifest["command"] == command
        assert set(manifest["config"]) == _CONFIG_KEYS[command]
        assert isinstance(manifest["config"]["trunc"], int) and isinstance(manifest["config"]["r"], float)
        assert run("rerun", str(first) + ".manifest", "--out", str(again)) == 0
        assert again.read_bytes() == first.read_bytes()

    def test_one_parser_serves_successive_runs(self, tmp_path, capsys):
        assert build_parser() is build_parser()
        first, second = tmp_path / "first.csv", tmp_path / "second.csv"
        assert run("fig1a", "--s-max", "0", "--phis", "2", "--trunc", "64", "--out", str(first)) == 0
        assert run("fig1a", "--s-max", "0", "--out", str(second)) == 0
        config = load_manifest(str(second) + ".manifest")["config"]
        assert config["phis"] == list(DEFAULT_PHIS) and config["trunc"] == 128

    def test_old_fig3_manifest_reruns_to_its_bytes(self, tmp_path):
        config = {
            "backend": "oracle", "delta": 0.5235987755982988, "phi": 2.443460952792061, "r": 1.0,
            "r_max": 1.0, "r_min": 0.5, "r_step": 0.25, "s": 0.5, "s_values": [0.5, 1.0],
            "theta": 0.7853981633974483, "trunc": 128, "workers": 1,
        }
        path = tmp_path / "old.csv.manifest"
        path.write_text(json.dumps({
            "command": "fig3", "config": config, "created": "2026-10-18T08:26:51.331571+00:00",
            "out": "fig3.csv", "tool": "spacsim", "version": "0.1.0",
        }))
        out = tmp_path / "again.csv"
        assert run("rerun", str(path), "--out", str(out)) == 0
        assert out.read_text() == (
            "r,fidelity_s0.5,fidelity_s1.0\n"
            "0.5,0.7101995236562828,0.545219337577729\n"
            "0.75,0.817591365912758,0.7296928241757181\n"
            "1.0,0.8815386857329274,0.8400503612365944\n"
        )

    def test_old_audit_manifest_reruns_like_its_flags(self, tmp_path, capsys):
        config = {
            "backend": "oracle", "delta": 0.5235987755982988, "phi": 2.443460952792061,
            "quantities": ["kappa_sq", "m_a"], "r": 1.0, "r_values": [1.0], "s": 0.5, "s_values": [0.5],
            "theta": 0.7853981633974483, "trunc": 128, "wigner_half_width": 3.0, "wigner_step": 0.75, "workers": 1,
        }
        path = tmp_path / "old.csv.manifest"
        path.write_text(json.dumps({"command": "audit", "config": config, "out": "audit.csv"}))
        again, direct = tmp_path / "again.csv", tmp_path / "direct.csv"
        assert run("rerun", str(path), "--out", str(again)) == 0
        assert run("audit", "--r-values", "1", "--s-values", "0.5", "--quantities", "kappa_sq,m_a", "--out", str(direct)) == 0
        assert again.read_bytes() == direct.read_bytes()
        assert load_manifest(str(again) + ".manifest")["config"] == config


class TestOverflowingAmplitude:
    @pytest.mark.parametrize(
        "argv", [["point", "--s", "1e200"], ["point", "--r", "1e160"], ["fig3", "--s-values", "1e300"]]
    )
    def test_overflow_gives_no_truncation_advice(self, argv, tmp_path, capsys):
        out = tmp_path / "out.csv"
        assert run(*argv, *(["--out", str(out)] if argv[0] != "point" else [])) == 3
        err = capsys.readouterr().err
        assert "numerical failure" in err and "overflows" in err
        assert "truncation dimension" not in err
        assert not out.exists()

    def test_large_amplitude_still_asks_for_a_larger_truncation(self, capsys):
        assert run("point", "--r", "40") == 3
        assert "increase the truncation dimension" in capsys.readouterr().err


class TestGridCaps:
    @pytest.mark.parametrize(
        "argv",
        [
            ["wigner", "--x-min", "0", "--x-max", "1e300", "--grid-step", "1e-10"],
            ["fig1a", "--s-max", "1e300", "--s-step", "1e-10"],
            ["wigner", "--grid-step", "0.001"],
            ["wigner", "--grid-step", "0.001", "--backend", "printed"],
            ["wigner", "--p-min", "1e6", "--p-max", "1e6"],
            ["wigner", "--x-min", "0", "--x-max", "1e-6", "--p-min", "0", "--p-max", "0", "--grid-step", "1e-10"],
            ["audit", "--quantities", "wigner", "--wigner-step", "0.0005"],
        ],
    )
    def test_oversized_grid_is_invalid_input(self, argv, tmp_path, capsys):
        out = tmp_path / "out.csv"
        assert run(*argv, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("spacsim: invalid arguments: ") and err.count("\n") == 1
        assert not out.exists() and not Path(str(out) + ".manifest").exists()


    def test_oversized_sweep_is_refused_before_allocating(self, tmp_path, capsys):
        # 257 angles x 65536 couplings: 16,842,752 rows, about 3.9 GB of columns
        out = tmp_path / "out.csv"
        argv = ["fig1a", "--phis", ",".join(["1.0"] * 257), "--s-max", "4", "--s-step", "6.103608758678569e-05"]
        tracemalloc.start()
        try:
            assert run(*argv, "--out", str(out)) == 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert "257 x 65536 = 16842752 points exceeds the cap of 16777216" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestRangeErrors:
    """A range error from grid flags names them, keeps grid_values' text after the names, and exits 2."""

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["fig1b", "--r-step", "0"], "r_min/r_max/r_step: step must be positive, got 0.0"),
            (["fig1a", "--s-step", "-0.5"], "s_min/s_max/s_step: step must be positive, got -0.5"),
            (["fig1a", "--s-min", "1", "--s-max", "0"], "s_min/s_max/s_step: empty range [1.0, 0.0]"),
            (["fig3", "--r-min", "2", "--r-max", "1"], "r_min/r_max/r_step: empty range [2.0, 1.0]"),
            (["wigner", "--x-min", "1", "--x-max", "0"], "x_min/x_max/grid_step: empty range [1.0, 0.0]"),
            (["wigner", "--p-min", "1", "--p-max", "0"], "p_min/p_max/grid_step: empty range [1.0, 0.0]"),
            (["wigner", "--grid-step", "0"], "x_min/x_max/grid_step: step must be positive, got 0.0"),
            (["audit", "--wigner-step", "0"], "wigner_half_width/wigner_step: step must be positive, got 0.0"),
            (
                ["audit", "--wigner-half-width", "1", "--wigner-step", "0.3"],
                "wigner_half_width/wigner_step: range [-1.0, 1.0] is not a multiple of step 0.3",
            ),
            (
                ["wigner", "--x-min", "1e16", "--x-max", "10000000000000004", "--grid-step", "1", "--p-min", "0", "--p-max", "0"],
                "x_min/x_max/grid_step: range [1e+16, 1.0000000000000004e+16] with step 1.0 "
                "rounds neighbouring points to the same double",
            ),
        ],
    )
    def test_names_the_flags(self, argv, message, tmp_path, capsys):
        out = tmp_path / "never.csv"
        assert run(*argv, "--out", str(out)) == 2
        assert capsys.readouterr().err == f"spacsim: invalid arguments: {message}\n"
        assert list(tmp_path.iterdir()) == []


def test_oracle_wigner_values_beyond_the_bound_are_a_numerical_failure(monkeypatch, tmp_path, capsys):
    """Oracle values above 2/pi exit 3, naming the bound, and leave no CSV or manifest behind."""
    import spacsim.sweeps

    monkeypatch.setattr(spacsim.sweeps, "wigner_grid_values", lambda state, xs, ps: np.full((xs.size, ps.size), 0.7))
    out = tmp_path / "never.csv"
    assert run("wigner", "--grid-step", "0.5", "--out", str(out)) == 3
    assert capsys.readouterr().err == (
        "spacsim: numerical failure: oracle Wigner values violate the 2/pi bound; numerical failure\n"
    )
    assert list(tmp_path.iterdir()) == []


def test_printed_sweep_overflow_names_its_first_failing_row(tmp_path, capsys):
    """At s = 1e62 the printed moments overflow a double; the sweep fails as printed_moments does for that row."""
    out = tmp_path / "never.csv"
    assert run("fig1a", "--backend", "printed", "--s-max", "1e62", "--s-step", "1e62", "--out", str(out)) == 3
    first = FIGURE_PRESET.with_(phi=DEFAULT_PHIS[0], s=1e62)
    message = TestColumnarSweeps.point_failure(printed_moments, first)
    assert capsys.readouterr().err == f"spacsim: numerical failure: {message}\n"
    assert list(tmp_path.iterdir()) == []


class TestUnwritableOut:
    """An --out that cannot be written is invalid input: one line, exit 2, and no file left behind."""

    def assert_cannot_write(self, out: str, capsys) -> None:
        assert run("fig1a", "--s-max", "0", "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"spacsim: invalid arguments: cannot write {out!r}: ") and err.count("\n") == 1

    def test_existing_directory(self, tmp_path, capsys):
        (tmp_path / "out").mkdir()
        self.assert_cannot_write(str(tmp_path / "out"), capsys)
        assert sorted(path.name for path in tmp_path.rglob("*")) == ["out"]

    def test_empty_path(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        self.assert_cannot_write("", capsys)
        assert list(tmp_path.iterdir()) == []

    def test_parent_is_a_file(self, tmp_path, capsys):
        (tmp_path / "file").write_text("kept")
        self.assert_cannot_write(str(tmp_path / "file" / "x.csv"), capsys)
        assert list(tmp_path.iterdir()) == [tmp_path / "file"]
        assert (tmp_path / "file").read_text() == "kept"

    def test_manifest_path_is_a_directory(self, tmp_path, capsys):
        (tmp_path / "x.csv.manifest").mkdir()
        self.assert_cannot_write(str(tmp_path / "x.csv"), capsys)
        assert sorted(path.name for path in tmp_path.rglob("*")) == ["x.csv.manifest"]


def test_output_modes_follow_the_umask(tmp_path):
    out = tmp_path / "out.csv"
    previous = os.umask(0o022)
    try:
        assert run("fig1a", "--s-max", "0", "--out", str(out)) == 0
    finally:
        os.umask(previous)
    assert out.stat().st_mode & 0o777 == 0o644
    assert Path(str(out) + ".manifest").stat().st_mode & 0o777 == 0o644
    assert sorted(path.name for path in tmp_path.iterdir()) == ["out.csv", "out.csv.manifest"]


_AUDIT_HEADER = (
    "quantity,r,theta,delta,phi,s,x,p,oracle_re,oracle_im,printed_re,printed_im,"
    "raw_residual,fitted_scale,scaled_residual\n"
)


@pytest.mark.parametrize(
    "argv, text",
    [
        (["audit", "--r-values="], _AUDIT_HEADER),
        (["audit", "--s-values=", "--quantities", "m_a"], _AUDIT_HEADER),
        (["fig1a", "--phis="], "phi,s,s_os,s_ass,var_x_min,var_y_min,n_mean,fidelity\n"),
        (["fig3", "--s-values=", "--r-max", "0.04"], "r\n0.0\n0.02\n0.04\n"),
    ],
    ids=["audit-no-amplitude", "audit-no-coupling", "fig1a-no-angle", "fig3-no-coupling"],
)
def test_empty_point_set_writes_every_column_name(argv, text, tmp_path):
    """A command with no points still names every column; an audit's manifest then has an empty summary."""
    out = tmp_path / "out.csv"
    assert run(*argv, "--out", str(out)) == 0
    assert out.read_bytes() == text.encode()
    if argv[0] == "audit":
        assert load_manifest(str(out) + ".manifest")["summary"] == {}
        again = tmp_path / "again.csv"
        assert run("rerun", str(out) + ".manifest", "--out", str(again)) == 0
        assert again.read_bytes() == out.read_bytes()
