"""Tests of the benchmark harness's own logic.

    python3 -m pytest bench/test_bench.py
"""

import math
import random
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import spacsim.cli  # noqa: E402
from check import check_output, read_csv, sample_rows  # noqa: E402
from run import Pass, Runner, end_to_end, invocations, per_layer, run_pass, tally  # noqa: E402
from spans import Recorder, layer_totals, self_times  # noqa: E402


def test_self_time_subtracts_the_direct_child_spans():
    spans = [
        ["outer", 0.0, 10.0, -1],
        ["child", 1.0, 4.0, 0],
        ["leaf", 2.0, 3.0, 1],
        ["child", 5.0, 7.0, 0],
    ]
    assert self_times(spans) == pytest.approx([5.0, 2.0, 1.0, 2.0])
    totals = layer_totals(spans)
    assert totals["child"] == pytest.approx({"calls": 2, "inclusive": 5.0, "self": 4.0})
    assert totals["outer"]["inclusive"] == pytest.approx(10.0)


def test_recorder_links_nested_calls_to_their_parent():
    ticks = iter(range(100))
    rec = Recorder(clock=lambda: float(next(ticks)))
    inner = rec.wrap("inner", lambda x: x + 1)
    outer = rec.wrap("outer", lambda x: inner(x) * inner(x))
    assert outer(1) == 4
    assert [(name, parent) for name, _, _, parent in rec.spans] == [("outer", -1), ("inner", 0), ("inner", 0)]
    # outer spans ticks 0..5, each inner one tick
    assert self_times(rec.spans) == [3.0, 1.0, 1.0]


def test_error_rate_counts_each_failed_invocation_and_a_dead_process_as_all():
    clean = Pass(0.2, 1.0, 40.0, 2.0, wall_s=2.0, items=100, result={"wall_s": 2.0})
    two_bad = Pass(0.2, 1.0, 40.0, 2.0, wall_s=2.0, items=60, failures=["a", "b"], result={"wall_s": 2.0})
    dead = Pass(math.nan, 0.1, 10.0, 0.1, failures=["process exited 1"])
    attempted, failed = tally([clean, two_bad, dead], per_pass=5)
    assert (attempted, failed) == (15, 7)
    metrics = end_to_end([clean, two_bad, dead], [0.3], attempted, failed)
    assert metrics["success_rate"] == pytest.approx(8 / 15)
    assert metrics["setup_s"] == pytest.approx(0.2)


def small_wigner_spec(argv_extra=(), backend="oracle"):
    return {
        "argv": ["wigner", "--r", "1", "--s", "0.5", "--grid-step", "0.5", "--x-min", "-2", "--x-max", "2",
                 "--p-min", "-2", "--p-max", "2", "--workers", "1", *argv_extra],
        "kind": "wigner", "swept": None, "backend": backend, "r": 1.0, "s": 0.5,
        "theta": math.pi / 4, "delta": math.pi / 6, "trunc": 128, "rows": 81, "items": 81,
    }


def test_nonzero_exit_counts_as_a_failed_invocation(tmp_path):
    good = small_wigner_spec()
    bad = {**small_wigner_spec(), "argv": good["argv"] + ["--r", "-1"]}
    done = run_pass(Runner(tmp_path, deadline=time.monotonic() + 60), [good, bad], trace=False, seed=1, first={})
    assert tally([done], per_pass=2) == (2, 1)
    assert "exit 2" in done.failures[0]


def test_later_pass_must_reproduce_the_first_pass_bytes(tmp_path):
    spec = small_wigner_spec()
    runner = Runner(tmp_path, deadline=time.monotonic() + 60)
    first = {}
    assert run_pass(runner, [spec], trace=False, seed=1, first=first).failures == []
    first[0] = first[0].replace(b"\n", b"\n ", 1)  # as if the first pass had written other bytes
    done = run_pass(runner, [spec], trace=False, seed=1, first=first)
    assert tally([done], per_pass=1) == (1, 1)
    assert "differs from the first pass" in done.failures[0]


@pytest.mark.parametrize("backend", ["oracle", "printed"])
def test_wigner_cell_shifted_by_1e_6_fails_the_check(tmp_path, backend):
    spec = small_wigner_spec(["--backend", backend], backend)
    out = tmp_path / "panel.csv"
    assert spacsim.cli.main(spec["argv"] + ["--out", str(out)]) == 0
    assert check_output(spec, out, random.Random(0)) == []

    header, rows = read_csv(out)
    cell = sample_rows(random.Random(0), len(rows))[0]  # a cell the seeded sample recomputes
    rows[cell][2] = repr(float(rows[cell][2]) + 1e-6)
    out.write_text("\n".join(",".join(row) for row in [header] + rows) + "\n")
    problems = check_output(spec, out, random.Random(0))
    assert len(problems) == 1 and problems[0].startswith(f"cell {cell} ")


def test_sweep_row_shifted_by_1e_6_fails_the_check(tmp_path):
    spec = {
        "argv": ["fig1a", "--s-max", "0.2", "--phis", "1.0,2.0", "--workers", "1"],
        "kind": "sweep", "swept": "s", "backend": "oracle", "r": 1.0, "s": 0.5,
        "theta": math.pi / 4, "delta": math.pi / 6, "trunc": 128, "rows": 22, "items": 22,
    }
    out = tmp_path / "sweep.csv"
    assert spacsim.cli.main(spec["argv"] + ["--out", str(out)]) == 0
    assert check_output(spec, out, random.Random(0)) == []

    header, rows = read_csv(out)
    picked = sample_rows(random.Random(0), len(rows))[0]  # a row the seeded sample recomputes
    rows[picked][6] = repr(float(rows[picked][6]) + 1e-6)  # n_mean
    out.write_text("\n".join(",".join(row) for row in [header] + rows) + "\n")
    problems = check_output(spec, out, random.Random(0))
    assert len(problems) == 1 and problems[0].startswith(f"row {picked} n_mean")


def test_inputs_depend_only_on_the_seed():
    preset = invocations("grids", 0)
    assert [(spec["theta"], spec["delta"]) for spec in preset] == [(math.pi / 4, math.pi / 6)] * 4
    assert not any("--theta" in spec["argv"] for spec in preset)
    drawn = invocations("grids", 7)
    assert drawn == invocations("grids", 7) != invocations("grids", 8)
    # grids keeps the preset theta, and the (1, 0.5) panel keeps both angles
    assert [spec["theta"] for spec in drawn] == [math.pi / 4] * 4
    assert drawn[1] == preset[1]
    for spec in drawn[:1] + drawn[2:]:
        assert 0.0 <= spec["delta"] <= 2 * math.pi and spec["delta"] != math.pi / 6
        assert spec["argv"][-4:] == ["--theta", repr(spec["theta"]), "--delta", repr(spec["delta"])]
    for spec in invocations("sweeps", 7):
        assert 0.0 <= spec["theta"] < 2 * math.pi and spec["theta"] != math.pi / 4
    assert [s["rows"] for s in drawn] == [s["rows"] for s in preset]


def test_every_traced_name_is_installed(tmp_path):
    done = Runner(tmp_path, deadline=time.monotonic() + 60).spawn({"mode": "workload", "invocations": [], "trace": True})
    assert done.result["missing"] == []


def test_layer_metrics_of_a_missing_name_are_nan_and_of_an_uncalled_one_zero():
    layers = per_layer({"spans": [["fock.spacs", 0.0, 2.0, -1]], "counters": {}, "missing": ["wigner.values"]})
    assert layers["fock.spacs_s"] == 2.0 and layers["fock.spacs_calls"] == 1
    assert layers["fock.displace_s"] == 0 and layers["io.csv_bytes"] == 0
    for name in ("wigner.values_s", "wigner.points", "wigner.kernel_gflop_computed", "wigner.gflop_per_s"):
        assert math.isnan(layers[name]), name
