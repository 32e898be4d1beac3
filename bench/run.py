"""spacsim benchmark: one seeded workload, measured end to end or traced per layer.

    python3 bench/run.py --workload {sweeps,grids,audit} --seed N --seconds S --trace {0,1}

Run from anywhere; the program is imported from ``src/`` next to this
directory.  Each pass of a workload runs in a fresh workload process
(``child.py``) as a closed loop with one client: the workload's CLI
invocations run back to back through ``spacsim.cli.main(argv)``, all
with ``--workers 1``.  Passes repeat until their processes have taken
about ``--seconds`` seconds.  After each pass's process has exited its
outputs are checked: the first pass's against reference routes
(``check.py``), later passes' for being byte-identical to the first.

With ``--trace 0`` the metrics are the end-to-end ones of
``BENCHMARK.json``, each the median over the run's passes.  With
``--trace 1`` untraced and traced passes alternate and the metrics are
the per-layer ones, medians over the traced passes.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records
the environment.  Details and the reasoning behind the workloads are in
``README.md`` beside this file.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

#: Set-up probes per untraced run, besides the set-up of every pass.
SETUP_PROBES = 4
#: A run stops waiting for workload processes this long after it started.
RUN_LIMIT_S = 170.0

PRESET_THETA = math.pi / 4
PRESET_DELTA = math.pi / 6

# (argv, kind, swept, backend, r, s, trunc, rows, items, drawn) per invocation.
# r, s and trunc are the values the argv selects, for the output check;
# items are sweep rows, grid cells or audit rows.  ``drawn`` names the
# angles that a seed other than 0 draws; the others keep their preset
# value.  The Wigner kernel pads each state to a dimension that depends
# on its angles: over theta the (1, 0.5) panel takes 224 or 256 and the
# (2, 2) panel 288 or 320, and at the preset theta the (1, 0.5) panel
# still takes 224 or 256 by delta, while the (0, 0) and (2, 2) panels
# and all 30 audit states keep theirs.  So grids and audit keep the
# preset theta and the (1, 0.5) panel keeps both angles, which keeps
# the work of a run independent of the seed.
BOTH = ("theta", "delta")
DELTA = ("delta",)
WORKLOADS = {
    "sweeps": (
        (["fig1a"], "sweep", "s", "oracle", 1.0, 0.5, 128, 804, 804, BOTH),
        (["fig1b"], "sweep", "r", "oracle", 1.0, 0.5, 128, 604, 604, BOTH),
        (["fig3"], "fig3", "r", "oracle", 1.0, 0.5, 128, 151, 604, BOTH),
        (["fig2a", "--trunc", "256"], "sweep", "s", "oracle", 1.0, 0.5, 256, 804, 804, BOTH),
        (["fig1b", "--backend", "printed"], "sweep", "r", "printed", 1.0, 0.5, 128, 604, 604, BOTH),
    ),
    "grids": (
        (["wigner", "--r", "0", "--s", "0"], "wigner", None, "oracle", 0.0, 0.0, 128, 40401, 40401, DELTA),
        (["wigner", "--r", "1", "--s", "0.5"], "wigner", None, "oracle", 1.0, 0.5, 128, 40401, 40401, ()),
        (["wigner", "--r", "2", "--s", "2"], "wigner", None, "oracle", 2.0, 2.0, 128, 40401, 40401, DELTA),
        (["wigner", "--r", "2", "--s", "2", "--backend", "printed"], "wigner", None, "printed", 2.0, 2.0, 128, 40401, 40401, DELTA),
    ),
    "audit": (
        (["audit"], "audit", None, "oracle", 1.0, 0.5, 128, 2610, 2610, DELTA),
        (["audit", "--wigner-step", "0.25"], "audit", None, "oracle", 1.0, 0.5, 128, 18930, 18930, DELTA),
    ),
}


def invocations(workload: str, seed: int) -> list[dict]:
    """The workload's invocation specs for one seed.

    Seed 0 keeps the figure-preset angles; any other seed draws each
    angle an invocation names in ``drawn``, theta from [0, 2pi) and
    delta from [0, 2pi].  The amount of work does not depend on the seed.
    """
    rng = random.Random(f"spacsim-bench-{workload}-{seed}")
    specs = []
    for argv, kind, swept, backend, r, s, trunc, rows, items, drawn in WORKLOADS[workload]:
        angles = {"theta": PRESET_THETA, "delta": PRESET_DELTA}
        argv = argv + ["--workers", "1"]
        if seed != 0 and drawn:
            angles.update((name, rng.uniform(0.0, 2 * math.pi)) for name in drawn)
            argv += ["--theta", repr(angles["theta"]), "--delta", repr(angles["delta"])]
        specs.append({
            "argv": argv, "kind": kind, "swept": swept, "backend": backend, "r": r, "s": s,
            "theta": angles["theta"], "delta": angles["delta"], "trunc": trunc, "rows": rows, "items": items,
        })
    return specs


@dataclass
class Pass:
    """One workload process: its measurements and the outcome of each invocation."""

    setup_s: float
    cpu_s: float
    rss_mb: float
    elapsed_s: float
    wall_s: float = math.nan
    items: int = 0
    failures: list[str] = field(default_factory=list)
    result: dict = field(default_factory=dict)


def tally(passes: list[Pass], per_pass: int) -> tuple[int, int]:
    """(attempted, failed) invocations over all passes.

    An invocation fails when it returns a nonzero exit code, raises, or
    fails the output check, and each such invocation has one entry in
    ``Pass.failures``; a pass whose process died fails all of them.
    """
    attempted = per_pass * len(passes)
    failed = sum(len(p.failures) if p.result else per_pass for p in passes)
    return attempted, failed


class Runner:
    """Spawns workload processes inside one scratch directory of the checkout."""

    def __init__(self, workdir: Path, deadline: float):
        self.workdir = workdir
        self.deadline = deadline
        self.count = 0
        # SPACS_TRUNC would change the default truncation that the output check assumes
        self.env = {k: v for k, v in os.environ.items() if k != "SPACS_TRUNC"}
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))

    def spawn(self, job: dict) -> Pass:
        """Run one child process to completion and read its rusage from wait4."""
        index, self.count = self.count, self.count + 1
        result_path = self.workdir / f"child{index}.json"
        err_path = self.workdir / f"child{index}.err"
        argv = [sys.executable, str(HERE / "child.py"), json.dumps({**job, "result": str(result_path)})]
        with open(err_path, "wb") as err:
            start = time.monotonic()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdout=subprocess.DEVNULL, stderr=err)
            timer = threading.Timer(max(1.0, self.deadline - start), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
            elapsed = time.monotonic() - start
        cpu = usage.ru_utime + usage.ru_stime
        if proc.returncode != 0 or not result_path.is_file():
            tail = err_path.read_text(errors="replace")[-2000:]
            return Pass(math.nan, cpu, usage.ru_maxrss / 1024, elapsed, failures=[f"process exited {proc.returncode}: {tail}"])
        result = json.loads(result_path.read_text())
        return Pass(result["ready"] - start, cpu - result["cpu_ready"], usage.ru_maxrss / 1024, elapsed, result=result)


def run_pass(runner: Runner, specs: list[dict], trace: bool, seed: int, first: dict[int, bytes]) -> Pass:
    """One workload process, then the check of every output it wrote.

    The first successful output of each invocation in a run is checked
    against the reference routes and kept in ``first``; the same
    invocation in a later pass must reproduce it byte for byte.
    """
    from check import check_output

    outdir = runner.workdir / f"pass{runner.count}"
    outdir.mkdir()
    argvs = [spec["argv"] + ["--out", str(outdir / f"out{i}.csv")] for i, spec in enumerate(specs)]
    done = runner.spawn({"mode": "workload", "invocations": argvs, "trace": trace})
    if done.result:
        done.wall_s = done.result["wall_s"]
        for i, (spec, record) in enumerate(zip(specs, done.result["invocations"])):
            if record["code"] != 0 or record["error"]:
                done.failures.append(f"{' '.join(record['argv'])}: exit {record['code']} {record['error']}")
                continue
            out = (outdir / f"out{i}.csv").read_bytes()
            if i in first:
                problems = [] if out == first[i] else ["output differs from the first pass of the run"]
            else:
                try:
                    problems = check_output(spec, outdir / f"out{i}.csv", random.Random(f"{seed}-{i}"))
                except Exception as exc:  # a malformed output is a failed invocation, not a crash
                    problems = [f"check raised {type(exc).__name__}: {exc}"]
                if not problems:
                    first[i] = out
            if problems:
                done.failures.append(f"{' '.join(spec['argv'])}: " + "; ".join(problems[:5]))
            else:
                done.items += spec["items"]
    shutil.rmtree(outdir, ignore_errors=True)
    return done


def median(values: list[float]) -> float:
    values = [v for v in values if not math.isnan(v)]
    return statistics.median(values) if values else math.nan


def end_to_end(passes: list[Pass], setups: list[float], attempted: int, failed: int) -> dict[str, float]:
    ok = [p for p in passes if p.result]
    return {
        "wall_s": median([p.wall_s for p in ok]),
        "items_per_s": median([p.items / p.wall_s for p in ok]),
        "cpu_s": median([p.cpu_s for p in ok]),
        "peak_rss_mb": median([p.rss_mb for p in ok]),
        "setup_s": median(setups + [p.setup_s for p in ok]),
        "success_rate": (attempted - failed) / attempted,
    }


def per_layer(result: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass from its spans and counters.

    A metric whose traced name the program does not have is NaN, so
    that a renamed function does not read as a layer that costs
    nothing; a layer that is traced but never called reads 0.
    """
    from spans import layer_totals

    totals = layer_totals(result["spans"])
    counters = result["counters"]
    missing = set(result["missing"])

    def span(name: str, key: str) -> float:
        return math.nan if name in missing else totals.get(name, {}).get(key, 0)

    def own(name: str) -> float:
        return span(name, "self")

    def inclusive(name: str) -> float:
        return span(name, "inclusive")

    def calls(name: str) -> float:
        return span(name, "calls")

    def count(name: str, *sources: str) -> float:
        return math.nan if missing.intersection(sources) else counters.get(name, 0)

    reports = calls("squeezing.point_report")
    gflop = count("wigner.kernel_flop", "wigner.values", "wigner.required_dim") / 1e9
    values_s = own("wigner.values")
    return {
        "fock.spacs_s": own("fock.spacs"),
        "fock.spacs_calls": calls("fock.spacs"),
        "fock.displace_s": own("fock.displace"),
        "fock.displace_calls": calls("fock.displace"),
        "fock.final_pointer_state_s": own("fock.final_pointer_state"),
        "fock.moments_s": own("fock.moments"),
        "fock.fidelity_s": own("fock.fidelity"),
        "fock.eigh_hits": count("fock.eigh_hits", "fock.eigh_cache"),
        "fock.eigh_misses": count("fock.eigh_misses", "fock.eigh_cache"),
        "squeezing.point_report_calls": reports,
        "squeezing.point_report_us": 1e6 * inclusive("squeezing.point_report") / reports if reports else 0.0,
        "sweeps.sweep_s": inclusive("sweeps.sweep"),
        "sweeps.self_s": own("sweeps.sweep"),
        "sweeps.rows": count("sweeps.rows", "sweeps.sweep"),
        "sweeps.failed_rows": count("sweeps.failed_rows", "sweeps.sweep"),
        "wigner.grid_s": own("wigner.grid"),
        "wigner.values_s": values_s,
        "wigner.points": count("wigner.points", "wigner.values"),
        "wigner.padded_dim_max": count("wigner.padded_dim_max", "wigner.required_dim"),
        "wigner.kernel_gflop_computed": gflop,
        "wigner.kernel_mb_computed": count("wigner.kernel_bytes", "wigner.values", "wigner.required_dim") / 1e6,
        "wigner.gflop_per_s": gflop / values_s if values_s else 0.0,
        "printed.moments_s": own("printed.moments"),
        "printed.wigner_s": own("printed.wigner"),
        "printed.wigner_calls": calls("printed.wigner"),
        "printed.wigner_values_s": own("printed.wigner_values"),
        "io.write_csv_s": own("io.write_csv"),
        "io.grid_rows_s": own("io.grid_rows"),
        "io.write_manifest_s": own("io.write_manifest"),
        "io.csv_bytes": count("io.csv_bytes", "io.write_csv"),
        "audit.compare_s": inclusive("audit.compare"),
        "audit.self_s": own("audit.compare"),
        "audit.rows": count("audit.rows", "audit.compare"),
        "cli.main_s": inclusive("cli.main"),
        "cli.self_s": own("cli.main"),
        "parallel.run_ordered_calls": count("parallel.run_ordered_calls", "parallel.run_ordered"),
        "parallel.chunks": count("parallel.chunks", "parallel.run_ordered"),
    }


def measure(workload: str, seed: int, seconds: float, trace: bool, workdir: Path) -> tuple[dict, int, int]:
    """Run the workload for ``seconds``; return (metrics, attempted, failed)."""
    specs = invocations(workload, seed)
    runner = Runner(workdir, time.monotonic() + RUN_LIMIT_S)
    runner.spawn({"mode": "workload", "invocations": []})  # writes bytecode caches, warms the file cache
    setups = [] if trace else [runner.spawn({"mode": "workload", "invocations": []}).setup_s for _ in range(SETUP_PROBES)]
    plain: list[Pass] = []
    traced: list[Pass] = []
    first: dict[int, bytes] = {}
    spent = last = 0.0
    # another pass starts while it is expected to end less than half a pass after `seconds`
    while spent + last / 2 < seconds or not plain or (trace and not traced):
        traced_turn = trace and len(traced) < len(plain)
        done = run_pass(runner, specs, traced_turn, seed, first)
        (traced if traced_turn else plain).append(done)
        last = done.elapsed_s
        spent += last
        if not done.result or time.monotonic() > runner.deadline:
            break
    attempted, failed = tally(plain + traced, len(specs))
    for p in plain + traced:
        for failure in p.failures:
            print(f"run.py: failed: {failure}", file=sys.stderr)
    if not trace:
        return end_to_end(plain, setups, attempted, failed), attempted, failed
    layers = [per_layer(p.result) for p in traced if p.result]
    metrics = {name: median([float(m[name]) for m in layers]) for name in (layers[0] if layers else {})}
    probe = runner.spawn({"mode": "speedup"})
    metrics["parallel.speedup_w2"] = probe.result.get("speedup_w2", math.nan)
    metrics["trace.overhead_s"] = median([p.wall_s for p in traced]) - median([p.wall_s for p in plain])
    return metrics, attempted, failed


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        commit = subprocess.run(
            ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    cpu_model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads(np),
        "blas_threads_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS") if k in os.environ},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "commit": commit,
        "seed": seed,
    }


def blas_threads(np) -> int | None:
    """Thread count reported by numpy's bundled OpenBLAS, if it can be asked."""
    import ctypes

    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libdir.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def finite_or_none(value: float) -> float | None:
    """Keep the result line valid JSON when a metric could not be measured."""
    return None if math.isnan(value) else value


def declared_metrics(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "spacsim" / "cli.py").is_file():
        print(f"run.py: no spacsim sources in {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    units = declared_metrics(bool(args.trace))
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK))
    try:
        metrics, attempted, failed = measure(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    print("env " + json.dumps(environment(args.seed), sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": finite_or_none(metrics.get(name, math.nan)), "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
