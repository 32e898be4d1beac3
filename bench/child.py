"""One workload process of the benchmark.

Run as ``python child.py '<job json>'`` with ``spacsim`` importable.
The first thing it does is import ``spacsim.cli``; the monotonic clock
reading right after that import ends the set-up interval, which the
parent started just before spawning this process.  Then, by ``mode``:

* ``workload``: run each argv of ``invocations`` back to back through
  ``spacsim.cli.main``, timing each, optionally with tracing;
* ``speedup``: time ``wigner_grid_values`` on the figure-preset
  (1, 0.5) panel with one and with two workers.

The result is written as JSON to the job's ``result`` path.
"""

import sys
import time

import spacsim.cli

READY = time.monotonic()

import functools  # noqa: E402  (imports after the set-up clock reading)
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

from spans import Recorder  # noqa: E402

#: (span name, module, attribute path) of every traced public function.
SPANS = (
    ("fock.spacs", "spacsim.fock", "spacs"),
    ("fock.displace", "spacsim.fock", "displace"),
    ("fock.final_pointer_state", "spacsim.fock", "final_pointer_state"),
    ("fock.moments", "spacsim.fock", "moments"),
    ("fock.fidelity", "spacsim.fock", "fidelity"),
    ("squeezing.point_report", "spacsim.squeezing", "point_report"),
    ("sweeps.sweep", "spacsim.sweeps", "sweep_s"),
    ("sweeps.sweep", "spacsim.sweeps", "sweep_r"),
    ("wigner.grid", "spacsim.wigner", "wigner_grid_values"),
    ("wigner.values", "spacsim.wigner", "wigner_values"),
    ("printed.moments", "spacsim.printed", "printed_moments"),
    ("printed.wigner", "spacsim.printed", "printed_wigner"),
    ("printed.wigner_values", "spacsim.printed", "printed_wigner_values"),
    ("io.write_csv", "spacsim.io", "write_csv"),
    ("io.grid_rows", "spacsim.io", "WignerGrid.rows"),
    ("io.write_manifest", "spacsim.io", "write_manifest"),
    ("audit.compare", "spacsim.audit", "compare"),
    ("cli.main", "spacsim.cli", "main"),
)


def cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _resolve(module_name: str, path: str):
    """(owner, attribute name, value) for a dotted path, or None if absent."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
    value = getattr(owner, attr, None)
    return None if value is None else (owner, attr, value)


def _replace_everywhere(owner, attr: str, original, replacement) -> None:
    """Rebind ``original`` to ``replacement`` on its owner and in every spacsim module.

    Modules that did ``from .x import f`` hold their own reference, so
    each one is rebound; a method is rebound on its class.
    """
    setattr(owner, attr, replacement)
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("spacsim"):
            for key in [k for k, v in vars(module).items() if v is original]:
                setattr(module, key, replacement)


def _counting(fn, after):
    @functools.wraps(fn)
    def counted(*args, **kwargs):
        result = fn(*args, **kwargs)
        after(result, args, kwargs)
        return result

    return counted


def install_tracing(rec: Recorder) -> set[str]:
    """Wrap the traced functions and counting hooks of every layer.

    Returns the span and hook names that could not be installed because
    this version of the program does not have the function behind them.
    """
    counters = rec.counters
    last_dim = [0]
    chunk = getattr(importlib.import_module("spacsim.wigner"), "CHUNK", None)

    def sweep_rows(rows, args, kwargs):
        counters["sweeps.rows"] += len(rows)
        counters["sweeps.failed_rows"] += sum(1 for row in rows if getattr(row, "error", ""))

    def kernel_work(values, args, kwargs):
        # two complex matmuls per batch, (d x d) @ (d x n): 8 d^2 n flops each;
        # bytes are those of their operands and results, the d x d factor once per chunk
        points, dim = int(np.size(values)), last_dim[0]
        chunks = math.ceil(points / chunk) if chunk else 1
        counters["wigner.points"] += points
        counters["wigner.kernel_flop"] += 2 * 8 * dim * dim * points
        counters["wigner.kernel_bytes"] += 2 * 16 * (dim * dim * chunks + 2 * dim * points)
        last_dim[0] = 0

    def padded_dim(dim, args, kwargs):
        last_dim[0] = int(dim)
        counters["wigner.padded_dim_max"] = max(counters["wigner.padded_dim_max"], int(dim))

    def csv_bytes(result, args, kwargs):
        counters["io.csv_bytes"] += os.path.getsize(args[0] if args else kwargs["path"])

    def audit_rows(result, args, kwargs):
        counters["audit.rows"] += len(result[0])

    def ordered(parts, args, kwargs):
        counters["parallel.run_ordered_calls"] += 1
        counters["parallel.chunks"] += len(parts)

    after = {
        "sweeps.sweep": sweep_rows,
        "wigner.values": kernel_work,
        "io.write_csv": csv_bytes,
        "audit.compare": audit_rows,
    }
    missing = set()
    for name, module, path in SPANS:
        found = _resolve(module, path)
        if found:
            owner, attr, fn = found
            _replace_everywhere(owner, attr, fn, rec.wrap(name, fn, after.get(name)))
        else:
            missing.add(name)
    for name, module, path, hook in (
        ("wigner.required_dim", "spacsim.wigner", "required_dim", padded_dim),
        ("parallel.run_ordered", "spacsim._parallel", "run_ordered", ordered),
    ):
        found = _resolve(module, path)
        if found:
            owner, attr, fn = found
            _replace_everywhere(owner, attr, fn, _counting(fn, hook))
        else:
            missing.add(name)
    return missing


def _eigh_cache():
    basis = getattr(importlib.import_module("spacsim.fock"), "_displacement_basis", None)
    info = getattr(basis, "cache_info", None)
    return info() if info else None


def run_invocations(invocations: list[list[str]], trace: bool) -> dict:
    rec = Recorder()
    missing = install_tracing(rec) if trace else set()
    before = _eigh_cache()
    records = []
    start = time.perf_counter()
    for argv in invocations:
        t0 = time.perf_counter()
        try:
            code, error = spacsim.cli.main(argv), ""
        except Exception:  # the benchmark counts it as a failed invocation and goes on
            code, error = None, traceback.format_exc(limit=4)
        records.append({"argv": argv, "code": code, "error": error, "seconds": time.perf_counter() - t0})
    wall = time.perf_counter() - start
    out = {"invocations": records, "wall_s": wall}
    if trace:
        after = _eigh_cache()
        if before and after:
            rec.counters["fock.eigh_hits"] = after.hits - before.hits
            rec.counters["fock.eigh_misses"] = after.misses - before.misses
        else:
            missing.add("fock.eigh_cache")
        out["missing"] = sorted(missing)
        out["spans"] = rec.spans
        out["counters"] = dict(rec.counters)
    return out


def speedup_w2() -> float:
    """Time of the figure-preset (1, 0.5) Wigner panel with 1 worker over its time with 2."""
    from spacsim.fock import final_pointer_state
    from spacsim.params import FIGURE_PRESET
    from spacsim.wigner import wigner_grid_values

    state = final_pointer_state(FIGURE_PRESET.with_(r=1.0, s=0.5))
    axis = np.linspace(-4.0, 4.0, 201)
    wigner_grid_values(state, axis[[0, -1]], axis[[0, -1]])  # same padded dimension: fills the eigh cache
    seconds = {1: 0.0, 2: 0.0}
    for workers in (1, 2, 2, 1):
        t0 = time.perf_counter()
        wigner_grid_values(state, axis, axis, workers)
        seconds[workers] += time.perf_counter() - t0
    return seconds[1] / seconds[2]


def main(job: dict) -> None:
    result = {"ready": READY, "cpu_ready": cpu_seconds()}
    if job["mode"] == "workload":
        result.update(run_invocations(job["invocations"], job.get("trace", False)))
    elif job["mode"] == "speedup":
        result["speedup_w2"] = speedup_w2()
    else:
        raise SystemExit(f"unknown mode {job['mode']!r}")
    with open(job["result"], "w", encoding="utf-8") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
