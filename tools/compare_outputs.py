"""Compare what two spacsim source trees write for a fixed list of invocations.

    python3 tools/compare_outputs.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are directories that contain the ``spacsim``
package (the ``src`` directory of a checkout).  Each invocation runs as
``python -m spacsim.cli ...`` in a fresh process per tree, in a scratch
directory per tree, with ``SPACS_TRUNC`` unset.  The script
compares the CSV bytes, the manifest (apart from ``created`` and
``out``), stdout, stderr and the exit code, prints one line per
invocation and exits 1 if any invocation differs.  Standard library
only.

The invocations are the benchmark's (``bench/run.py`` at seed 0, so at
the preset angles), then ``fig2b``, the printed far-field Wigner panel,
an audit subset at other angles, ``rerun`` of the first manifest, a
sweep and a Wigner grid with ``--workers`` above 1, printed-backend
sweeps of every kind and an oracle sweep at other angles, the help and
version texts, a printed point, three printed-backend overflows, an
overflow part way along a printed sweep, a negative swept value and a
truncation too small for some rows.  Then come the rarer layouts of
the CSV number formatter: a 267 x 267 Wigner grid whose axis values
have long texts, a large-truncation sweep with values above 100, a
fine audit grid, and a printed coupling sweep whose fidelity column is
all ``nan``.  Next come a printed sweep and a printed point at
s = 1e62, where a complex product in the printed moments overflows a
double, a Wigner grid with a single x value, and an ``--out`` that is
an existing directory.  Five oracle sweeps probe the edges of the block partition (max(1, 32768 // trunc) points per
block): 73-point blocks with a last block of one row, one-point
blocks, three-point blocks that split a value's angles, a single
coupling value at four angles, and a repeated angle.  A Wigner grid
whose p range is not symmetric about 0 checks the grid route's fold
onto the distinct |p| where most values of p have no mirror.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: A directory made in each scratch directory before the runs, for an unwritable --out.
EXISTING_DIR = "existing-dir"
COMMANDS = ("fig1a", "fig1b", "fig2a", "fig2b", "fig3", "wigner", "audit", "point", "rerun")


def _benchmark_argvs() -> list[list[str]]:
    sys.path.insert(0, str(ROOT / "bench"))
    from run import WORKLOADS, invocations

    return [spec["argv"] for workload in WORKLOADS for spec in invocations(workload, 0)]


def cases() -> list[tuple[list[str], bool]]:
    """(argv, writes --out) per invocation, in run order."""
    writing = _benchmark_argvs() + [
        ["fig2b"],
        ["wigner", "--backend", "printed", "--s", "4", "--x-min", "100", "--x-max", "101",
         "--p-min", "0", "--p-max", "0", "--grid-step", "1"],
        ["audit", "--quantities", "wigner,kappa_sq,m_a", "--theta", "0.3", "--delta", "5.1"],
        ["rerun", "out0.csv.manifest"],
        ["fig1a", "--workers", "4"],
        ["wigner", "--grid-step", "0.1", "--workers", "3"],
        ["fig1a", "--backend", "printed"],
        ["fig3", "--backend", "printed"],
        ["fig2b", "--backend", "printed", "--theta", "2.5"],
        ["fig1b", "--theta", "5.9", "--delta", "1.1"],
        ["fig1b", "--backend", "printed", "--s", "1e200", "--r-max", "0"],
        ["wigner", "--backend", "printed", "--s", "1e200"],
        ["fig1b", "--backend", "printed", "--r-max", "1e200", "--r-step", "1e198"],
        ["fig1a", "--s-min", "-1"],
        ["fig1b", "--trunc", "8"],
        ["wigner", "--grid-step", "0.03", "--x-min", "-3.99", "--x-max", "3.99", "--p-min", "-3.99", "--p-max", "3.99"],
        ["fig1b", "--r-max", "30", "--trunc", "2048"],
        ["audit", "--wigner-step", "0.1"],
        ["fig2a", "--backend", "printed", "--phis", "0.3,2.9"],
        ["fig1a", "--backend", "printed", "--s-max", "1e62", "--s-step", "1e62"],
        ["wigner", "--x-min", "0.5", "--x-max", "0.5"],
        ["fig1a", "--trunc", "448"],
        ["fig1b", "--trunc", "16385", "--r-max", "0.1"],
        ["fig1a", "--trunc", "10923", "--s-max", "0.04", "--phis", "0.3,0.6"],
        ["fig1a", "--s-max", "0"],
        ["fig1a", "--phis", "1.0,1.0,2.0"],
        ["wigner", "--r", "1", "--s", "2", "--p-min", "-1.0", "--p-max", "3.0", "--x-min", "-2.0", "--x-max", "2.0"],
    ]
    printing = [["--help"], ["--version"], []] + [[name, "--help"] for name in COMMANDS]
    printing.append(["point", "--backend", "printed"])
    printing.append(["point", "--backend", "printed", "--s", "1e200"])
    printing.append(["point", "--backend", "printed", "--s", "1e62"])
    printing.append(["fig1a", "--out", EXISTING_DIR])
    return [(argv, True) for argv in writing] + [(argv, False) for argv in printing]


def run_tree(src: Path, workdir: Path) -> list[dict]:
    """Run every case against one tree; one record per case."""
    env = {k: v for k, v in os.environ.items() if k != "SPACS_TRUNC"}
    env["PYTHONPATH"] = str(src)
    (workdir / EXISTING_DIR).mkdir()
    records = []
    for i, (argv, writes) in enumerate(cases()):
        out = workdir / f"out{i}.csv"
        full = argv + (["--out", out.name] if writes else [])
        done = subprocess.run(
            [sys.executable, "-m", "spacsim.cli", *full], cwd=workdir, env=env, capture_output=True, timeout=600
        )
        manifest = Path(str(out) + ".manifest")
        meta = json.loads(manifest.read_text()) if manifest.is_file() else None
        if meta:
            meta = {key: value for key, value in meta.items() if key not in ("created", "out")}
        records.append({
            "argv": " ".join(argv) or "(no arguments)",
            "exit": done.returncode,
            "stdout": done.stdout,
            "stderr": done.stderr,
            "csv": out.read_bytes() if out.is_file() else None,
            "manifest": meta,
        })
    return records


def _first_line_apart(a: bytes, b: bytes) -> int:
    for n, (x, y) in enumerate(zip(a.splitlines(), b.splitlines()), start=1):
        if x != y:
            return n
    return min(a.count(b"\n"), b.count(b"\n")) + 1


def _last_line(text: bytes) -> str:
    lines = text.decode("utf-8", "replace").strip().splitlines()
    return lines[-1] if lines else ""


def differences(old: dict, new: dict) -> list[str]:
    found = []
    if old["exit"] != new["exit"]:
        found.append(f"exit {old['exit']} -> {new['exit']}")
    for stream in ("csv", "stdout"):
        a, b = old[stream], new[stream]
        if a != b:
            if a is None or b is None:
                found.append(f"{stream} {'missing' if b is None else 'written'} on the new tree")
            else:
                found.append(f"{stream} differs from line {_first_line_apart(a, b)} ({len(a)} -> {len(b)} bytes)")
    if old["stderr"] != new["stderr"]:
        found.append(f"stderr {_last_line(old['stderr'])!r} -> {_last_line(new['stderr'])!r}")
    if old["manifest"] != new["manifest"]:
        a, b = old["manifest"] or {}, new["manifest"] or {}
        keys = sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))
        found.append(f"manifest differs in {', '.join(keys)}")
    return found


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_src", type=Path)
    parser.add_argument("new_src", type=Path)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="compare-outputs-") as scratch:
        runs = []
        for name, src in (("old", args.old_src), ("new", args.new_src)):
            workdir = Path(scratch) / name
            workdir.mkdir()
            runs.append(run_tree(src.resolve(), workdir))
    differing = 0
    for old, new in zip(*runs):
        found = differences(old, new)
        differing += bool(found)
        print(f"{'DIFF' if found else 'same'}  {old['argv']}" + (": " + "; ".join(found) if found else ""))
    print(f"{differing} of {len(runs[0])} invocations differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
