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
sweep and a Wigner grid with ``--workers`` above 1, the help and
version texts, and three printed-backend overflows.
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
        ["fig1b", "--backend", "printed", "--s", "1e200", "--r-max", "0"],
        ["wigner", "--backend", "printed", "--s", "1e200"],
    ]
    printing = [["--help"], ["--version"], []] + [[name, "--help"] for name in COMMANDS]
    printing.append(["point", "--backend", "printed", "--s", "1e200"])
    return [(argv, True) for argv in writing] + [(argv, False) for argv in printing]


def run_tree(src: Path, workdir: Path) -> list[dict]:
    """Run every case against one tree; one record per case."""
    env = {k: v for k, v in os.environ.items() if k != "SPACS_TRUNC"}
    env["PYTHONPATH"] = str(src)
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
