"""Compare what two spacsim source trees write for a fixed list of invocations.

    python3 tools/compare_outputs.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are directories that contain the ``spacsim``
package (the ``src`` directory of a checkout).  Each invocation runs as
``python -m spacsim.cli ...`` in a fresh process per tree, in a scratch
directory per tree, with ``SPACS_TRUNC`` unset.  The script
compares the CSV bytes, the manifest (apart from ``created`` and
``out``), stdout, stderr and the exit code, prints one line per
invocation and exits 1 if any invocation differs.  Where a CSV or
stdout differs, the line also gives how many numeric fields differ and
the largest |new - old| / max(1, |old|) among them.  Standard library
only.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: A directory made in each scratch directory before the runs, for an unwritable --out.
EXISTING_DIR = "existing-dir"
#: What separates the fields of a CSV line and of the ``name=value`` lines on stdout.
FIELD_SEPARATOR = re.compile(rb"[,=\s]+")
COMMANDS = ("fig1a", "fig1b", "fig2a", "fig2b", "fig3", "wigner", "audit", "point", "rerun")
#: Most values of a comma-separated argument that a report line shows in full.
SHOWN_VALUES = 8


def _spaced(count: int, denominator: int) -> str:
    """``count`` comma-separated values k / denominator, k = 0, 1, ..."""
    return ",".join(str(k / denominator) for k in range(count))


def _benchmark_argvs() -> list[list[str]]:
    sys.path.insert(0, str(ROOT / "bench"))
    from run import WORKLOADS, invocations

    return [spec["argv"] for workload in WORKLOADS for spec in invocations(workload, 0)]


def cases() -> list[tuple[list[str], bool]]:
    """(argv, writes --out) per invocation, in run order."""
    # the benchmark's invocations: bench/run.py at seed 0, so at the preset angles
    writing = _benchmark_argvs() + [
        ["fig2b"],
        # the printed far-field Wigner panel
        ["wigner", "--backend", "printed", "--s", "4", "--x-min", "100", "--x-max", "101",
         "--p-min", "0", "--p-max", "0", "--grid-step", "1"],
        # an audit subset at other angles
        ["audit", "--quantities", "wigner,kappa_sq,m_a", "--theta", "0.3", "--delta", "5.1"],
        # rerun of the first manifest
        ["rerun", "out0.csv.manifest"],
        # a sweep and a Wigner grid with --workers above 1
        ["fig1a", "--workers", "4"],
        ["wigner", "--grid-step", "0.1", "--workers", "3"],
        # printed-backend sweeps of every kind
        ["fig1a", "--backend", "printed"],
        ["fig3", "--backend", "printed"],
        ["fig2b", "--backend", "printed", "--theta", "2.5"],
        # an oracle sweep at other angles
        ["fig1b", "--theta", "5.9", "--delta", "1.1"],
        # two printed-backend overflows
        ["fig1b", "--backend", "printed", "--s", "1e200", "--r-max", "0"],
        ["wigner", "--backend", "printed", "--s", "1e200"],
        # an overflow part way along a printed sweep
        ["fig1b", "--backend", "printed", "--r-max", "1e200", "--r-step", "1e198"],
        # a negative swept value
        ["fig1a", "--s-min", "-1"],
        # a truncation too small for some rows
        ["fig1b", "--trunc", "8"],
        # a 267 x 267 Wigner grid whose axis values have long texts
        ["wigner", "--grid-step", "0.03", "--x-min", "-3.99", "--x-max", "3.99", "--p-min", "-3.99", "--p-max", "3.99"],
        # a 97 x 97 far panel: fixed and scientific texts, 770 of them with three-digit exponents
        ["wigner", "--x-min", "-12", "--x-max", "12", "--p-min", "-12", "--p-max", "12", "--grid-step", "0.25"],
        # a large-truncation sweep with values above 100
        ["fig1b", "--r-max", "30", "--trunc", "2048"],
        # a fine audit grid
        ["audit", "--wigner-step", "0.1"],
        # a printed coupling sweep whose fidelity column is all nan
        ["fig2a", "--backend", "printed", "--phis", "0.3,2.9"],
        # at s = 1e62 a complex product in the printed moments overflows a double
        ["fig1a", "--backend", "printed", "--s-max", "1e62", "--s-step", "1e62"],
        # a Wigner grid with a single x value
        ["wigner", "--x-min", "0.5", "--x-max", "0.5"],
        # blocks of max(1, 32768 // trunc) points: 73-point blocks with a last block of one row
        ["fig1a", "--trunc", "448"],
        # one-point blocks
        ["fig1b", "--trunc", "16385", "--r-max", "0.1"],
        # three-point blocks that split a value's angles
        ["fig1a", "--trunc", "10923", "--s-max", "0.04", "--phis", "0.3,0.6"],
        # a single coupling value at four angles
        ["fig1a", "--s-max", "0"],
        # a repeated angle
        ["fig1a", "--phis", "1.0,1.0,2.0"],
        # a p range not symmetric about 0: the grid route's fold onto the distinct |p| finds no mirror for most p
        ["wigner", "--r", "1", "--s", "2", "--p-min", "-1.0", "--p-max", "3.0", "--x-min", "-2.0", "--x-max", "2.0"],
        # 4,096 rows; s = 4.00064e51 passes the first coupling that overflows (about 4.0006367e51), so the error names the last row
        ["fig1a", "--backend", "printed", "--phis", "1.0", "--s-max", "4.00064e51", "--s-step", "9.76957264957265e+47"],
        # 30 states at truncation 4096 take four blocks of eight
        ["audit", "--trunc", "4096", "--wigner-step", "1.5"],
        # the states at r = 12 fail the truncation tail check
        ["audit", "--r-values", "0,12"],
        # three range errors, each of which must name its flags: an empty x range, a zero step, a misaligned half width
        ["wigner", "--x-min", "1", "--x-max", "0"],
        ["fig1b", "--r-step", "0"],
        ["audit", "--wigner-half-width", "1", "--wigner-step", "0.3"],
        # a (10, 0) panel at truncation 512: the Hermite recurrence's frame passes its rescale ceiling
        ["wigner", "--r", "10", "--s", "0", "--trunc", "512", "--x-min", "0", "--x-max", "14",
         "--p-min", "0", "--p-max", "14", "--grid-step", "0.5"],
        # at x = 1e170, u^2 overflows a double and every value is 0
        ["wigner", "--x-min", "1e170", "--x-max", "1e170", "--p-min", "0", "--p-max", "1", "--grid-step", "0.5"],
        # a grid that repeats points builds each beside its twins yet writes its rows in grid order
        ["audit", "--r-values", "1,0.5,1", "--s-values", "0.5,2,0.5"],
        # a printed panel at x = 1e155: |2z - alpha|^2 would overflow a double, and every value is 0
        ["wigner", "--backend", "printed", "--x-min=1e155", "--x-max=1e155", "--p-min", "0", "--p-max", "1",
         "--grid-step", "0.5"],
        # each state's one Wigner point takes the grid route's lone-x plan
        ["audit", "--wigner-half-width", "0"],
        # a lone-x panel of a state with a wide Fock support
        ["wigner", "--r", "2", "--s", "2", "--x-min", "0", "--x-max", "0"],
        # a lone x whose 4|p| overflows a double must fail the size check
        ["wigner", "--x-min", "0", "--x-max", "0", "--p-min", "1e308", "--p-max", "1e308"],
        # an all-zero oracle, whose fitted scale is 1.0
        ["audit", "--r-values", "0", "--s-values", "0", "--quantities", "m_a"],
        # a bad coupling and a bad range, so stderr shows which is checked first
        ["fig3", "--s-values", "nan", "--r-step", "0"],
        # the Wigner comparison alone, and beside kappa^2 without the printed moments
        ["audit", "--quantities", "wigner"],
        ["audit", "--quantities", "kappa_sq,wigner"],
        # a step of one below the ulp of 1e16: linspace would write points twice, so the grid is rejected
        ["wigner", "--x-min", "1e16", "--x-max", "10000000000000004", "--grid-step", "1", "--p-min", "0", "--p-max", "0"],
        # empty point sets: every column is named and none has a row
        ["audit", "--r-values="],
        ["audit", "--s-values=", "--quantities", "m_a"],
        ["fig1a", "--phis="],
        ["fig3", "--s-values="],
        # one refusal per size rule, each before anything is allocated: a sweep of 257 x 65,536 rows,
        # a fidelity table of 257 x 65,536 rows, an audit grid of 4,097 x 4,097 points, a Wigner
        # array of 64,001 x 64,001 elements on each route, and audit Wigner arrays of 30 x 6,001^2
        ["fig1a", "--phis", _spaced(257, 100), "--s-step", "6.103608758678569e-05"],
        ["fig3", "--s-values", _spaced(257, 100), "--r-step", "4.5777065690089265e-05"],
        ["audit", "--r-values", _spaced(4097, 1000), "--s-values", _spaced(4097, 1000)],
        ["wigner", "--grid-step", "0.000125"],
        ["wigner", "--backend", "printed", "--grid-step", "0.000125"],
        ["audit", "--wigner-step", "0.001"],
        # fig3 evaluates all its couplings in one walk, yet still names the first failing row in coupling order:
        # a truncation too small for the first row, a printed overflow at the second coupling, a repeated coupling
        ["fig3", "--trunc", "8"],
        ["fig3", "--backend", "printed", "--s-values", "0.5,1e62,2", "--r-max", "1"],
        ["fig3", "--s-values", "0.5,0.5,2"],
        # blocks built on the levels their points reach (fig1b --r-max 30 --trunc 2048 above takes counts up to 2048):
        # a coupling sweep far below its truncation, an audit whose r = 10 states need most of it, and rows that fail
        # at a truncation that is not a multiple of 16, whose errors name all 100 levels
        ["fig2a", "--s-max", "8", "--trunc", "512"],
        ["audit", "--r-values", "0,5,10", "--s-values", "0,2", "--trunc", "512"],
        ["fig1b", "--r-max", "10", "--trunc", "100"],
    ]
    # the help and version texts
    printing = [["--help"], ["--version"], []] + [[name, "--help"] for name in COMMANDS]
    # a printed point, then printed points whose moments overflow at s = 1e200 and s = 1e62
    printing.append(["point", "--backend", "printed"])
    printing.append(["point", "--backend", "printed", "--s", "1e200"])
    printing.append(["point", "--backend", "printed", "--s", "1e62"])
    # an --out that is an existing directory
    printing.append(["fig1a", "--out", EXISTING_DIR])
    # oracle points: the preset, s = 0 (fidelity exactly 1), r = 40 (fails the tail check), r = s = 1e300 (|alpha|^2 overflows)
    printing += [["point"], ["point", "--s", "0"], ["point", "--r", "40"], ["point", "--r", "1e300", "--s", "1e300"]]
    # routes that are not in the route table: the parser's exit 2 and its choices text
    printing += [["point", "--backend", "exact"], ["wigner", "--backend", "exact"]]
    return [(argv, True) for argv in writing] + [(argv, False) for argv in printing]


def _shown(argv: list[str]) -> str:
    """The command line as a report line gives it: a list of more than SHOWN_VALUES values by its ends and length."""
    words = []
    for word in argv:
        values = word.split(",")
        words.append(f"{values[0]},...,{values[-1]} ({len(values)} values)" if len(values) > SHOWN_VALUES else word)
    return " ".join(words) or "(no arguments)"


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
            "argv": _shown(argv),
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


def _numeric_moves(a: bytes, b: bytes) -> str:
    """How many numeric fields of two texts differ, and by how much at most.

    Lines are paired in order and split into fields; a field counts when
    its texts differ and both parse as floats.  A NaN on one side only
    counts as an infinite move.
    """
    count, worst = 0, 0.0
    for x, y in zip(a.splitlines(), b.splitlines()):
        for u, v in zip(FIELD_SEPARATOR.split(x), FIELD_SEPARATOR.split(y)):
            if u == v:
                continue
            try:
                old, new = float(u), float(v)
            except ValueError:
                continue
            count += 1
            move = abs(new - old) / max(1.0, abs(old))
            if not move <= worst:
                worst = math.inf if math.isnan(move) else move
    return f"{count} numeric fields differ, the largest |new - old| / max(1, |old|) is {worst:.2g}"


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
                found.append(
                    f"{stream} differs from line {_first_line_apart(a, b)} ({len(a)} -> {len(b)} bytes; {_numeric_moves(a, b)})"
                )
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
