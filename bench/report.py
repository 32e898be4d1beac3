"""Run every workload through run.py and print each metric by name and unit.

    python3 bench/report.py                       # one untraced run per workload
    python3 bench/report.py --runs 10 --trace --out FILE
    python3 bench/report.py --runs 10 --first-seed 11 --against FILE

Runs go round-robin over the workloads, one seed per round, with the
run length of BENCHMARK.json.  For each workload and end-to-end metric
the report gives the median, the quartiles of
``statistics.quantiles(values, n=4)`` and their distance as a share of
the median (the spread), next to the metric's bound; ``error_rate`` is
failed over attempted invocations.  ``--trace`` adds one traced run per
workload and prints its per-layer metrics.  ``--out`` writes everything,
with the environment, as JSON; ``--against`` compares the medians with
such a file and marks each metric that is worse by more than its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    """(result, environment) of one run.py invocation."""
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(int(trace))]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"report.py: {' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    sys.stderr.write(proc.stderr)
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), {})
    return json.loads(lines[-1]), env


def summarize(values: list[float]) -> dict:
    out = {"median": statistics.median(values), "n": len(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3, spread=(q3 - q1) / out["median"] if out["median"] else float("inf"))
    return out


def worse_by(new: float, old: float, better: str) -> float:
    """Relative change of a median in the direction that is worse."""
    change = (new - old) / old if old else 0.0
    return -change if better == "higher" else change


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=1, help="untraced runs per workload, one seed each")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", action="store_true", help="add one traced run per workload")
    parser.add_argument("--out", type=Path, help="write all results as JSON")
    parser.add_argument("--against", type=Path, help="compare medians with an earlier --out file")
    args = parser.parse_args(argv)
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    earlier = json.loads(args.against.read_text())["summary"] if args.against else {}

    runs, env = [], {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        for workload in workloads:
            result, env = run_once(workload, seed, seconds, False)
            runs.append({"workload": workload, "seed": seed, "trace": 0, "result": result})
    traced = {}
    if args.trace:
        for workload in workloads:
            result, env = run_once(workload, args.first_seed, seconds, True)
            runs.append({"workload": workload, "seed": args.first_seed, "trace": 1, "result": result})
            traced[workload] = {k: v["value"] for k, v in result["metrics"].items()}

    summary, steady = {}, True
    print(f"{'workload':9} {'metric':14} {'unit':6} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6}  note")
    for workload in workloads:
        mine = [r["result"] for r in runs if r["workload"] == workload and not r["trace"]]
        summary[workload] = {}
        for name, meta in metrics.items():
            stats = summarize([r["metrics"][name]["value"] for r in mine])
            summary[workload][name] = {**stats, "unit": meta["unit"]}
            notes = []
            if stats.get("spread", 0.0) > meta["bound"] / 3 and name != "setup_s":
                notes.append("spread above a third of the bound")
                steady = False
            old = earlier.get(workload, {}).get(name)
            if old:
                change = worse_by(stats["median"], old["median"], meta["better"])
                notes.append(f"worse by {change:+.3f} against {old['median']:.6g}" + (" EXCEEDS BOUND" if change > meta["bound"] else ""))
            print(f"{workload:9} {name:14} {meta['unit']:6} {stats['median']:12.6g} {stats.get('q1', float('nan')):12.6g} "
                  f"{stats.get('q3', float('nan')):12.6g} {stats.get('spread', float('nan')):7.4f} {meta['bound']:6.3f}  {'; '.join(notes)}")
        attempted = sum(r["attempted"] for r in mine)
        failed = sum(r["failed"] for r in mine)
        summary[workload]["error_rate"] = {"median": failed / attempted, "unit": "ratio", "n": len(mine)}
        print(f"{workload:9} {'error_rate':14} {'ratio':6} {failed / attempted:12.6g}  ({failed} of {attempted} invocations failed)")
    for workload, layer in traced.items():
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        print(f"\nper-layer metrics, traced run of {workload} (seed {args.first_seed}):")
        for name, value in layer.items():
            print(f"  {name:30} {float('nan') if value is None else value:16.6g} {units[name]}")
    if args.out:
        env.pop("seed", None)
        payload = {"env": env, "seconds": seconds, "first_seed": args.first_seed, "runs_per_workload": args.runs,
                   "summary": summary, "per_layer": traced, "runs": runs}
        args.out.write_text(json.dumps(payload, indent=1) + "\n")
    if args.runs >= 2:
        print("\nsteady: every spread (setup_s aside) is below a third of its bound" if steady
              else "\nnot steady: see the notes above")
    return 0


if __name__ == "__main__":
    sys.exit(main())
