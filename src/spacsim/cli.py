"""Command-line front end.

Eight subcommands cover the standard outputs: the five figure series
as CSV sweeps (fig1a fig1b fig2a fig2b fig3), phase-space grids
(wigner), the printed-formula audit (audit) and single-point reports
(point).  Every file-producing command writes its CSV atomically and
drops a ``<out>.manifest`` sidecar from which the run can be repeated
byte-identically.

One table, :data:`COMMANDS`, holds each command's help, its own flags
as ``(flag, type, default, help)`` tuples, whether it writes ``--out``
and a runner; the parser, the manifest and ``rerun`` follow from it.
The manifest ``config`` is every parsed flag except ``command`` and
``out``, with ``--trunc`` resolved, and ``rerun`` turns it back into
flags with :func:`spacsim.io.manifest_argv`.

Exit codes: 0 success, 2 invalid arguments or parameters (a
``--backend`` not in :data:`spacsim.sweeps.ROUTES` too), or an ``--out``
that cannot be written (then neither the CSV nor its manifest is left
behind), 3 numerical failure (the message names the failing row or point).

Importing this module sets ``OPENBLAS_NUM_THREADS=1`` when the variable
is unset and numpy is not yet loaded, so a CLI process runs one BLAS
thread; ``import spacsim`` alone sets nothing.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import asdict
from typing import Callable, NamedTuple, Sequence

# No command calls BLAS, and each idle OpenBLAS worker spins for about
# 0.1 s of CPU after numpy loads, so a CLI process starts one BLAS thread.
# Only before numpy loads: an explicit count wins, and a process that
# imported numpy first keeps its threads and its environment.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np
from numpy.linalg import LinAlgError

from . import __version__
from .audit import (
    ALL_QUANTITIES,
    DEFAULT_R_VALUES,
    DEFAULT_S_VALUES,
    DEFAULT_WIGNER_HALF_WIDTH,
    DEFAULT_WIGNER_STEP,
    audit_columns,
    csv_columns,
    default_audit_grid,
)
from .errors import RangeError, SpacsimError
from .io import WignerGrid, load_manifest, manifest_argv, write_columns, write_manifest
from .params import DEFAULT_TRUNC, FIGURE_PRESET, ExperimentParams, check_fields, grid_values, validate
from .squeezing import point_report
from .sweeps import DEFAULT_PHIS, DEFAULT_STEP, FIDELITY_COUPLINGS, ROUTES, SweepColumns, fidelity_columns, sweep_columns

#: Each report field a sweep writes, in column order, and its CSV column name; only the fidelity is renamed.
REPORT_COLUMNS = {field: field for field in ("s_os", "s_ass", "var_x_min", "var_y_min", "n_mean")} | {"fidelity_to_initial": "fidelity"}


def _floats(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated floats, got {text!r}") from exc


# A flag is (flag, type, default, help); a tuple in the type slot is the flag's choices.
SCENARIO_FLAGS = (
    ("--r", float, FIGURE_PRESET.r, "coherent amplitude modulus"),
    ("--theta", float, FIGURE_PRESET.theta, "coherent amplitude phase"),
    ("--delta", float, FIGURE_PRESET.delta, "preselection relative phase"),
    ("--phi", float, FIGURE_PRESET.phi, "preselection polar angle, in [0, pi)"),
    ("--s", float, FIGURE_PRESET.s, "coupling ratio g0/sigma"),
    ("--trunc", int, None, f"Fock truncation dimension (default: SPACS_TRUNC or {DEFAULT_TRUNC})"),
)
SCENARIO_FIELDS = tuple(flag[2:] for flag, *_ in SCENARIO_FLAGS)  # the ExperimentParams fields
RUN_FLAGS = (
    ("--backend", tuple(ROUTES), "oracle", None),
    ("--workers", int, 1, "accepted so that old manifests rerun; ignored by every command"),
)


def _range_flags(name: str, lo: float, hi: float, step: float | None = DEFAULT_STEP) -> tuple:
    """``--<name>-min`` and ``--<name>-max`` flags, and ``--<name>-step`` unless step is None."""
    ends = {"min": lo, "max": hi, "step": step}
    return tuple((f"--{name}-{end}", float, value, None) for end, value in ends.items() if value is not None)


def _range(args: argparse.Namespace, name: str, step: str = "") -> np.ndarray:
    """The grid of ``--<name>-min``, ``--<name>-max`` and the ``step`` flag (default ``--<name>-step``); an error names all three."""
    flags = (f"{name}_min", f"{name}_max", step or f"{name}_step")
    try:
        return grid_values(*(getattr(args, flag) for flag in flags))
    except ValueError as exc:
        raise RangeError("/".join(flags), str(exc)) from exc


class Output(NamedTuple):
    """What a runner produced: CSV columns as (name, values) pairs (a name may repeat), manifest summary, stdout lines."""

    columns: Sequence[tuple[str, Sequence]] = ()
    summary: dict | None = None
    lines: Sequence[str] = ()


class Command(NamedTuple):
    help: str
    run: Callable[[argparse.Namespace, ExperimentParams], Output]
    flags: tuple = ()
    out: bool = True
    epilog: str | None = None


def _fail_on_row_errors(*sweeps: SweepColumns) -> None:
    for sweep in sweeps:
        for j, error in enumerate(sweep.errors):
            if error:
                raise SpacsimError(f"row phi={sweep.phi[j].item()} r={sweep.r[j].item()} s={sweep.s[j].item()} failed: {error}")


def _run_sweep(args: argparse.Namespace, params: ExperimentParams) -> Output:
    """fig1a/fig2a sweep the coupling and fig1b/fig2b the amplitude; the range flags say which."""
    swept = "s" if hasattr(args, "s_min") else "r"
    for phi in args.phis:
        check_fields(phi=float(phi))
    sweep = sweep_columns(params, swept, _range(args, swept), args.phis, args.backend)
    _fail_on_row_errors(sweep)
    report = [(name, getattr(sweep.report, field)) for field, name in REPORT_COLUMNS.items()]
    return Output([("phi", sweep.phi), (swept, getattr(sweep, swept)), *report])


def _run_fig3(args: argparse.Namespace, params: ExperimentParams) -> Output:
    for s in args.s_values:
        check_fields(s=float(s))
    r_grid = _range(args, "r")
    sweeps = fidelity_columns(params, args.s_values, r_grid, args.backend)
    _fail_on_row_errors(*sweeps)
    fidelities = [(f"fidelity_s{s!r}", sweep.report.fidelity_to_initial) for s, sweep in zip(args.s_values, sweeps)]
    return Output([("r", r_grid), *fidelities])


def _run_wigner(args: argparse.Namespace, params: ExperimentParams) -> Output:
    xs, ps = _range(args, "x", "grid_step"), _range(args, "p", "grid_step")
    route = ROUTES[args.backend]
    values = route.wigner(params, xs, ps)
    grid = WignerGrid(float(xs[0]), float(xs[-1]), float(ps[0]), float(ps[-1]), args.grid_step, values)
    if route.bounded and not grid.within_bounds():
        raise SpacsimError(f"{args.backend} Wigner values violate the 2/pi bound; numerical failure")
    return Output(list(zip(("x", "p", "w"), grid.columns())))


def _run_audit(args: argparse.Namespace, params: ExperimentParams) -> Output:
    grid = default_audit_grid(params, tuple(args.r_values), tuple(args.s_values))
    results = audit_columns(grid, tuple(args.quantities), args.wigner_half_width, args.wigner_step)
    summaries = [c.summary() for c in results]
    lines = [
        f"quantity={s.quantity} scale={s.scale!r} max_scaled_residual={s.max_scaled_residual!r} "
        f"max_raw_residual={s.max_raw_residual!r} points={s.n_points}"
        for s in summaries
    ]
    summary = {s.quantity: {k: v for k, v in asdict(s).items() if k != "quantity"} for s in summaries}
    return Output(csv_columns(results), summary, lines)


def _run_point(args: argparse.Namespace, params: ExperimentParams) -> Output:
    report = point_report(params, args.backend)
    lines = [f"{key}={getattr(params, key)!r}" for key in SCENARIO_FIELDS]
    lines.append(f"backend={args.backend}")
    lines += [f"{field}={getattr(report, field)!r}" for field in REPORT_COLUMNS]
    return Output(lines=lines)


_PHIS = ("--phis", _floats, DEFAULT_PHIS, "comma-separated postselection angles, one curve each")

COMMANDS = {
    "fig1a": Command("ordinary squeezing witness versus coupling", _run_sweep, (_PHIS, *_range_flags("s", 0.0, 4.0))),
    "fig2a": Command("amplitude-squared squeezing witness versus coupling", _run_sweep, (_PHIS, *_range_flags("s", 0.0, 4.0))),
    "fig1b": Command("ordinary squeezing witness versus amplitude", _run_sweep, (_PHIS, *_range_flags("r", 0.0, 3.0))),
    "fig2b": Command("amplitude-squared squeezing witness versus amplitude", _run_sweep, (_PHIS, *_range_flags("r", 0.0, 3.0))),
    "fig3": Command(
        "fidelity to the initial state versus amplitude, one column per coupling",
        _run_fig3,
        (("--s-values", _floats, FIDELITY_COUPLINGS, "comma-separated couplings, one fidelity column each"), *_range_flags("r", 0.0, 3.0)),
    ),
    "wigner": Command(
        "Wigner function on a phase-space grid",
        _run_wigner,
        (*_range_flags("x", -4.0, 4.0, None), *_range_flags("p", -4.0, 4.0, None), ("--grid-step", float, 0.04, None)),
        epilog="The nine standard panels are r in {0,1,2} crossed with s in {0,0.5,2}.",
    ),
    "audit": Command(
        "compare the printed closed forms against the oracle",
        _run_audit,
        (
            ("--r-values", _floats, DEFAULT_R_VALUES, None),
            ("--s-values", _floats, DEFAULT_S_VALUES, None),
            ("--quantities", lambda text: text.split(","), ALL_QUANTITIES, f"comma-separated subset of {','.join(ALL_QUANTITIES)}"),
            ("--wigner-half-width", float, DEFAULT_WIGNER_HALF_WIDTH, None),
            ("--wigner-step", float, DEFAULT_WIGNER_STEP, None),
        ),
    ),
    "point": Command("squeezing report for a single parameter point", _run_point, out=False),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser for every command, built once per process (nine subparsers take milliseconds)."""
    parser = argparse.ArgumentParser(
        prog="spacsim",
        description="Postselected von Neumann measurement on photon-added coherent states.",
    )
    parser.add_argument("--version", action="version", version=f"spacsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help, epilog=command.epilog)
        for flag, kind, default, text in SCENARIO_FLAGS + command.flags + RUN_FLAGS:
            typed = {"choices": kind} if isinstance(kind, tuple) else {"type": kind}
            p.add_argument(flag, default=default, help=text, **typed)
        if command.out:
            p.add_argument("--out", required=True, help="output CSV path")

    p = sub.add_parser("rerun", help="repeat a finished run from its manifest sidecar")
    p.add_argument("manifest")
    p.add_argument("--out", default=None, help="redirect the reproduced output")
    return parser


def _run(args: argparse.Namespace) -> int:
    command = COMMANDS[args.command]
    if args.trunc is None:
        text = os.environ.get("SPACS_TRUNC") or str(DEFAULT_TRUNC)
        try:
            args.trunc = int(text)
        except ValueError:
            raise RangeError("trunc", f"SPACS_TRUNC must be a decimal integer, got {text!r}") from None
    params = validate(ExperimentParams(**{name: getattr(args, name) for name in SCENARIO_FIELDS}))
    output = command.run(args, params)
    if command.out:
        config = {key: value for key, value in vars(args).items() if key not in ("command", "out")}
        try:
            write_columns(args.out, [name for name, _ in output.columns], [values for _, values in output.columns])
            try:
                write_manifest(args.out, args.command, config, __version__, summary=output.summary)
            except OSError:
                os.unlink(args.out)  # no CSV without its manifest
                raise
        except OSError as exc:
            where = exc.filename2 or exc.filename  # the path the system refused, if it names one
            reason = exc.strerror or str(exc)
            raise ValueError(f"cannot write {args.out!r}: {reason}" + (f": {where}" if where else "")) from exc
    for line in output.lines:
        print(line)
    return 0


def _rerun_argv(args: argparse.Namespace) -> list[str]:
    try:
        return manifest_argv(load_manifest(args.manifest), out_override=args.out)
    except OSError as exc:
        raise ValueError(f"manifest {args.manifest}: cannot read it: {exc.strerror or exc}") from exc
    except KeyError as exc:
        raise ValueError(f"manifest {args.manifest}: missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ValueError(f"manifest {args.manifest}: not a spacsim manifest: {exc}") from exc


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return main(_rerun_argv(args)) if args.command == "rerun" else _run(args)
    except (ValueError, SpacsimError) as exc:
        # a ValueError is invalid input, except LinAlgError, which subclasses it
        if isinstance(exc, ValueError) and not isinstance(exc, LinAlgError):
            print(f"spacsim: invalid arguments: {exc}", file=sys.stderr)
            return 2
        print(f"spacsim: numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
