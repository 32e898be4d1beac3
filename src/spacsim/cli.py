"""Command-line front end.

Eight subcommands cover the standard outputs: the five figure series
as CSV sweeps (fig1a fig1b fig2a fig2b fig3), phase-space grids
(wigner), the printed-formula audit (audit) and single-point reports
(point).  Every file-producing command writes its CSV atomically and
drops a ``<out>.manifest`` sidecar from which the run can be repeated
byte-identically.

Exit codes: 0 success, 2 invalid arguments or parameters, 3 numerical
backend failure (the message names the failing row or point).
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from numpy.linalg import LinAlgError

from . import __version__
from .audit import (
    ALL_QUANTITIES,
    CSV_HEADER,
    DEFAULT_R_VALUES,
    DEFAULT_S_VALUES,
    DEFAULT_WIGNER_HALF_WIDTH,
    DEFAULT_WIGNER_STEP,
    audit_columns,
    csv_columns,
    default_audit_grid,
)
from .errors import NonPositiveNorm, SpacsimError, TruncationTooSmall
from .fock import final_pointer_state
from .io import WignerGrid, load_manifest, manifest_argv, write_columns, write_manifest
from .params import DEFAULT_TRUNC, ExperimentParams, validate
from .printed import printed_wigner_values
from .squeezing import point_report
from .sweeps import DEFAULT_PHIS, FIDELITY_COUPLINGS, SweepRow, grid_values, sweep_r, sweep_s
from .wigner import wigner_grid_values

REPORT_COLUMNS = ["s_os", "s_ass", "var_x_min", "var_y_min", "n_mean", "fidelity"]
_REPORT_FIELDS = ["s_os", "s_ass", "var_x_min", "var_y_min", "n_mean", "fidelity_to_initial"]

_PRESET_THETA = math.pi / 4
_PRESET_DELTA = math.pi / 6
_PRESET_PHI = 7 * math.pi / 9


def _floats(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated floats, got {text!r}") from exc


def _default_trunc() -> int:
    raw = os.environ.get("SPACS_TRUNC", "")
    return int(raw) if raw else DEFAULT_TRUNC


def _add_param_flags(parser: argparse.ArgumentParser, r: float, s: float) -> None:
    parser.add_argument("--r", type=float, default=r, help="coherent amplitude modulus")
    parser.add_argument("--theta", type=float, default=_PRESET_THETA, help="coherent amplitude phase")
    parser.add_argument("--delta", type=float, default=_PRESET_DELTA, help="preselection relative phase")
    parser.add_argument("--phi", type=float, default=_PRESET_PHI, help="preselection polar angle, in [0, pi)")
    parser.add_argument("--s", type=float, default=s, help="coupling ratio g0/sigma")
    parser.add_argument("--trunc", type=int, default=None, help="Fock truncation dimension (default: SPACS_TRUNC or 128)")


def _add_common_flags(parser: argparse.ArgumentParser, out_required: bool = True) -> None:
    parser.add_argument("--backend", choices=("oracle", "printed"), default="oracle")
    parser.add_argument("--workers", type=int, default=1, help="accepted so that old manifests rerun; ignored by every command")
    if out_required:
        parser.add_argument("--out", required=True, help="output CSV path")


def _params_from(args: argparse.Namespace) -> ExperimentParams:
    trunc = args.trunc if args.trunc is not None else _default_trunc()
    return validate(
        ExperimentParams(r=args.r, theta=args.theta, delta=args.delta, phi=args.phi, s=args.s, trunc=trunc)
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spacsim",
        description="Postselected von Neumann measurement on photon-added coherent states.",
    )
    parser.add_argument("--version", action="version", version=f"spacsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, swept in (("fig1a", "s"), ("fig2a", "s"), ("fig1b", "r"), ("fig2b", "r")):
        witness = "ordinary" if name.startswith("fig1") else "amplitude-squared"
        p = sub.add_parser(
            name,
            help=f"{witness} squeezing witness versus {'coupling' if swept == 's' else 'amplitude'}",
        )
        _add_param_flags(p, r=1.0, s=0.5)
        p.add_argument("--phis", type=_floats, default=list(DEFAULT_PHIS), help="comma-separated postselection angles, one curve each")
        if swept == "s":
            p.add_argument("--s-min", type=float, default=0.0)
            p.add_argument("--s-max", type=float, default=4.0)
            p.add_argument("--s-step", type=float, default=0.02)
        else:
            p.add_argument("--r-min", type=float, default=0.0)
            p.add_argument("--r-max", type=float, default=3.0)
            p.add_argument("--r-step", type=float, default=0.02)
        _add_common_flags(p)
        p.set_defaults(func=_cmd_fig, swept=swept)

    p = sub.add_parser("fig3", help="fidelity to the initial state versus amplitude, one column per coupling")
    _add_param_flags(p, r=1.0, s=0.5)
    p.add_argument("--s-values", type=_floats, default=list(FIDELITY_COUPLINGS), help="comma-separated couplings, one fidelity column each")
    p.add_argument("--r-min", type=float, default=0.0)
    p.add_argument("--r-max", type=float, default=3.0)
    p.add_argument("--r-step", type=float, default=0.02)
    _add_common_flags(p)
    p.set_defaults(func=_cmd_fig3)

    p = sub.add_parser(
        "wigner",
        help="Wigner function on a phase-space grid",
        epilog="The nine standard panels are r in {0,1,2} crossed with s in {0,0.5,2}.",
    )
    _add_param_flags(p, r=1.0, s=0.5)
    p.add_argument("--x-min", type=float, default=-4.0)
    p.add_argument("--x-max", type=float, default=4.0)
    p.add_argument("--p-min", type=float, default=-4.0)
    p.add_argument("--p-max", type=float, default=4.0)
    p.add_argument("--grid-step", type=float, default=0.04)
    _add_common_flags(p)
    p.set_defaults(func=_cmd_wigner)

    p = sub.add_parser("audit", help="compare the printed closed forms against the oracle")
    _add_param_flags(p, r=1.0, s=0.5)
    p.add_argument("--r-values", type=_floats, default=list(DEFAULT_R_VALUES))
    p.add_argument("--s-values", type=_floats, default=list(DEFAULT_S_VALUES))
    p.add_argument("--quantities", type=lambda t: t.split(","), default=list(ALL_QUANTITIES), help=f"comma-separated subset of {','.join(ALL_QUANTITIES)}")
    p.add_argument("--wigner-half-width", type=float, default=DEFAULT_WIGNER_HALF_WIDTH)
    p.add_argument("--wigner-step", type=float, default=DEFAULT_WIGNER_STEP)
    _add_common_flags(p)
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser("point", help="squeezing report for a single parameter point")
    _add_param_flags(p, r=1.0, s=0.5)
    _add_common_flags(p, out_required=False)
    p.set_defaults(func=_cmd_point)

    p = sub.add_parser("rerun", help="repeat a finished run from its manifest sidecar")
    p.add_argument("manifest")
    p.add_argument("--out", default=None, help="redirect the reproduced output")
    p.set_defaults(func=_cmd_rerun)

    return parser


def _sweep_config(args: argparse.Namespace, swept: str) -> dict:
    config = {
        "r": args.r,
        "theta": args.theta,
        "delta": args.delta,
        "phi": args.phi,
        "s": args.s,
        "trunc": args.trunc if args.trunc is not None else _default_trunc(),
        "backend": args.backend,
        "workers": args.workers,
    }
    if hasattr(args, "phis"):
        config["phis"] = [float(v) for v in args.phis]
    if swept == "s":
        config.update({"s_min": args.s_min, "s_max": args.s_max, "s_step": args.s_step})
    else:
        config.update({"r_min": args.r_min, "r_max": args.r_max, "r_step": args.r_step})
    return config


def _fail_on_row_errors(rows: list[SweepRow]) -> None:
    for row in rows:
        if row.error:
            raise SpacsimError(f"row phi={row.phi} r={row.r} s={row.s} failed: {row.error}")


def _cmd_fig(args: argparse.Namespace) -> int:
    base = _params_from(args)
    for phi in args.phis:
        validate(base.with_(phi=float(phi)))
    if args.swept == "s":
        rows = sweep_s(base, tuple(args.phis), (args.s_min, args.s_max, args.s_step), args.backend, args.workers)
        swept_col = "s"
    else:
        rows = sweep_r(base, tuple(args.phis), (args.r_min, args.r_max, args.r_step), args.backend, args.workers)
        swept_col = "r"
    _fail_on_row_errors(rows)
    header = ["phi", swept_col] + REPORT_COLUMNS
    columns = [[row.phi for row in rows], [getattr(row, swept_col) for row in rows]]
    columns += [[getattr(row.report, name) for row in rows] for name in _REPORT_FIELDS]
    write_columns(args.out, header, columns)
    write_manifest(args.out, args.command, _sweep_config(args, args.swept), __version__)
    return 0


def _cmd_fig3(args: argparse.Namespace) -> int:
    base = _params_from(args)
    r_grid = grid_values(args.r_min, args.r_max, args.r_step)
    columns = {}
    for s in args.s_values:
        rows = sweep_r(base.with_(s=float(s)), (base.phi,), (args.r_min, args.r_max, args.r_step), args.backend, args.workers)
        _fail_on_row_errors(rows)
        columns[s] = [row.report.fidelity_to_initial for row in rows]
    header = ["r"] + [f"fidelity_s{float(s)!r}" for s in args.s_values]
    write_columns(args.out, header, [r_grid] + [columns[s] for s in args.s_values])
    config = _sweep_config(args, "r")
    config["s_values"] = [float(s) for s in args.s_values]
    write_manifest(args.out, "fig3", config, __version__)
    return 0


def _cmd_wigner(args: argparse.Namespace) -> int:
    params = _params_from(args)
    xs = grid_values(args.x_min, args.x_max, args.grid_step)
    ps = grid_values(args.p_min, args.p_max, args.grid_step)
    if args.backend == "oracle":
        state = final_pointer_state(params)
        values = wigner_grid_values(state, xs, ps)
    else:
        values = printed_wigner_values(params, xs[:, None] + 1j * ps[None, :])
    grid = WignerGrid(
        x_min=float(xs[0]), x_max=float(xs[-1]), p_min=float(ps[0]), p_max=float(ps[-1]),
        step=args.grid_step, values=values,
    )
    if args.backend == "oracle" and not grid.within_bounds():
        raise SpacsimError("oracle Wigner values violate the 2/pi bound; numerical failure")
    write_columns(args.out, ["x", "p", "w"], grid.columns())
    config = {
        "r": params.r, "theta": params.theta, "delta": params.delta, "phi": params.phi,
        "s": params.s, "trunc": params.trunc, "backend": args.backend, "workers": args.workers,
        "x_min": args.x_min, "x_max": args.x_max, "p_min": args.p_min, "p_max": args.p_max,
        "grid_step": args.grid_step,
    }
    write_manifest(args.out, "wigner", config, __version__)
    return 0


def _cmd_audit(args: argparse.Namespace) -> int:
    base = _params_from(args)
    grid = default_audit_grid(base, tuple(args.r_values), tuple(args.s_values))
    results = audit_columns(
        grid,
        tuple(args.quantities),
        wigner_half_width=args.wigner_half_width,
        wigner_step=args.wigner_step,
    )
    write_columns(args.out, CSV_HEADER, csv_columns(results))
    summaries = [c.summary() for c in results]
    summary = {
        s.quantity: {
            "scale": s.scale,
            "max_raw_residual": s.max_raw_residual,
            "max_scaled_residual": s.max_scaled_residual,
            "n_points": s.n_points,
        }
        for s in summaries
    }
    config = {
        "r": base.r, "theta": base.theta, "delta": base.delta, "phi": base.phi, "s": base.s,
        "trunc": base.trunc, "backend": args.backend, "workers": args.workers,
        "r_values": [float(v) for v in args.r_values],
        "s_values": [float(v) for v in args.s_values],
        "quantities": list(args.quantities),
        "wigner_half_width": args.wigner_half_width,
        "wigner_step": args.wigner_step,
    }
    write_manifest(args.out, "audit", config, __version__, summary=summary)
    for s in summaries:
        print(
            f"quantity={s.quantity} scale={s.scale!r} "
            f"max_scaled_residual={s.max_scaled_residual!r} "
            f"max_raw_residual={s.max_raw_residual!r} points={s.n_points}"
        )
    return 0


def _cmd_point(args: argparse.Namespace) -> int:
    params = _params_from(args)
    report = point_report(params, args.backend)
    for key in ("r", "theta", "delta", "phi", "s"):
        print(f"{key}={getattr(params, key)!r}")
    print(f"trunc={params.trunc}")
    print(f"backend={args.backend}")
    print(f"s_os={report.s_os!r}")
    print(f"s_ass={report.s_ass!r}")
    print(f"var_x_min={report.var_x_min!r}")
    print(f"var_y_min={report.var_y_min!r}")
    print(f"n_mean={report.n_mean!r}")
    print(f"fidelity_to_initial={report.fidelity_to_initial!r}")
    return 0


def _cmd_rerun(args: argparse.Namespace) -> int:
    try:
        argv = manifest_argv(load_manifest(args.manifest), out_override=args.out)
    except OSError as exc:
        raise ValueError(f"manifest {args.manifest}: cannot read it: {exc.strerror or exc}") from exc
    except KeyError as exc:
        raise ValueError(f"manifest {args.manifest}: missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ValueError(f"manifest {args.manifest}: not a spacsim manifest: {exc}") from exc
    return main(argv)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except (TruncationTooSmall, NonPositiveNorm, LinAlgError) as exc:
        # LinAlgError subclasses ValueError, so it is caught before it
        print(f"spacsim: numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"spacsim: invalid arguments: {exc}", file=sys.stderr)
        return 2
    except SpacsimError as exc:
        print(f"spacsim: numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
