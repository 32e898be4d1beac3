"""Parameter sweeps behind every figure series.

A sweep walks one scenario parameter (coupling s or amplitude r)
across a uniform grid for several postselection angles and collects a
squeezing report per point.  Rows are emitted in a fixed order
(angle outer, swept parameter inner).  The oracle backend evaluates a
sweep column by column: blocks of points go through
:func:`~spacsim.fock.pointer_columns` at once, and a point whose state
fails the truncation tail check becomes a row error marker while the
sweep carries on.  Any other error propagates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import TruncationTooSmall
from .fock import pointer_columns
from .params import ExperimentParams, validate, weak_value
from .squeezing import SqueezingReport, column_reports, point_report

#: Default grid step for both sweep kinds; smooth curves at O(N) cost per point.
DEFAULT_STEP = 0.02

#: Postselection angles of the figure legends; 7*pi/9 is the emphasised one.
DEFAULT_PHIS = (math.pi / 3, math.pi / 2, 2 * math.pi / 3, 7 * math.pi / 9)

#: Coupling values of the fidelity-versus-amplitude figure.
FIDELITY_COUPLINGS = (0.5, 1.0, 2.0, 3.0)

#: Most points on one grid axis; the largest default axis has 201.  Checked
#: before the count is converted to an int, so an overflowing range is
#: rejected rather than allocated.
MAX_GRID_POINTS = 2**16

#: Complex amplitudes per array in one block of sweep columns; a block holds
#: max(1, BLOCK_ELEMENTS // trunc) points, which bounds memory before allocating.
BLOCK_ELEMENTS = 2**15


@dataclass(frozen=True)
class SweepRow:
    """One sweep point: parameters plus the resulting report."""

    phi: float
    r: float
    s: float
    report: SqueezingReport
    error: str = ""


def grid_values(lo: float, hi: float, step: float) -> np.ndarray:
    """Uniform inclusive grid from lo to hi.

    The count is derived from the step; hi must sit on the grid within
    a small relative tolerance.  Raises ValueError, before allocating,
    for a grid of more than :data:`MAX_GRID_POINTS` points.
    """
    if not all(math.isfinite(v) for v in (lo, hi, step)):
        raise ValueError(f"range [{lo}, {hi}] with step {step} is not finite")
    if step <= 0:
        raise ValueError(f"step must be positive, got {step}")
    if hi < lo:
        raise ValueError(f"empty range [{lo}, {hi}]")
    if not (hi - lo) / step <= MAX_GRID_POINTS - 1:  # also catches an infinite quotient
        raise ValueError(f"range [{lo}, {hi}] with step {step} has more than {MAX_GRID_POINTS} points")
    count = int(round((hi - lo) / step))
    if abs(lo + count * step - hi) > step * 1e-6:
        raise ValueError(f"range [{lo}, {hi}] is not a multiple of step {step}")
    return np.linspace(lo, hi, count + 1)


def _run_rows(points: list[ExperimentParams], backend: str) -> list[SweepRow]:
    """Validate every point, then evaluate them all; points share one truncation."""
    for p in points:
        validate(p)
    if backend == "printed":
        reports = [point_report(p, backend) for p in points]
        errors = [""] * len(points)
    elif backend == "oracle":
        reports, errors = [], []
        dim = points[0].trunc if points else 1
        width = max(1, BLOCK_ELEMENTS // dim)
        for lo in range(0, len(points), width):
            block = points[lo : lo + width]
            cols = pointer_columns(
                [p.alpha for p in block], [p.s for p in block], [weak_value(p.delta, p.phi) for p in block], dim
            )
            reports += column_reports(cols)
            errors += [f"{TruncationTooSmall.__name__}: {e}" if e else "" for e in cols.errors]
    else:
        raise ValueError(f"unknown backend {backend!r}")
    return [
        SweepRow(phi=p.phi, r=p.r, s=p.s, report=report, error=error)
        for p, report, error in zip(points, reports, errors)
    ]


def sweep_s(
    base: ExperimentParams,
    phis: tuple[float, ...] = DEFAULT_PHIS,
    s_range: tuple[float, float, float] = (0.0, 4.0, DEFAULT_STEP),
    backend: str = "oracle",
    workers: int = 1,
) -> list[SweepRow]:
    """Sweep the coupling ratio at fixed amplitude, one curve per angle.

    ``workers`` is accepted, so that old callers and manifests still
    work, and ignored: a block of columns is a handful of array
    operations.
    """
    validate(base)
    lo, hi, step = s_range
    values = grid_values(lo, hi, step)
    points = [base.with_(phi=phi, s=float(s)) for phi in phis for s in values]
    return _run_rows(points, backend)


def sweep_r(
    base: ExperimentParams,
    phis: tuple[float, ...] = DEFAULT_PHIS,
    r_range: tuple[float, float, float] = (0.0, 3.0, DEFAULT_STEP),
    backend: str = "oracle",
) -> list[SweepRow]:
    """Sweep the coherent amplitude at fixed coupling, one curve per angle."""
    validate(base)
    lo, hi, step = r_range
    values = grid_values(lo, hi, step)
    points = [base.with_(phi=phi, r=float(r)) for phi in phis for r in values]
    return _run_rows(points, backend)


def fidelity_table(
    base: ExperimentParams,
    couplings: tuple[float, ...] = FIDELITY_COUPLINGS,
    r_range: tuple[float, float, float] = (0.0, 3.0, DEFAULT_STEP),
    backend: str = "oracle",
) -> tuple[np.ndarray, dict[float, list[SweepRow]]]:
    """Fidelity-to-initial versus amplitude for several couplings.

    Returns the r grid plus one sweep (single angle, taken from
    ``base``) per coupling value.
    """
    validate(base)
    values = grid_values(*r_range)
    table = {}
    for s in couplings:
        table[s] = sweep_r(base.with_(s=s), (base.phi,), r_range, backend)
    return values, table
