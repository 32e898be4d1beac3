"""Parameter sweeps behind every figure series.

A sweep walks one scenario parameter (coupling s or amplitude r)
across a uniform grid for several postselection angles and collects a
squeezing report per point.  Rows are emitted in a fixed order
(angle outer, swept parameter inner) and each row is independent, so
evaluation parallelises without changing the output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._parallel import run_ordered
from .params import ExperimentParams, validate
from .squeezing import SqueezingReport, point_report

#: Default grid step for both sweep kinds; smooth curves at O(N) cost per point.
DEFAULT_STEP = 0.02

#: Postselection angles of the figure legends; 7*pi/9 is the emphasised one.
DEFAULT_PHIS = (math.pi / 3, math.pi / 2, 2 * math.pi / 3, 7 * math.pi / 9)

#: Coupling values of the fidelity-versus-amplitude figure.
FIDELITY_COUPLINGS = (0.5, 1.0, 2.0, 3.0)

ROW_CHUNK = 32


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
    a small relative tolerance.
    """
    if not all(math.isfinite(v) for v in (lo, hi, step)):
        raise ValueError(f"range [{lo}, {hi}] with step {step} is not finite")
    if step <= 0:
        raise ValueError(f"step must be positive, got {step}")
    if hi < lo:
        raise ValueError(f"empty range [{lo}, {hi}]")
    count = int(round((hi - lo) / step))
    if abs(lo + count * step - hi) > step * 1e-6:
        raise ValueError(f"range [{lo}, {hi}] is not a multiple of step {step}")
    return np.linspace(lo, hi, count + 1)


def _run_rows(points: list[ExperimentParams], backend: str, workers: int) -> list[SweepRow]:
    def eval_chunk(sl: slice) -> list[SweepRow]:
        rows = []
        for p in points[sl]:
            try:
                report = point_report(p, backend)
                rows.append(SweepRow(phi=p.phi, r=p.r, s=p.s, report=report))
            except Exception as exc:  # row-level marker, sweep carries on
                rows.append(
                    SweepRow(
                        phi=p.phi,
                        r=p.r,
                        s=p.s,
                        report=SqueezingReport(*(math.nan,) * 6),
                        error=f"{type(exc).__name__}: {exc}",
                    )
                )
        return rows

    chunks = run_ordered(eval_chunk, len(points), ROW_CHUNK, workers)
    return [row for chunk in chunks for row in chunk]


def sweep_s(
    base: ExperimentParams,
    phis: tuple[float, ...] = DEFAULT_PHIS,
    s_range: tuple[float, float, float] = (0.0, 4.0, DEFAULT_STEP),
    backend: str = "oracle",
    workers: int = 1,
) -> list[SweepRow]:
    """Sweep the coupling ratio at fixed amplitude, one curve per angle."""
    validate(base)
    lo, hi, step = s_range
    values = grid_values(lo, hi, step)
    points = [base.with_(phi=phi, s=float(s)) for phi in phis for s in values]
    return _run_rows(points, backend, workers)


def sweep_r(
    base: ExperimentParams,
    phis: tuple[float, ...] = DEFAULT_PHIS,
    r_range: tuple[float, float, float] = (0.0, 3.0, DEFAULT_STEP),
    backend: str = "oracle",
    workers: int = 1,
) -> list[SweepRow]:
    """Sweep the coherent amplitude at fixed coupling, one curve per angle."""
    validate(base)
    lo, hi, step = r_range
    values = grid_values(lo, hi, step)
    points = [base.with_(phi=phi, r=float(r)) for phi in phis for r in values]
    return _run_rows(points, backend, workers)


def fidelity_table(
    base: ExperimentParams,
    couplings: tuple[float, ...] = FIDELITY_COUPLINGS,
    r_range: tuple[float, float, float] = (0.0, 3.0, DEFAULT_STEP),
    backend: str = "oracle",
    workers: int = 1,
) -> tuple[np.ndarray, dict[float, list[SweepRow]]]:
    """Fidelity-to-initial versus amplitude for several couplings.

    Returns the r grid plus one sweep (single angle, taken from
    ``base``) per coupling value.
    """
    validate(base)
    values = grid_values(*r_range)
    table = {}
    for s in couplings:
        table[s] = sweep_r(base.with_(s=s), (base.phi,), r_range, backend, workers)
    return values, table
