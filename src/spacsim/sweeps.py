"""Parameter sweeps behind every figure series.

A sweep walks one scenario parameter (coupling s or amplitude r)
across a uniform grid for several postselection angles and collects a
squeezing report per point.  Rows are emitted in a fixed order
(angle outer, swept parameter inner).

:func:`sweep_columns` is the one evaluation path: it checks the
points' fields without building a parameter point per row, and keeps
every report field as one array over the rows.  The oracle backend
takes the rows value by value, each value's angles side by side, and
sends consecutive blocks of them through
:func:`~spacsim.fock.pointer_columns`, which builds the displaced
branches once per value for all its angles.  A point whose state fails
the truncation tail check becomes a row error marker while the sweep
carries on; any other error propagates.  The printed backend evaluates
the closed forms over the whole column at once.  :func:`sweep_s`,
:func:`sweep_r` and :func:`fidelity_table` turn the columns into
:class:`SweepRow` objects.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import NonPositiveNorm, TruncationTooSmall
from .fock import pointer_columns
from .params import ExperimentParams, check_fields, validate, weak_value
from .printed import printed_moment_columns
from .squeezing import SqueezingReport, column_report, point_report, report_from_moments

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
#: A point built in a block of its own differs in the last bits from one built
#: with others (numpy reduces a single column in another order), so which rows
#: sit alone is part of the output bytes: the last row when the row count
#: leaves a remainder of one, or every row at one point per block.
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


@dataclass(frozen=True)
class SweepColumns:
    """One sweep as columns: entry j of every array belongs to row j.

    ``report`` holds one array per :class:`SqueezingReport` field.
    ``errors[j]`` is empty, or says why row j's state failed the
    truncation tail check; its report is then NaN.
    """

    phi: np.ndarray
    r: np.ndarray
    s: np.ndarray
    report: SqueezingReport
    errors: tuple[str, ...]

    def rows(self) -> list[SweepRow]:
        reports = zip(*(field.tolist() for field in vars(self.report).values()))
        return [
            SweepRow(phi=phi, r=r, s=s, report=SqueezingReport(*values), error=error)
            for phi, r, s, values, error in zip(self.phi.tolist(), self.r.tolist(), self.s.tolist(), reports, self.errors)
        ]


def sweep_columns(
    base: ExperimentParams, swept: str, values, phis: tuple[float, ...], backend: str = "oracle"
) -> SweepColumns:
    """Sweep field ``swept`` ("r" or "s") of ``base`` over ``values`` for each angle in ``phis``.

    Rows run angle outer, swept value inner; every other field comes
    from ``base``.  Raises what :func:`validate` raises for the first
    invalid point in row order.  Both swept fields need only be finite
    and >= 0, so each angle is checked with the smallest value and the
    largest value is checked once; for an ascending grid the smallest is
    the first.
    """
    if swept not in ("r", "s"):
        raise ValueError(f"cannot sweep {swept!r}; sweep 'r' or 's'")
    validate(base)
    values = np.asarray(values, dtype=np.float64)
    phis = np.asarray(phis, dtype=np.float64)
    lo, hi = (float(values.min()), float(values.max())) if values.size else (0.0, 0.0)
    for phi in phis.tolist():
        check_fields(phi=phi, **{swept: lo})
    check_fields(**{swept: hi})
    if backend not in ("oracle", "printed"):
        raise ValueError(f"unknown backend {backend!r}")

    n = phis.size * values.size
    phi = np.repeat(phis, values.size)
    r = np.tile(values, phis.size) if swept == "r" else np.full(n, float(base.r))
    s = np.tile(values, phis.size) if swept == "s" else np.full(n, float(base.s))
    alpha = r * cmath.exp(1j * base.theta)  # as ExperimentParams.alpha, bit for bit
    w = np.repeat(np.array([weak_value(base.delta, angle) for angle in phis.tolist()], dtype=np.complex128), values.size)
    errors = [""] * n
    if backend == "oracle":
        report = SqueezingReport(*(np.empty(n) for _ in fields(SqueezingReport)))
        width = max(1, BLOCK_ELEMENTS // base.trunc)
        # point-major: a value's angles sit side by side, so a block shares their branches
        order = np.arange(n).reshape(phis.size, values.size).T.ravel()
        for start in range(0, n, width):
            block = order[start : start + width]
            cols = pointer_columns(alpha[block], s[block], w[block], base.trunc)
            for name, column in vars(column_report(cols)).items():
                getattr(report, name)[block] = column
            for row, e in zip(block.tolist(), cols.errors):
                errors[row] = f"{TruncationTooSmall.__name__}: {e}" if e else ""
    else:
        try:
            with np.errstate(over="raise"):
                report = report_from_moments(printed_moment_columns(alpha, s, w), np.full(n, math.nan))
        except (ArithmeticError, NonPositiveNorm):
            # row by row, the scalar closed forms raise for the first failing point and name it
            swept_values = (r if swept == "r" else s).tolist()
            reports = [point_report(base.with_(phi=a, **{swept: v}), "printed") for a, v in zip(phi.tolist(), swept_values)]
            report = SqueezingReport(*map(np.array, zip(*(vars(one).values() for one in reports))))
    return SweepColumns(phi=phi, r=r, s=s, report=report, errors=tuple(errors))


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
    return sweep_columns(base, "s", grid_values(*s_range), phis, backend).rows()


def sweep_r(
    base: ExperimentParams,
    phis: tuple[float, ...] = DEFAULT_PHIS,
    r_range: tuple[float, float, float] = (0.0, 3.0, DEFAULT_STEP),
    backend: str = "oracle",
) -> list[SweepRow]:
    """Sweep the coherent amplitude at fixed coupling, one curve per angle."""
    validate(base)
    return sweep_columns(base, "r", grid_values(*r_range), phis, backend).rows()


def fidelity_columns(
    base: ExperimentParams, couplings: tuple[float, ...], r_values, backend: str = "oracle"
) -> list[SweepColumns]:
    """One amplitude sweep per coupling, at the angle of ``base``, in coupling order."""
    return [sweep_columns(base.with_(s=s), "r", r_values, (base.phi,), backend) for s in couplings]


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
    sweeps = fidelity_columns(base, couplings, values, backend)
    return values, {s: sweep.rows() for s, sweep in zip(couplings, sweeps)}
