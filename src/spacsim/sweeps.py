"""Parameter sweeps behind every figure table, and the route table.

Every figure table is a family of curves: fig1a-fig2b sweep the
coupling s or the amplitude r with one curve per postselection angle,
fig3 sweeps r with one curve per coupling.  One private layout lays a
family out (curve value outer, swept value inner), checks its fields
once and evaluates all its rows in one :func:`report_columns` call;
:func:`sweep_columns` and :func:`fidelity_columns` are its two shapes,
and :func:`sweep_s`, :func:`sweep_r` and :func:`fidelity_table` turn
their columns into :class:`SweepRow` objects.  The grids and their size
rules come from :mod:`spacsim.params`.

:data:`ROUTES` alone chooses a route's behaviour (``--backend``): its
column report, its Wigner grid and whether the 2/pi bound is checked.
:func:`report_columns` evaluates 1-D columns of valid points in any
order, one array per report field, in input order.  The oracle builds
the states through :func:`pointer_blocks`, the one walk that every
oracle consumer (the audit too) takes over a point set: runs of one
truncation in input order, each grouped by (alpha, s) in order of first
appearance, in consecutive blocks that
:func:`~spacsim.fock.pointer_columns` builds, the displaced branches
once per pair for all its angles, on the Fock levels the block's points
reach (:func:`~spacsim.fock.reached_levels`), with the bits of the
whole truncation.  A point whose state fails the
truncation tail check becomes a row error marker while the evaluation
carries on; any other error propagates.  The printed route evaluates the
closed forms over all points at once; if one fails, the error names the
first failing point.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, fields
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .errors import TruncationTooSmall
from .fock import PointerColumns, final_pointer_state, pointer_columns, reached_levels, row_keys
from .params import ExperimentParams, check_fields, check_grid_elements, check_points, grid_values, validate, weak_value
from .printed import evaluate_points, printed_moment_columns, printed_wigner_values
from .squeezing import SqueezingReport, column_report, report_from_moments
from .wigner import wigner_grid_values

#: Default grid step for both sweep kinds; smooth curves at O(N) cost per point.
DEFAULT_STEP = 0.02

#: Postselection angles of the figure legends; 7*pi/9 is the emphasised one.
DEFAULT_PHIS = (math.pi / 3, math.pi / 2, 2 * math.pi / 3, 7 * math.pi / 9)

#: Coupling values of the fidelity-versus-amplitude figure.
FIDELITY_COUPLINGS = (0.5, 1.0, 2.0, 3.0)

#: Complex amplitudes per array in one block of pointer columns; a block holds
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


def pointer_blocks(alpha, s, w, trunc: int | np.ndarray) -> Iterator[tuple[np.ndarray, PointerColumns]]:
    """Point indices and pointer states of 1-D columns of valid points, in consecutive blocks.

    This walk alone decides the order in which oracle states are built.
    ``trunc`` is one truncation or one per point.  The points split into
    runs of one truncation, in input order; each run's points are
    grouped by (alpha, s), in order of first appearance, so a pair's
    points side by side share their branches.  A block holds the next
    max(1, BLOCK_ELEMENTS // trunc) points of a run, and its states are
    built by one :func:`pointer_columns` call when the block is reached,
    on the most Fock levels its points reach
    (:func:`~spacsim.fock.reached_levels`), never more than the run's
    truncation.  Each column has the report bits and the error it has on
    the whole truncation; its states have fewer levels.  An empty point
    set yields no block.
    """
    truncs = np.broadcast_to(trunc, alpha.shape)
    cuts = np.flatnonzero(truncs[1:] != truncs[:-1]) + 1
    for run in np.split(np.arange(alpha.size), cuts) if alpha.size else ():
        keys = row_keys(alpha.real[run], alpha.imag[run], s[run])
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        order = run[np.argsort(first[inverse], kind="stable")]
        run_trunc = int(truncs[run[0]])
        width = max(1, BLOCK_ELEMENTS // run_trunc)
        for start in range(0, order.size, width):
            block = order[start : start + width]
            rows = int(reached_levels(alpha[block], s[block], run_trunc).max())
            yield block, pointer_columns(alpha[block], s[block], w[block], rows)


def _oracle_report(alpha, s, w, trunc: int, point) -> tuple[SqueezingReport, list[str]]:
    """The states built in the order of :func:`pointer_blocks`, each block's reports in one call."""
    report = SqueezingReport(*(np.empty(alpha.size) for _ in fields(SqueezingReport)))
    errors = [""] * alpha.size
    for block, cols in pointer_blocks(alpha, s, w, trunc):
        for name, column in vars(column_report(cols)).items():
            getattr(report, name)[block] = column
        for row, e in zip(block.tolist(), cols.errors):
            errors[row] = e
    return report, errors


def _printed_report(alpha, s, w, trunc: int, point) -> tuple[SqueezingReport, tuple[str, ...]]:
    """The closed forms at every point at once, with NaN fidelity; a failure names ``point(j)`` of the first failing point."""

    def report(alpha, s, w):
        return report_from_moments(printed_moment_columns(alpha, s, w), np.full(alpha.shape, math.nan))

    return evaluate_points("printed_moments", report, point, alpha, s, w), ("",) * alpha.size


def _oracle_wigner(params: ExperimentParams, xs: np.ndarray, ps: np.ndarray) -> np.ndarray:
    return wigner_grid_values(final_pointer_state(params), xs, ps)


def _printed_wigner(params: ExperimentParams, xs: np.ndarray, ps: np.ndarray) -> np.ndarray:
    check_grid_elements(xs.size * ps.size)
    return printed_wigner_values(params, xs[:, None] + 1j * ps[None, :])


class Route(NamedTuple):
    """One route; its functions reach what they call through module globals, which the benchmark's tracing rebinds."""

    report: Callable  # (alpha, s, w, trunc, point) -> (report of arrays, raw tail-check error per point, "" where none)
    wigner: Callable  # (params, xs, ps) -> Wigner values, entry (i, j) at xs[i] + 1j*ps[j]
    bounded: bool  # whether the Wigner values are checked against the 2/pi bound


#: Every route by ``--backend`` name, in the order of the parser's choices.
ROUTES = {"oracle": Route(_oracle_report, _oracle_wigner, True), "printed": Route(_printed_report, _printed_wigner, False)}


def route(backend: str) -> Route:
    if backend not in ROUTES:
        raise ValueError(f"unknown backend {backend!r}")
    return ROUTES[backend]


def report_columns(alpha, s, w, trunc: int, backend: str, point) -> tuple[SqueezingReport, tuple[str, ...]]:
    """Reports and row errors of 1-D columns of valid points in any order, both in input order.

    The route ``backend`` evaluates them; a row error is prefixed ``TruncationTooSmall: ``.
    """
    report, errors = route(backend).report(alpha, s, w, trunc, point)
    return report, tuple(f"{TruncationTooSmall.__name__}: {e}" if e else "" for e in errors)


def _curve_family(base: ExperimentParams, curve: str, curves, swept: str, values, what: str, backend: str) -> SweepColumns:
    """One curve per value of field ``curve``, each sweeping field ``swept`` over ``values``, all rows in one call.

    Rows run curve value outer, swept value inner; other fields come from
    ``base``.  The swept field (r or s) need only be finite and >= 0, so
    no row is checked on its own.  The checks run in this order, the
    first that fails raising what :func:`validate` raises: ``base``; each
    curve value with the smallest swept value, in :func:`check_fields`'
    field order; the smallest swept value, then the largest.  With
    ascending values and valid curve values, that names the first invalid
    row.  Otherwise a later row can be named: with r values (0, 1, inf)
    and angles (1, 4), phi = 4 raises :class:`~spacsim.errors.DegeneratePostselection`
    although the row (phi 1, r inf) comes first.  Last, more rows than
    :data:`~spacsim.params.MAX_GRID_ELEMENTS` raise ValueError naming
    ``what`` (:func:`~spacsim.params.check_points`) before anything is allocated.
    """
    validate(base)
    curves, values = np.asarray(curves, dtype=np.float64), np.asarray(values, dtype=np.float64)
    lo, hi = (float(values.min()), float(values.max())) if values.size else (0.0, 0.0)
    for value in curves.tolist():
        check_fields(**{curve: value, swept: lo})
    for value in (lo, hi):
        check_fields(**{swept: value})
    check_points(what, curves.size, values.size)
    per_curve = {name: curves if name == curve else np.full(curves.size, float(getattr(base, name))) for name in ("phi", "r", "s")}
    per_row = {name: np.tile(values, curves.size) if name == swept else np.repeat(v, values.size) for name, v in per_curve.items()}
    alpha = per_row["r"] * cmath.exp(1j * base.theta)  # as ExperimentParams.alpha, bit for bit
    w = np.repeat(np.array([weak_value(base.delta, angle) for angle in per_curve["phi"].tolist()], dtype=np.complex128), values.size)
    report, errors = report_columns(
        alpha, per_row["s"], w, base.trunc, backend, lambda j: base.with_(**{name: per_row[name][j].item() for name in (curve, swept)})
    )
    return SweepColumns(**per_row, report=report, errors=errors)


def sweep_columns(base: ExperimentParams, swept: str, values, phis: tuple[float, ...], backend: str = "oracle") -> SweepColumns:
    """Sweep field ``swept`` ("r" or "s") of ``base`` over ``values`` for each angle in ``phis``.

    One curve per angle, laid out, checked and evaluated by
    :func:`_curve_family`, whose docstring gives the order of the checks.
    """
    if swept not in ("r", "s"):
        raise ValueError(f"cannot sweep {swept!r}; sweep 'r' or 's'")
    return _curve_family(base, "phi", phis, swept, values, "a sweep", backend)


def sweep_s(
    base: ExperimentParams,
    phis: tuple[float, ...] = DEFAULT_PHIS,
    s_range: tuple[float, float, float] = (0.0, 4.0, DEFAULT_STEP),
    backend: str = "oracle",
) -> list[SweepRow]:
    """Sweep the coupling ratio at fixed amplitude, one curve per angle."""
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
    """One amplitude sweep per coupling, at the angle of ``base``, in coupling order.

    The couplings' curves are checked and evaluated as one table by
    :func:`_curve_family` (its docstring gives the order of the checks),
    so invalid input is named before a numerical failure; the table is
    then cut into one :class:`SweepColumns` per coupling.
    """
    table, n = _curve_family(base, "s", couplings, "r", r_values, "a fidelity table", backend), np.size(r_values)
    return [
        SweepColumns(
            table.phi[rows], table.r[rows], table.s[rows],
            SqueezingReport(*(column[rows] for column in vars(table.report).values())), table.errors[rows],
        )
        for rows in (slice(k * n, k * n + n) for k in range(len(couplings)))
    ]


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
