"""Parameter sweeps behind every figure series, and the route table.

A sweep walks one scenario parameter (coupling s or amplitude r)
across a uniform grid for several postselection angles and collects a
squeezing report per point.  Rows are emitted in a fixed order
(angle outer, swept parameter inner).  The grids and their size rules
come from :mod:`spacsim.params` (:func:`~spacsim.params.grid_values`).

:data:`ROUTES` alone chooses a route's behaviour (``--backend``): its
column report, its Wigner grid and whether the 2/pi bound is checked.
:func:`report_columns` evaluates 1-D columns of valid points in any
order, one array per report field, in input order.  The oracle builds
the states through :func:`pointer_blocks`, the one walk that every
oracle consumer (the audit too) takes over a point set: runs of one
truncation in input order, each grouped by (alpha, s) in order of first
appearance (on a figure grid: value by value, each value's angles side
by side), in consecutive blocks that
:func:`~spacsim.fock.pointer_columns` builds, the displaced branches
once per pair for all its angles.  A point whose state fails the
truncation tail check becomes a row error marker while the evaluation
carries on; any other error propagates.  The printed route evaluates the
closed forms over all points at once; if one fails, the error names the
first failing point.  :func:`sweep_columns` checks a figure grid's
fields and lays it out for one call; :func:`sweep_s`, :func:`sweep_r`
and :func:`fidelity_table` turn the columns into :class:`SweepRow`
objects.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, fields
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .errors import TruncationTooSmall
from .fock import PointerColumns, final_pointer_state, pointer_columns, row_keys
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
    built by one :func:`pointer_columns` call when the block is reached.
    An empty point set yields no block.
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
            yield block, pointer_columns(alpha[block], s[block], w[block], run_trunc)


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


def _checked_axes(base: ExperimentParams, swept: str, values, phis) -> tuple[np.ndarray, np.ndarray]:
    """The swept values and the angles as float arrays, after :func:`sweep_columns`' field checks."""
    if swept not in ("r", "s"):
        raise ValueError(f"cannot sweep {swept!r}; sweep 'r' or 's'")
    validate(base)
    values = np.asarray(values, dtype=np.float64)
    phis = np.asarray(phis, dtype=np.float64)
    lo, hi = (float(values.min()), float(values.max())) if values.size else (0.0, 0.0)
    for phi in phis.tolist():
        check_fields(phi=phi, **{swept: lo})
    check_fields(**{swept: hi})
    return values, phis


def sweep_columns(
    base: ExperimentParams, swept: str, values, phis: tuple[float, ...], backend: str = "oracle"
) -> SweepColumns:
    """Sweep field ``swept`` ("r" or "s") of ``base`` over ``values`` for each angle in ``phis``.

    Rows run angle outer, swept value inner; every other field comes
    from ``base``.  Both swept fields need only be finite and >= 0, so
    no row is checked on its own.  The checks run in this order, and the
    first that fails raises what :func:`validate` raises: ``base``; each
    angle in turn with the smallest swept value, in :func:`check_fields`'
    field order; then the largest swept value.  When the values ascend
    and every angle is valid, that is the error of the first invalid
    row.  Otherwise a later row can be named: with r values (0, 1, inf)
    and angles (1, 4), phi = 4 raises
    :class:`~spacsim.errors.DegeneratePostselection` although the row
    (phi 1, r inf) comes first.  Last, a grid of more rows than
    :data:`~spacsim.params.MAX_GRID_ELEMENTS` raises ValueError
    (:func:`~spacsim.params.check_points`) before anything is allocated.
    """
    values, phis = _checked_axes(base, swept, values, phis)
    check_points("a sweep", phis.size, values.size)

    n = phis.size * values.size
    phi = np.repeat(phis, values.size)
    r = np.tile(values, phis.size) if swept == "r" else np.full(n, float(base.r))
    s = np.tile(values, phis.size) if swept == "s" else np.full(n, float(base.s))
    alpha = r * cmath.exp(1j * base.theta)  # as ExperimentParams.alpha, bit for bit
    w = np.repeat(np.array([weak_value(base.delta, angle) for angle in phis.tolist()], dtype=np.complex128), values.size)
    swept_values = r if swept == "r" else s
    report, errors = report_columns(
        alpha, s, w, base.trunc, backend, lambda j: base.with_(phi=phi[j].item(), **{swept: swept_values[j].item()})
    )
    return SweepColumns(phi=phi, r=r, s=s, report=report, errors=errors)


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

    Every coupling's sweep is checked as :func:`sweep_columns` checks it
    before any is evaluated, so invalid input is named before a
    numerical failure.  Then a table of more rows (couplings x r values)
    than :data:`~spacsim.params.MAX_GRID_ELEMENTS` raises ValueError
    (:func:`~spacsim.params.check_points`) before anything is allocated.
    """
    for s in couplings:
        _checked_axes(base.with_(s=s), "r", r_values, (base.phi,))
    check_points("a fidelity table", len(couplings), np.size(r_values))
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
