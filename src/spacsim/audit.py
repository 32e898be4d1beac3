"""Oracle-versus-printed comparison harness.

For every audited quantity the harness collects (oracle, printed)
pairs over a parameter grid, fits one global real scale c minimising
sum |printed - c * oracle|^2, and reports raw and scale-normalised
residuals per point.  A constant normalisation slip in a printed
formula shows up as a fitted scale away from 1 with small normalised
residuals; a structural misprint leaves large residuals that no single
scale removes.  Nothing is corrected here - the numbers are the
deliverable.

The oracle states are built in the sweeps' walk,
:func:`~spacsim.sweeps.pointer_blocks` (runs of one truncation, each
grouped by (alpha, s), in blocks), and each block's moments are taken
in one call; a column's bits do not depend on its block.  A block is
built on the Fock levels its points reach, so its states can have fewer
levels than the truncation; the Wigner grid route keeps only the levels
whose tail mass reaches 1e-32, all of them below that.  Every
quantity's oracle array is allocated before the walk, and each block
scatters its moments and kappa^2 into them at the block's grid
indices.  Only the Wigner comparison runs state by state, because each
state has its own position lattice.  Its oracle and printed values are
two (state, point) arrays, one row per grid point, allocated once after
the total size is checked; each state fills its own row, so every
quantity's points stay in grid order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import RangeError, TruncationTooSmall
from .fock import column_moments, column_state
from .params import FIGURE_PRESET, ExperimentParams, check_grid_elements, check_points, grid_values, point_columns
from .printed import evaluate_points, printed_kappa_sq_columns, printed_moment_columns, printed_wigner_values
from .sweeps import pointer_blocks
from .wigner import wigner_grid_values

MOMENT_QUANTITIES = ("n_mean", "m_a", "m_a2", "m_a2d2", "m_a4")
ALL_QUANTITIES = MOMENT_QUANTITIES + ("kappa_sq", "wigner")

#: Default audit grid: amplitudes and couplings spanning the figure ranges.
DEFAULT_R_VALUES = (0.0, 0.5, 1.0, 1.5, 2.0)
DEFAULT_S_VALUES = (0.0, 0.25, 0.5, 1.0, 2.0, 4.0)

#: Default phase-space sampling for the printed Wigner audit.
DEFAULT_WIGNER_HALF_WIDTH = 3.0
DEFAULT_WIGNER_STEP = 0.75

#: The parameters each audited point echoes, in column order.
ECHOED = ("r", "theta", "delta", "phi", "s")


@dataclass(frozen=True)
class ComparisonRow:
    """One audited point: parameter echo, both values, residuals."""

    quantity: str
    r: float
    theta: float
    delta: float
    phi: float
    s: float
    x: float  # phase-space coordinates, NaN for non-Wigner rows
    p: float
    oracle: complex
    printed: complex
    raw_residual: float
    scale: float = math.nan
    scaled_residual: float = math.nan


@dataclass(frozen=True)
class QuantitySummary:
    quantity: str
    scale: float
    max_raw_residual: float
    max_scaled_residual: float
    n_points: int


@dataclass(frozen=True)
class QuantityColumns:
    """Every audited point of one quantity, one array entry per point.

    ``echo`` holds one array per name in :data:`ECHOED`; ``x`` and
    ``p`` are the phase-space coordinates, NaN for non-Wigner points.
    """

    quantity: str
    echo: dict[str, np.ndarray]
    x: np.ndarray
    p: np.ndarray
    oracle: np.ndarray
    printed: np.ndarray
    raw_residual: np.ndarray
    scale: float
    scaled_residual: np.ndarray

    def summary(self) -> QuantitySummary:
        # Python's max, not np.max: a NaN residual after the first point does not hide the worst finite one
        return QuantitySummary(
            quantity=self.quantity,
            scale=self.scale,
            max_raw_residual=max(self.raw_residual.tolist()),
            max_scaled_residual=max(self.scaled_residual.tolist()),
            n_points=self.oracle.size,
        )

    def rows(self) -> list[ComparisonRow]:
        columns = [self.echo[name] for name in ECHOED] + [self.x, self.p, self.oracle, self.printed, self.raw_residual]
        columns = [column.tolist() for column in columns]
        return [
            ComparisonRow(self.quantity, *values, scale=self.scale, scaled_residual=scaled)
            for *values, scaled in zip(*columns, self.scaled_residual.tolist())
        ]


def default_audit_grid(
    base: ExperimentParams = FIGURE_PRESET,
    r_values: tuple[float, ...] = DEFAULT_R_VALUES,
    s_values: tuple[float, ...] = DEFAULT_S_VALUES,
) -> list[ExperimentParams]:
    """Cartesian parameter grid with the figure-preset angles.

    Raises ValueError (:func:`~spacsim.params.check_points`), before
    building it, when the grid has more points than
    :data:`~spacsim.params.MAX_GRID_ELEMENTS`.
    """
    check_points("an audit grid", len(r_values), len(s_values))
    return [base.with_(r=float(r), s=float(s)) for r in r_values for s in s_values]


def fit_scale(printed_vals: np.ndarray, oracle_vals: np.ndarray) -> float:
    """Real scale minimising sum |printed - c * oracle|^2 over the grid."""
    denom = float(np.sum(np.abs(oracle_vals) ** 2))
    if denom == 0.0:
        return 1.0
    return float(np.sum((printed_vals * oracle_vals.conj()).real) / denom)


def _residual(printed: np.ndarray, oracle_re: np.ndarray, oracle_im: np.ndarray) -> np.ndarray:
    # hypot of the parts, as Python's complex abs computes it; np.abs differs in the last bit
    return np.hypot(printed.real - oracle_re, printed.imag - oracle_im)


def _fitted(
    quantity: str, echo: dict[str, np.ndarray], x: np.ndarray, p: np.ndarray, oracle, printed
) -> QuantityColumns:
    """Fit the scale of one quantity and compute both residuals as array operations."""
    oracle = np.asarray(oracle, dtype=np.complex128)
    printed = np.asarray(printed, dtype=np.complex128)
    scale = fit_scale(printed, oracle)
    return QuantityColumns(
        quantity=quantity,
        echo=echo,
        x=x,
        p=p,
        oracle=oracle,
        printed=printed,
        raw_residual=_residual(printed, oracle.real, oracle.imag),
        scale=scale,
        scaled_residual=_residual(printed, scale * oracle.real, scale * oracle.imag),
    )


def audit_columns(
    grid: list[ExperimentParams] | None = None,
    quantities: tuple[str, ...] = ALL_QUANTITIES,
    wigner_half_width: float = DEFAULT_WIGNER_HALF_WIDTH,
    wigner_step: float = DEFAULT_WIGNER_STEP,
) -> list[QuantityColumns]:
    """Audit the printed formulas against the oracle over a grid, as columns.

    One :class:`QuantityColumns` per requested quantity, in the order
    requested (a repeated name counts once), with its points in grid
    order.  The printed moments and kappa^2 are evaluated once over the
    whole grid.  Each state is built once, in the order of
    :func:`~spacsim.sweeps.pointer_blocks`, and the first point in that
    order whose state fails the truncation tail check raises
    TruncationTooSmall.  That is grid order unless a run of one
    truncation repeats an (alpha, s) pair; a CLI grid repeats a pair
    only as a repeated point, which has its twin's rows and error.
    """
    unknown = set(quantities) - set(ALL_QUANTITIES)
    if unknown:
        raise ValueError(f"unknown quantities: {sorted(unknown)}")
    if grid is None:
        grid = default_audit_grid()
    columns = point_columns(*grid)
    quantities = tuple(dict.fromkeys(quantities))
    if not (grid and quantities):
        return []

    printed: dict[str, np.ndarray] = {}
    if set(quantities) & set(MOMENT_QUANTITIES):
        printed.update(vars(evaluate_points("printed_moments", printed_moment_columns, grid.__getitem__, *columns)))
    elif "kappa_sq" in quantities:
        printed["kappa_sq"] = evaluate_points("printed_kappa_sq", printed_kappa_sq_columns, grid.__getitem__, *columns)

    oracle = {q: np.empty(len(grid), dtype=np.complex128) for q in quantities}
    if "wigner" in quantities:
        if not (math.isfinite(wigner_half_width) and wigner_half_width >= 0):
            raise RangeError("wigner_half_width", f"half width must be finite and >= 0, got {wigner_half_width}")
        try:
            axis = grid_values(-wigner_half_width, wigner_half_width, wigner_step)
            cells = axis.size**2
            check_grid_elements(len(grid) * cells)  # every state's points, in each array below
        except ValueError as exc:
            raise RangeError("wigner_half_width/wigner_step", str(exc)) from exc
        zs = axis[:, None] + 1j * axis[None, :]
        oracle["wigner"], printed["wigner"] = np.empty((2, len(grid), cells), dtype=np.complex128)
    for block, cols in pointer_blocks(*columns, np.array([params.trunc for params in grid])):
        found = vars(column_moments(cols.final)) | {"kappa_sq": 2.0 / cols.norm_sq}
        for q in found.keys() & oracle.keys():
            oracle[q][block] = found[q]
        for j, (point, error) in enumerate(zip(block.tolist(), cols.errors)):
            if error:
                raise TruncationTooSmall(error)
            if "wigner" in quantities:
                oracle["wigner"][point] = wigner_grid_values(column_state(cols.final[:, j]), axis, axis).ravel()
                printed["wigner"][point] = printed_wigner_values(grid[point], zs).ravel()

    echo = {name: np.array([getattr(params, name) for params in grid], dtype=float) for name in ECHOED}
    nan = np.full(len(grid), math.nan)
    points = {q: (echo, nan, nan) for q in quantities}  # each quantity's echo, x and p
    if "wigner" in quantities:
        echoed = {name: np.repeat(values, cells) for name, values in echo.items()}
        points["wigner"] = (echoed, np.tile(np.repeat(axis, axis.size), len(grid)), np.tile(axis, axis.size * len(grid)))
    return [_fitted(q, *points[q], oracle[q].ravel(), printed[q].ravel()) for q in quantities]


#: The audit CSV's float columns after ``quantity``, in order: each name and its values over one quantity's points.
_CSV_FLOATS = {
    **{name: (lambda c, name=name: c.echo[name]) for name in ECHOED},
    "x": lambda c: c.x, "p": lambda c: c.p,
    "oracle_re": lambda c: c.oracle.real, "oracle_im": lambda c: c.oracle.imag,
    "printed_re": lambda c: c.printed.real, "printed_im": lambda c: c.printed.imag,
    "raw_residual": lambda c: c.raw_residual,
    "fitted_scale": lambda c: np.full(c.oracle.size, c.scale),
    "scaled_residual": lambda c: c.scaled_residual,
}


def csv_columns(columns: list[QuantityColumns]) -> list[tuple[str, list | np.ndarray]]:
    """The audit CSV as (name, values) pairs, one row per point, quantity after quantity; with none, every column empty."""
    labels = [c.quantity for c in columns for _ in range(c.oracle.size)]
    # the leading empty array keeps np.concatenate defined, and the column float, with no quantity
    floats = [(name, np.concatenate([np.empty(0)] + [part(c) for c in columns])) for name, part in _CSV_FLOATS.items()]
    return [("quantity", labels), *floats]


def compare(
    grid: list[ExperimentParams] | None = None,
    quantities: tuple[str, ...] = ALL_QUANTITIES,
    wigner_half_width: float = DEFAULT_WIGNER_HALF_WIDTH,
    wigner_step: float = DEFAULT_WIGNER_STEP,
) -> tuple[list[ComparisonRow], list[QuantitySummary]]:
    """Audit the printed formulas against the oracle over a grid.

    Returns every comparison row, grouped by quantity in the order
    requested and in grid order within each group, plus one
    per-quantity summary with the fitted scale and the worst residuals.
    The rows are built from :func:`audit_columns`.
    """
    columns = audit_columns(grid, quantities, wigner_half_width, wigner_step)
    return [row for c in columns for row in c.rows()], [c.summary() for c in columns]
