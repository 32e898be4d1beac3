"""Oracle-versus-printed comparison harness.

For every audited quantity the harness collects (oracle, printed)
pairs over a parameter grid, fits one global real scale c minimising
sum |printed - c * oracle|^2, and reports raw and scale-normalised
residuals per point.  A constant normalisation slip in a printed
formula shows up as a fitted scale away from 1 with small normalised
residuals; a structural misprint leaves large residuals that no single
scale removes.  Nothing is corrected here - the numbers are the
deliverable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fock import column_state, moments, pointer_column
from .params import FIGURE_PRESET, ExperimentParams, validate
from .printed import printed_kappa_sq, printed_moments, printed_wigner_values
from .sweeps import grid_values
from .wigner import check_grid_elements, wigner_grid_values

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

#: Columns of the audit CSV, one row per audited point.
CSV_HEADER = [
    "quantity", *ECHOED, "x", "p",
    "oracle_re", "oracle_im", "printed_re", "printed_im",
    "raw_residual", "fitted_scale", "scaled_residual",
]


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
    """Cartesian parameter grid with the figure-preset angles."""
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
    order.  Each state is built once, by :func:`pointer_column`.
    """
    unknown = set(quantities) - set(ALL_QUANTITIES)
    if unknown:
        raise ValueError(f"unknown quantities: {sorted(unknown)}")
    if grid is None:
        grid = default_audit_grid()
    for params in grid:
        validate(params)
    quantities = tuple(dict.fromkeys(quantities))
    if not (grid and quantities):
        return []
    wanted_moments = [q for q in quantities if q in MOMENT_QUANTITIES]

    pairs: dict[str, tuple[list, list]] = {q: ([], []) for q in quantities}
    if "wigner" in quantities:
        axis = grid_values(-wigner_half_width, wigner_half_width, wigner_step)
        check_grid_elements(axis.size**2)
        zs = axis[:, None] + 1j * axis[None, :]
    for params in grid:
        cols = pointer_column(params)
        state = column_state(cols.final[:, 0])
        if wanted_moments:
            om = moments(state)
            pm = printed_moments(params)
            for q in wanted_moments:
                pairs[q][0].append(complex(getattr(om, q)))
                pairs[q][1].append(complex(getattr(pm, q)))
        if "kappa_sq" in quantities:
            pairs["kappa_sq"][0].append(2.0 / float(cols.norm_sq[0]))
            pairs["kappa_sq"][1].append(complex(printed_kappa_sq(params)))
        if "wigner" in quantities:
            pairs["wigner"][0].append(wigner_grid_values(state, axis, axis).ravel())
            pairs["wigner"][1].append(printed_wigner_values(params, zs).ravel())

    echo = {name: np.array([getattr(params, name) for params in grid], dtype=float) for name in ECHOED}
    nan = np.full(len(grid), math.nan)
    out = []
    for q in quantities:
        oracle, printed = pairs[q]
        if q == "wigner":
            n = axis.size
            owner = np.repeat(np.arange(len(grid)), n * n)  # grid index of each point
            x, p = np.tile(np.repeat(axis, n), len(grid)), np.tile(axis, n * len(grid))
            oracle, printed = np.concatenate(oracle), np.concatenate(printed)
            out.append(_fitted(q, {k: v[owner] for k, v in echo.items()}, x, p, oracle, printed))
        else:
            out.append(_fitted(q, echo, nan, nan, oracle, printed))
    return out


def csv_columns(columns: list[QuantityColumns]) -> list:
    """The columns of the audit CSV (see :data:`CSV_HEADER`), quantity after quantity."""
    labels = [c.quantity for c in columns for _ in range(c.oracle.size)]
    parts = [
        [c.echo[name] for name in ECHOED]
        + [c.x, c.p, c.oracle.real, c.oracle.imag, c.printed.real, c.printed.imag]
        + [c.raw_residual, np.full(c.oracle.size, c.scale), c.scaled_residual]
        for c in columns
    ]
    return [labels, *(np.concatenate(part) for part in zip(*parts))]


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
