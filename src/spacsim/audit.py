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
from dataclasses import dataclass, replace

import numpy as np

from .fock import final_pointer_state, moments, oracle_kappa_sq
from .params import FIGURE_PRESET, ExperimentParams, validate
from .printed import printed_kappa_sq, printed_moments, printed_wigner_values
from .wigner import wigner_grid_values

MOMENT_QUANTITIES = ("n_mean", "m_a", "m_a2", "m_a2d2", "m_a4")
ALL_QUANTITIES = MOMENT_QUANTITIES + ("kappa_sq", "wigner")

#: Default audit grid: amplitudes and couplings spanning the figure ranges.
DEFAULT_R_VALUES = (0.0, 0.5, 1.0, 1.5, 2.0)
DEFAULT_S_VALUES = (0.0, 0.25, 0.5, 1.0, 2.0, 4.0)

#: Default phase-space sampling for the printed Wigner audit.
DEFAULT_WIGNER_HALF_WIDTH = 3.0
DEFAULT_WIGNER_STEP = 0.75


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


def _pair_rows(params: ExperimentParams, quantities: tuple[str, ...]) -> list[ComparisonRow]:
    wanted_moments = [q for q in quantities if q in MOMENT_QUANTITIES]
    rows: list[ComparisonRow] = []
    if wanted_moments or "kappa_sq" in quantities:
        om = moments(final_pointer_state(params))
        pm = printed_moments(params)
        for q in wanted_moments:
            ov, pv = complex(getattr(om, q)), complex(getattr(pm, q))
            rows.append(_row(q, params, math.nan, math.nan, ov, pv))
        if "kappa_sq" in quantities:
            ov = complex(oracle_kappa_sq(params))
            pv = complex(printed_kappa_sq(params))
            rows.append(_row("kappa_sq", params, math.nan, math.nan, ov, pv))
    return rows


def _row(q: str, params: ExperimentParams, x: float, p: float, oracle: complex, printed: complex) -> ComparisonRow:
    return ComparisonRow(
        quantity=q,
        r=params.r,
        theta=params.theta,
        delta=params.delta,
        phi=params.phi,
        s=params.s,
        x=x,
        p=p,
        oracle=oracle,
        printed=printed,
        raw_residual=abs(printed - oracle),
    )


def _wigner_rows(params: ExperimentParams, half_width: float, step: float) -> list[ComparisonRow]:
    from .sweeps import grid_values  # local import avoids a cycle

    axis = grid_values(-half_width, half_width, step)
    state = final_pointer_state(params)
    oracle_grid = wigner_grid_values(state, axis, axis)
    printed_grid = printed_wigner_values(params, axis[:, None] + 1j * axis[None, :])
    return [
        _row("wigner", params, float(x), float(p), complex(oracle_grid[i, j]), complex(printed_grid[i, j]))
        for i, x in enumerate(axis)
        for j, p in enumerate(axis)
    ]


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
    """
    unknown = set(quantities) - set(ALL_QUANTITIES)
    if unknown:
        raise ValueError(f"unknown quantities: {sorted(unknown)}")
    if grid is None:
        grid = default_audit_grid()
    for params in grid:
        validate(params)

    rows: list[ComparisonRow] = []
    for params in grid:
        rows.extend(_pair_rows(params, quantities))
        if "wigner" in quantities:
            rows.extend(_wigner_rows(params, wigner_half_width, wigner_step))

    summaries: list[QuantitySummary] = []
    fitted: list[ComparisonRow] = []
    for q in (q for q in quantities if any(r.quantity == q for r in rows)):
        group = [r for r in rows if r.quantity == q]
        scale = fit_scale(
            np.array([r.printed for r in group]), np.array([r.oracle for r in group])
        )
        scaled = [replace(r, scale=scale, scaled_residual=abs(r.printed - scale * r.oracle)) for r in group]
        fitted.extend(scaled)
        summaries.append(
            QuantitySummary(
                quantity=q,
                scale=scale,
                max_raw_residual=max(r.raw_residual for r in scaled),
                max_scaled_residual=max(r.scaled_residual for r in scaled),
                n_points=len(scaled),
            )
        )
    return fitted, summaries
