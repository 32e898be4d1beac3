"""Squeezing witnesses and minimum quadrature variances.

Negative S_os means the optimally chosen quadrature has variance below
the coherent-state floor of 1/4; negative S_ass means the squared
amplitude does better than <adag a + 1/2>.  Both witnesses are plain
functions of the five field moments, so they apply unchanged to oracle
moments and to the printed closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fock import MomentSet, PointerColumns, column_moments, pointer_column
from .params import ExperimentParams
from .printed import PrintedMomentSet, evaluate_points, point_columns, printed_moment_columns

Moments = MomentSet | PrintedMomentSet


@dataclass(frozen=True)
class SqueezingReport:
    """Witnesses, minimum variances and fidelity for one parameter point."""

    s_os: float
    s_ass: float
    var_x_min: float
    var_y_min: float
    n_mean: float
    fidelity_to_initial: float


def s_os(m: Moments) -> float:
    """Ordinary squeezing witness <adag a> - |<a>|^2 - |<a^2> - <a>^2|."""
    return m.n_mean - abs(m.m_a) ** 2 - abs(m.m_a2 - m.m_a**2)


def s_ass(m: Moments) -> float:
    """Amplitude-squared witness <adag^2 a^2> - |<a^2>|^2 - |<a^4> - <a^2>^2|."""
    return m.m_a2d2 - abs(m.m_a2) ** 2 - abs(m.m_a4 - m.m_a2**2)


def min_variances(m: Moments) -> tuple[float, float]:
    """Minimum variances of the quadrature and squared-amplitude operators.

    Already optimised over the quadrature phase:
    1/4 + S_os/2 and <adag a> + 1/2 + S_ass/2.
    """
    return 0.25 + s_os(m) / 2.0, m.n_mean + 0.5 + s_ass(m) / 2.0


def report_from_moments(m: Moments, fidelity_to_initial: float) -> SqueezingReport:
    var_x, var_y = min_variances(m)
    return SqueezingReport(
        s_os=s_os(m),
        s_ass=s_ass(m),
        var_x_min=var_x,
        var_y_min=var_y,
        n_mean=m.n_mean,
        fidelity_to_initial=fidelity_to_initial,
    )


def column_report(cols: PointerColumns) -> SqueezingReport:
    """Reports of every column of a pointer batch, one array entry per column.

    A failed column reports NaN.
    """
    fid = np.abs(np.sum(cols.initial.conj() * cols.final, axis=0)) ** 2
    return report_from_moments(column_moments(cols.final), fid)


def printed_column_report(alpha, s, w, point) -> SqueezingReport:
    """Reports of the printed closed forms over columns of points, one array entry per point.

    The printed forms give no fidelity, reported as NaN.  Moments and
    witnesses are evaluated through :func:`~spacsim.printed.evaluate_points`,
    so a failure names ``point(j)`` of the first failing point.
    """

    def report(alpha, s, w):
        return report_from_moments(printed_moment_columns(alpha, s, w), np.full(alpha.shape, math.nan))

    return evaluate_points("printed_moments", report, point, alpha, s, w)


def point_report(params: ExperimentParams, backend: str = "oracle") -> SqueezingReport:
    """Full squeezing report for one parameter point.

    The oracle backend builds the conditioned pointer state and measures
    it; the printed backend evaluates the published closed forms.  Both
    are their column forms at one entry.
    """
    if backend == "oracle":
        batch = column_report(pointer_column(params))
    elif backend == "printed":
        batch = printed_column_report(*point_columns(params), lambda j: params)
    else:
        raise ValueError(f"unknown backend {backend!r}")
    return SqueezingReport(*(field.item() for field in vars(batch).values()))
