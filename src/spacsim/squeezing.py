"""Squeezing witnesses and minimum quadrature variances.

Negative S_os means the optimally chosen quadrature has variance below
the coherent-state floor of 1/4; negative S_ass means the squared
amplitude does better than <adag a + 1/2>.  Both witnesses are plain
functions of the five field moments, so they apply unchanged to oracle
moments and to the printed closed forms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import TruncationTooSmall
from .fock import MomentSet, PointerColumns, column_moments, column_sum
from .params import ExperimentParams, point_columns


@dataclass(frozen=True)
class SqueezingReport:
    """Witnesses, minimum variances and fidelity for one parameter point."""

    s_os: float
    s_ass: float
    var_x_min: float
    var_y_min: float
    n_mean: float
    fidelity_to_initial: float


def s_os(m: MomentSet) -> float:
    """Ordinary squeezing witness <adag a> - |<a>|^2 - |<a^2> - <a>^2|."""
    return m.n_mean - abs(m.m_a) ** 2 - abs(m.m_a2 - m.m_a**2)


def s_ass(m: MomentSet) -> float:
    """Amplitude-squared witness <adag^2 a^2> - |<a^2>|^2 - |<a^4> - <a^2>^2|."""
    return m.m_a2d2 - abs(m.m_a2) ** 2 - abs(m.m_a4 - m.m_a2**2)


def min_variances(m: MomentSet) -> tuple[float, float]:
    """Minimum variances of the quadrature and squared-amplitude operators.

    Already optimised over the quadrature phase:
    1/4 + S_os/2 and <adag a> + 1/2 + S_ass/2.
    """
    return 0.25 + s_os(m) / 2.0, m.n_mean + 0.5 + s_ass(m) / 2.0


def report_from_moments(m: MomentSet, fidelity_to_initial: float) -> SqueezingReport:
    return SqueezingReport(s_os(m), s_ass(m), *min_variances(m), m.n_mean, fidelity_to_initial)


def column_report(cols: PointerColumns) -> SqueezingReport:
    """Reports of every column of a pointer batch, one array entry per column.

    A failed column reports NaN.  A column whose final state is its
    initial state bit for bit (s = 0) has fidelity exactly 1, which the
    summed overlap can miss in the last bit.
    """
    fid = np.abs(column_sum(cols.initial.conj() * cols.final)) ** 2
    fid[(cols.initial == cols.final).all(axis=0)] = 1.0
    return report_from_moments(column_moments(cols.final), fid)


def point_report(params: ExperimentParams, backend: str = "oracle") -> SqueezingReport:
    """One point's report, its route's column report at one entry; a failed tail check raises TruncationTooSmall."""
    from .sweeps import route  # sweeps imports this module

    batch, errors = route(backend).report(*point_columns(params), params.trunc, lambda j: params)
    if errors[0]:
        raise TruncationTooSmall(errors[0])
    return SqueezingReport(*(field.item() for field in vars(batch).values()))
