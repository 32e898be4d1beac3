"""Postselected von Neumann measurement on photon-added coherent states.

Exact truncated-Fock-space backend (states, moments, fidelity, Wigner
functions), squeezing witnesses, figure sweeps, and an audit harness
comparing a set of printed closed-form expressions against the oracle.
"""

__version__ = "0.1.0"

from .audit import ComparisonRow, QuantitySummary, compare, default_audit_grid, fit_scale
from .errors import (
    DegeneratePostselection,
    DimensionMismatch,
    NonPositiveNorm,
    NumericalOverflow,
    RangeError,
    SpacsimError,
    TruncationTooSmall,
)
from .fock import (
    FockVector,
    MomentSet,
    basis_state,
    coherent,
    displace,
    fidelity,
    final_pointer_state,
    moments,
    oracle_kappa_sq,
    pointer_norm_sq,
    spacs,
)
from .io import WignerGrid
from .params import (
    FIGURE_PRESET,
    ExperimentParams,
    postselection_probability,
    validate,
    weak_value,
)
from .printed import PrintedMomentSet, printed_kappa_sq, printed_moments, printed_wigner
from .squeezing import SqueezingReport, min_variances, point_report, s_ass, s_os
from .sweeps import fidelity_table, grid_values, sweep_r, sweep_s
from .wigner import (
    CharacteristicFunctionGrid,
    wigner_grid_values,
    wigner_normalization,
    wigner_point,
    wigner_point_quadrature,
    wigner_values,
)
