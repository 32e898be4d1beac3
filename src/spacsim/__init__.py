"""Postselected von Neumann measurement on photon-added coherent states.

Exact truncated-Fock-space backend (states, moments, fidelity, Wigner
functions), squeezing witnesses, figure sweeps, and an audit harness
comparing a set of printed closed-form expressions against the oracle.

``import spacsim`` imports nothing but this file, so it loads no numpy
and sets no environment variable.  Each public name is imported from
its home module on first access (PEP 562), and so is each of those
modules, so ``spacsim.fock`` works after a bare ``import spacsim``.
"""

import importlib

__version__ = "0.1.0"

#: Each public name and the module that defines it.
_HOMES = {
    name: module
    for module, names in {
        "audit": ("ComparisonRow", "QuantitySummary", "compare", "default_audit_grid", "fit_scale"),
        "errors": (
            "DegeneratePostselection",
            "DimensionMismatch",
            "NonPositiveNorm",
            "NumericalOverflow",
            "RangeError",
            "SpacsimError",
            "TruncationTooSmall",
        ),
        "fock": (
            "FockVector",
            "MomentSet",
            "basis_state",
            "coherent",
            "displace",
            "fidelity",
            "final_pointer_state",
            "moments",
            "oracle_kappa_sq",
            "pointer_norm_sq",
            "spacs",
        ),
        "io": ("WignerGrid",),
        "params": ("FIGURE_PRESET", "ExperimentParams", "grid_values", "postselection_probability", "validate", "weak_value"),
        "printed": ("PrintedMomentSet", "printed_kappa_sq", "printed_moments", "printed_wigner"),
        "squeezing": ("SqueezingReport", "min_variances", "point_report", "s_ass", "s_os"),
        "sweeps": ("fidelity_table", "sweep_r", "sweep_s"),
        "wigner": (
            "CharacteristicFunctionGrid",
            "wigner_grid_values",
            "wigner_normalization",
            "wigner_point",
            "wigner_point_quadrature",
            "wigner_values",
        ),
    }.items()
    for name in names
}
_MODULES = frozenset(_HOMES.values())

__all__ = list(_HOMES)


def __getattr__(name: str):
    if name in _MODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{_HOMES[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_MODULES})
