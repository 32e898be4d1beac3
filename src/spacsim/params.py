"""Scenario parameters and the scalar quantities derived from them.

A measurement scenario is fully described by the coherent amplitude
``alpha = r * exp(i*theta)``, the preselection angles ``(delta, phi)``,
the coupling ratio ``s`` (integrated coupling strength over pointer beam
width) and the Fock truncation dimension.  The two-level system never
appears explicitly anywhere else: postselecting on the horizontal
polarisation reduces it to the complex weak value and the success
probability computed here.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

from .errors import DegeneratePostselection, RangeError

DEFAULT_TRUNC = 128

#: Number of top Fock levels whose combined weight is treated as "tail".
TAIL_LEVELS = 4

#: Smallest truncation in which a photon-added state can pass the tail
#: check: it has no vacuum amplitude, so its weight starts at level 1,
#: and that level must lie below the top TAIL_LEVELS levels.
MIN_TRUNC = TAIL_LEVELS + 2

#: Largest truncation accepted; checked before any state is allocated.  A
#: column of 2^20 complex amplitudes takes 16 MiB, and it holds coherent
#: amplitudes up to |alpha| of about 1000.
MAX_TRUNC = 2**20

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class ExperimentParams:
    """One parameter point: amplitude, angles, coupling and truncation.

    r : coherent amplitude modulus, >= 0
    theta : coherent amplitude phase, in [0, 2*pi)
    delta : preselection relative phase, in [0, 2*pi]
    phi : preselection polar angle, in [0, pi); phi = pi would make the
        postselection overlap cos(phi/2) vanish
    s : coupling ratio g0/sigma, >= 0; s < 1 is the weak-measurement regime
    trunc : Fock truncation dimension, in [MIN_TRUNC, MAX_TRUNC]
    """

    r: float
    theta: float
    delta: float
    phi: float
    s: float
    trunc: int = DEFAULT_TRUNC

    @property
    def alpha(self) -> complex:
        return self.r * cmath.exp(1j * self.theta)

    def with_(self, **changes) -> "ExperimentParams":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)


#: Parameter point every figure is built around (r and s vary per sweep).
FIGURE_PRESET = ExperimentParams(
    r=1.0,
    theta=math.pi / 4,
    delta=math.pi / 6,
    phi=7 * math.pi / 9,
    s=0.5,
)


def validate(params: ExperimentParams) -> ExperimentParams:
    """Check all range invariants, returning the params unchanged if valid.

    Raises RangeError naming the offending field, or
    DegeneratePostselection for phi >= pi.
    """
    check_fields(params.r, params.theta, params.delta, params.phi, params.s, params.trunc)
    return params


def check_fields(
    r: float = 0.0,
    theta: float = 0.0,
    delta: float = 0.0,
    phi: float = 0.0,
    s: float = 0.0,
    trunc: int = DEFAULT_TRUNC,
) -> None:
    """The checks of :func:`validate` on loose field values, in field order.

    An omitted field takes a valid value, so a sweep can check the
    fields it varies without building a parameter point for each value.
    """
    if not math.isfinite(r) or r < 0:
        raise RangeError("r", f"coherent amplitude modulus must be >= 0, got {r}")
    if not math.isfinite(theta) or not 0 <= theta < TWO_PI:
        raise RangeError("theta", f"phase must lie in [0, 2*pi), got {theta}")
    if not math.isfinite(delta) or not 0 <= delta <= TWO_PI:
        raise RangeError("delta", f"phase must lie in [0, 2*pi], got {delta}")
    if not math.isfinite(phi) or phi < 0:
        raise RangeError("phi", f"polar angle must be >= 0, got {phi}")
    if phi >= math.pi:
        raise DegeneratePostselection(f"phi = {phi} >= pi: pre- and postselection are orthogonal")
    if not math.isfinite(s) or s < 0:
        raise RangeError("s", f"coupling ratio must be >= 0, got {s}")
    if not isinstance(trunc, int) or trunc < MIN_TRUNC:
        raise RangeError(
            "trunc",
            f"truncation dimension must be an integer >= {MIN_TRUNC}, the least that can pass "
            f"the tail check, got {trunc}",
        )
    if trunc > MAX_TRUNC:
        raise RangeError("trunc", f"truncation dimension must be <= {MAX_TRUNC}, got {trunc}")


def weak_value(delta: float, phi: float) -> complex:
    """Conditioned expectation of the measured spin component.

    Equals exp(i*delta) * tan(phi/2): modulus tan(phi/2), phase delta.
    Unbounded as phi approaches pi, which is what makes large "weak value
    amplification" possible at the price of a small success probability.
    Raises what :func:`check_fields` raises for ``phi``.
    """
    check_fields(phi=phi)
    return cmath.exp(1j * delta) * math.tan(phi / 2)


def postselection_probability(phi: float) -> float:
    """Success probability cos(phi/2)**2 of the postselection, in (0, 1].

    Raises what :func:`check_fields` raises for ``phi``.
    """
    check_fields(phi=phi)
    return math.cos(phi / 2) ** 2
