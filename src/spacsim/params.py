"""Scenario parameters, the scalar quantities derived from them, and every input-size rule.

A measurement scenario is fully described by the coherent amplitude
``alpha = r * exp(i*theta)``, the preselection angles ``(delta, phi)``,
the coupling ratio ``s`` (integrated coupling strength over pointer beam
width) and the Fock truncation dimension.  The two-level system never
appears explicitly anywhere else: postselecting on the horizontal
polarisation reduces it to the complex weak value and the success
probability computed here.  Every rule that refuses a command-line
input before allocating lives here too: the field checks,
:func:`grid_values`, :func:`check_points` and :func:`check_grid_elements`.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np

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

#: Most elements in any one array of a grid evaluation (the psi lattice,
#: the integrand, the kernel, the output, or a complex grid of points) or
#: of a dim x dim displacement generator, and most rows of a point set (a
#: sweep, a fidelity table or an audit grid).  Checked before allocating;
#: the default 201 x 201 panel needs about 4e4.  It bounds memory but
#: does not make it small: a sweep at the cap takes several GB.
MAX_GRID_ELEMENTS = 2**24

#: Most points on one grid axis (:func:`grid_values`); the largest default has 201.
MAX_GRID_POINTS = 2**16

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


def check_points(what: str, *sizes: int) -> None:
    """Raise ValueError, naming the count and the cap, if ``what`` has more points than :data:`MAX_GRID_ELEMENTS`.

    ``sizes`` are the lengths of the axes whose product is the point set.
    """
    count = math.prod(sizes)
    if count > MAX_GRID_ELEMENTS:
        sides = " x ".join(map(str, sizes))
        raise ValueError(f"{what} of {sides} = {count} points exceeds the cap of {MAX_GRID_ELEMENTS} points; use fewer values")


def check_grid_elements(*counts: float) -> None:
    """Raise ValueError, naming the size, if any count exceeds :data:`MAX_GRID_ELEMENTS`."""
    largest = max(counts)
    if not largest <= MAX_GRID_ELEMENTS:
        raise ValueError(
            f"the Wigner grid needs an array of at least {float(largest):.3g} elements, more than "
            f"{MAX_GRID_ELEMENTS}; use a coarser grid step or a smaller range"
        )


def grid_values(lo: float, hi: float, step: float) -> np.ndarray:
    """Uniform inclusive grid from lo to hi.

    The count is derived from the step; hi must sit on the grid within
    a small relative tolerance.  Raises ValueError, before allocating,
    for a grid of more than :data:`MAX_GRID_POINTS` points, and for a
    step so far below the ulp of the range that neighbouring points
    round to the same double.
    """
    if not all(math.isfinite(v) for v in (lo, hi, step)):
        raise ValueError(f"range [{lo}, {hi}] with step {step} is not finite")
    if step <= 0:
        raise ValueError(f"step must be positive, got {step}")
    if hi < lo:
        raise ValueError(f"empty range [{lo}, {hi}]")
    if not (hi - lo) / step <= MAX_GRID_POINTS - 1:  # also catches an infinite quotient
        raise ValueError(f"range [{lo}, {hi}] with step {step} has more than {MAX_GRID_POINTS} points")
    count = int(round((hi - lo) / step))
    if abs(lo + count * step - hi) > step * 1e-6:
        raise ValueError(f"range [{lo}, {hi}] is not a multiple of step {step}")
    values = np.linspace(lo, hi, count + 1)
    if not np.all(values[1:] > values[:-1]):
        raise ValueError(f"range [{lo}, {hi}] with step {step} rounds neighbouring points to the same double")
    return values


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


def point_columns(*points: ExperimentParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The alpha, s and weak-value columns of valid points, one entry per point.

    Every point is validated first, in order, so the first invalid one
    raises what :func:`validate` raises.
    """
    for params in points:
        validate(params)
    return (
        np.array([params.alpha for params in points], dtype=np.complex128),
        np.array([params.s for params in points], dtype=np.float64),
        np.array([weak_value(params.delta, params.phi) for params in points], dtype=np.complex128),
    )


def postselection_probability(phi: float) -> float:
    """Success probability cos(phi/2)**2 of the postselection, in (0, 1].

    This is the weak-coupling (s -> 0) limit.  At finite s the success
    probability depends on the coupling: it is cos(phi/2)**2 N / 4, N
    being the squared norm of the unnormalised pointer state
    (``PointerColumns.norm_sq``), and no function returns it yet.

    Raises what :func:`check_fields` raises for ``phi``.
    """
    check_fields(phi=phi)
    return math.cos(phi / 2) ** 2
