"""Verbatim implementation of the printed closed-form expressions.

This module transcribes, symbol for symbol, the published analytic
results for the conditioned pointer state: the normalisation
coefficient, the five field moments with their helper functions
t1, t3, w1, q1, q2, f1, f3, h1, h2, and the closed-form Wigner
function.  Nothing here is corrected or simplified; the point is to
audit the printed text against the exact Fock-space oracle, so every
suspected misprint is carried over as written and the few genuinely
ambiguous readings are resolved minimally and recorded in
TRANSCRIPTION_NOTES.md at the repository root.

Each expression is written once.  Its exponentials go through
one dispatch, cmath/math for a number and numpy for an array, so the
same text evaluates one point (:func:`printed_moments`,
:func:`printed_wigner`) or a column of points
(:func:`printed_moment_columns`, :func:`printed_wigner_values`).

Known readings (details in the notes file):

* the normalisation writes |<sx>|^2 without the weak-value subscript;
  read as the squared modulus of the weak value,
* a doubled "+" in the <a> expression is read as a single plus,
* the <adag^2 a^2> expression references an undefined f2; read as f1,
  mirroring the (s, -s) pairing of every other moment,
* the sign argument of the Wigner helper w is read as the sign of s.

Do not "fix" values coming out of here: disagreement with the oracle
is signal, not a bug.  The audit harness quantifies it per quantity.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NonPositiveNorm, NumericalOverflow
from .params import ExperimentParams, validate, weak_value


@dataclass(frozen=True)
class PrintedMomentSet:
    """The five printed moments plus the printed normalisation kappa^2.

    Scalars for one point; :func:`printed_moment_columns` fills each
    field with one value per point instead.
    """

    m_a: complex
    m_a2: complex
    m_a4: complex
    n_mean: float
    m_a2d2: float
    kappa_sq: float


def _overflow_is_numerical(evaluate):
    """Report a double overflow inside a printed expression as :class:`NumericalOverflow`.

    Python floats raise OverflowError and numpy, under the
    ``np.errstate(over="raise")`` entered here, FloatingPointError; the
    expressions themselves stay as printed.  The message names the first
    argument: the parameter point, or the size and first entry of the
    alpha column of the array form, which may hold many thousands.
    """

    @functools.wraps(evaluate)
    def evaluated(params: ExperimentParams, *args):
        try:
            with np.errstate(over="raise"):
                return evaluate(params, *args)
        except (OverflowError, FloatingPointError) as exc:
            where = f"a column of {params.size} alphas starting {params.flat[0]}" if isinstance(params, np.ndarray) else params
            raise NumericalOverflow(
                f"{evaluate.__name__}: the printed expression overflows a double at {where}: {exc}"
            ) from exc

    return evaluated


def _exp(x):
    """exp of a complex or real scalar with cmath or math, of an array with np.exp.

    Every other operation in the transcription works unchanged on
    Python numbers and on numpy arrays, so this one dispatch lets each
    expression be written once and evaluated over a single point or a
    column of points.
    """
    if isinstance(x, np.ndarray):
        return np.exp(x)
    return cmath.exp(x) if isinstance(x, complex) else math.exp(x)


def _gamma_sq(alpha: complex) -> float:
    return 1.0 / (1.0 + abs(alpha) ** 2)


def _inverse_kappa_sq(alpha: complex, s: float, w: complex) -> float:
    """The printed expression 1/kappa^2, before its sign is checked."""
    g2 = _gamma_sq(alpha)
    bracket = (1.0 / g2) - s * s + alpha * s - alpha.conjugate() * s
    cross = (1 + w.conjugate()) * (1 - w) * bracket * _exp(2j * s * alpha.imag)
    return 1.0 + abs(w) ** 2 + g2 * _exp(-s * s / 2.0) * cross.real


@_overflow_is_numerical
def printed_kappa_sq(params: ExperimentParams) -> float:
    """Printed normalisation coefficient kappa^2.

    Inverse of 1 + |w|^2 + g^2 e^{-s^2/2} Re[(1+w*)(1-w)
    (1/g^2 - s^2 + alpha s - alpha* s) e^{2 s i Im(alpha)}] with
    g^2 = 1/(1+|alpha|^2).  Collapses to 1/2 at s = 0.
    """
    validate(params)
    inv = _inverse_kappa_sq(params.alpha, params.s, weak_value(params.delta, params.phi))
    if inv <= 0.0:
        raise NonPositiveNorm(f"printed normalisation expression is {inv} at {params}")
    return 1.0 / inv


# --- helper functions, one per printed symbol ------------------------------
# All take the coherent amplitude and the signed coupling, as numbers or
# as arrays of one entry per point; gamma^2 is rebuilt inside each helper
# exactly as the factors appear in print.


def t1(alpha: complex, s: float) -> float:
    """Diagonal helper of the printed <adag a>."""
    g2 = _gamma_sq(alpha)
    aa = abs(alpha) ** 2
    return g2 * ((2 + aa * aa + s * aa) * alpha.real + 3 * aa + 1) + s * s / 4.0


def t3(alpha: complex, s: float) -> complex:
    """Cross helper of the printed <adag a>."""
    g2 = _gamma_sq(alpha)
    ac = alpha.conjugate()
    aa = abs(alpha) ** 2
    poly = (
        4 * aa * aa
        - 6 * s * alpha * aa
        + 2 * (6 * alpha * ac + s * ac * ac * (3 * alpha + s) + s * alpha.real * (8 - 9 * s * alpha - 3 * s * s))
        + 11 * alpha * alpha * s * s
        + s**4
        + 6 * alpha * s**3
        - 5 * s * s
        - 16 * alpha * s
        + 4
    )
    return 0.25 * g2 * _exp(2j * s * alpha.imag) * _exp(-s * s / 2.0) * poly


def w1(alpha: complex, s: float) -> complex:
    """Cross helper of the printed <a>."""
    ac = alpha.conjugate()
    poly = (
        4 * alpha
        + ac * (s - 2 * alpha) * (s - alpha)
        + 2 * alpha * alpha * s
        + s**3
        - 3 * alpha * s * s
        - 3 * s
    )
    return 0.5 * _exp(2j * s * alpha.imag) * _exp(-s * s / 2.0) * poly


def q1(alpha: complex, s: float) -> complex:
    """Diagonal helper of the printed <a^2>."""
    g2 = _gamma_sq(alpha)
    aa = abs(alpha) ** 2
    return 0.25 * g2 * (2 * alpha + s) * (6 * alpha + aa * (2 * alpha + s) + s)


def q2(alpha: complex, s: float) -> complex:
    """Cross helper of the printed <a^2>."""
    g2 = _gamma_sq(alpha)
    ac = alpha.conjugate()
    poly = (
        6 * alpha
        + ac * (s - 2 * alpha) * (s - alpha)
        + 2 * alpha * alpha * s
        + s**3
        - 3 * alpha * s * s
        - 5 * s
    )
    return -0.25 * _exp(2j * s * alpha.imag) * _exp(-s * s / 2.0) * g2 * (s - 2 * alpha) * poly


def f1(alpha: complex, s: float) -> float:
    """Diagonal helper of the printed <adag^2 a^2> (also read for f2)."""
    g2 = _gamma_sq(alpha)
    aa = abs(alpha) ** 2
    re_a = alpha.real
    re_a2 = (alpha * alpha).real
    big = (
        2 * aa**3
        + s * aa * ((s * s + 16) * re_a + s * re_a2)
        + 2 * aa * aa * (2 * s * re_a + s * s + 5)
        + 8 * aa
        + 6 * s * s * aa
        + (2 * s**3 + 8 * s) * re_a
        + 3 * s * s * re_a2
    )
    return 0.5 * g2 * big + s**4 / 16.0 + g2 * s * s


def f3(alpha: complex, s: float) -> complex:
    """Cross helper of the printed <adag^2 a^2>."""
    g2 = _gamma_sq(alpha)
    ac = alpha.conjugate()
    aa = abs(alpha) ** 2
    inner = (
        2 * ac * ac * (s - 2 * alpha) * (s - alpha)
        + 20 * aa
        + 3 * s * ac * (s - 2 * alpha) * (s - alpha)
        + 28j * s * alpha.imag
        + s * s * (2 * alpha * alpha + s * s - 3 * alpha * s - 9)
        + 16 * _exp(-0.5 * s * (s - 4j * alpha.imag))
    )
    return -g2 / 16.0 * (s - 2 * alpha) * (2 * ac + s) * inner


def h1(alpha: complex, s: float) -> complex:
    """Diagonal helper of the printed <a^4>."""
    g2 = _gamma_sq(alpha)
    aa = abs(alpha) ** 2
    return (
        8 * alpha * g2 * aa * (alpha + s) * (2 * alpha * alpha + s * s + 2 * alpha * s)
        + s**4
        + 8 * alpha * g2 * (10 * alpha**3 + 2 * s**3 + 9 * alpha * s * s + 16 * alpha * alpha * s)
    ) / 16.0


def h2(alpha: complex, s: float) -> complex:
    """Cross helper of the printed <a^4>."""
    g2 = _gamma_sq(alpha)
    ac = alpha.conjugate()
    poly = (
        10 * alpha
        + ac * (s - 2 * alpha) * (s - alpha)
        + 2 * alpha * alpha * s
        + s**3
        - 3 * alpha * s * s
        - 9 * s
    )
    return -g2 / 16.0 * _exp(2j * s * alpha.imag) * _exp(-s * s / 2.0) * (s - 2 * alpha) ** 3 * poly


def _moment_terms(alpha: complex, s: float, w: complex, k2: float) -> tuple:
    """The printed m_a, m_a2, m_a4, n_mean and m_a2d2, given kappa^2.

    Combines the helpers with the printed branch weights
    |1+w|^2, |1-w|^2 and the (1+-w)(1-+w)* cross coefficients, scaled
    by the printed kappa^2.
    """
    g2 = _gamma_sq(alpha)
    dp = abs(1 + w) ** 2
    dm = abs(1 - w) ** 2
    cpm = (1 - w) * (1 + w).conjugate()   # (1-w)(1+w)*
    cmp_ = cpm.conjugate()                # (1+w)(1-w)*

    n_mean = k2 * (dp * t1(alpha, s) + dm * t1(alpha, -s) + 2 * (cpm * t3(alpha, s)).real)

    m_a = (
        k2
        * g2
        * (
            dp * (2 * alpha + alpha * abs(alpha) ** 2 + s / (2 * g2))
            + dm * (2 * alpha + alpha * abs(alpha) ** 2 - s / (2 * g2))
            + cpm * w1(alpha, s)
            + cmp_ * w1(alpha, -s)
        )
    )

    m_a2 = k2 * (dp * q1(alpha, s) + dm * q1(alpha, -s) + cpm * q2(alpha, s) + cmp_ * q2(alpha, -s))

    # the second diagonal term is printed as f2(-s) with f2 undefined; f1 is used
    m_a2d2 = k2 * (dp * f1(alpha, s) + dm * f1(alpha, -s) + 2 * (cpm * f3(alpha, s)).real)

    m_a4 = k2 * (dp * h1(alpha, s) + dm * h1(alpha, -s) + cmp_.conjugate() * h2(alpha, s) + cmp_ * h2(alpha, -s))

    return m_a, m_a2, m_a4, n_mean, m_a2d2


@_overflow_is_numerical
def printed_moments(params: ExperimentParams) -> PrintedMomentSet:
    """All five printed moments of the conditioned pointer state.

    Values are returned exactly as the text gives them; the audit
    harness owns any comparison to the oracle.
    """
    validate(params)
    k2 = printed_kappa_sq(params)
    m_a, m_a2, m_a4, n_mean, m_a2d2 = _moment_terms(
        params.alpha, params.s, weak_value(params.delta, params.phi), k2
    )
    return PrintedMomentSet(
        m_a=complex(m_a),
        m_a2=complex(m_a2),
        m_a4=complex(m_a4),
        n_mean=float(n_mean),
        m_a2d2=float(m_a2d2),
        kappa_sq=k2,
    )


@_overflow_is_numerical
def printed_moment_columns(alpha, s, w) -> PrintedMomentSet:
    """:func:`printed_moments` over columns of alpha, s and the weak value w.

    Each field holds one entry per point; the points must already be
    valid.  The expressions are those of the scalar form, evaluated with
    numpy, so values agree with it to rounding (within 1e-13 relative
    on the figure grids), not bit for bit.  Raises
    :class:`NumericalOverflow` if any expression overflows a double and
    :class:`NonPositiveNorm` if any normalisation is <= 0; neither names
    the point, which the scalar form does.
    """
    alpha, s, w = np.broadcast_arrays(
        np.asarray(alpha, dtype=np.complex128), np.asarray(s, dtype=np.float64), np.asarray(w, dtype=np.complex128)
    )
    inv = _inverse_kappa_sq(alpha, s, w)
    bad = np.flatnonzero(inv <= 0.0)  # a NaN passes, as in the scalar form
    if bad.size:
        raise NonPositiveNorm(f"printed normalisation expression is {inv[bad[0]]} at column {bad[0]}")
    k2 = 1.0 / inv
    return PrintedMomentSet(*_moment_terms(alpha, s, w, k2), kappa_sq=k2)


def _w_helper(alpha: complex, s: float, z: complex) -> float:
    """Printed Wigner helper w(.) times the outer factor exp(-2|z - alpha|^2).

    The sign of s selects the branch.  The three exponentials of the
    printed form are combined into one exponent, -2(x - Re alpha - s/2)^2
    - 2(p - Im alpha)^2 <= 0, so far from the origin the product
    underflows to zero instead of overflowing.
    """
    shifted = abs(2 * z - alpha) ** 2
    return (
        _exp(-s * s / 2.0 - 2.0 * (alpha.real - z.real) * s - 2.0 * abs(z - alpha) ** 2)
        * (-1.0 + shifted + 2 * s * (alpha.real - 2 * z.real + s / 2.0))
    )


def _wigner(alpha: complex, s: float, w: complex, k2: float, z: complex) -> float:
    """The printed Wigner function at z, a point or an array of points, given kappa^2."""
    cross = (1 + w).conjugate() * (1 - w) * _exp(2j * s * z.imag)
    brace = (
        abs(1 + w) ** 2 * _w_helper(alpha, s, z)
        + abs(1 - w) ** 2 * _w_helper(alpha, -s, z)
        + 2.0 * (-1.0 + abs(2 * z - alpha) ** 2) * cross.real * _exp(-2.0 * abs(z - alpha) ** 2)
    )
    prefactor = 2.0 * k2 / (math.pi * (1.0 + abs(alpha) ** 2))
    return prefactor * brace


@_overflow_is_numerical
def printed_wigner(params: ExperimentParams, z: complex) -> float:
    """Closed-form Wigner function exactly as printed."""
    validate(params)
    z = complex(z)
    w = weak_value(params.delta, params.phi)
    return _wigner(params.alpha, params.s, w, printed_kappa_sq(params), z)


@_overflow_is_numerical
def printed_wigner_values(params: ExperimentParams, zs: np.ndarray) -> np.ndarray:
    """:func:`printed_wigner` term for term over an array of points (any shape).

    Overflow raises :class:`NumericalOverflow`, as in the scalar form,
    rather than leaving inf * 0 = NaN in the result.
    """
    validate(params)
    zs = np.asarray(zs, dtype=np.complex128)
    w = weak_value(params.delta, params.phi)
    return _wigner(params.alpha, params.s, w, printed_kappa_sq(params), zs)
