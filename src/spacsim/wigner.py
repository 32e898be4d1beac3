"""Wigner quasi-probability of truncated pure states.

Two independent routes to the same quantity, with X = (a + a^dagger)/2
and P = (a - a^dagger)/2i, so that W integrates to one over dx dp and
a coherent state |alpha> peaks at x + ip = alpha:

* Rectangular grids (:func:`wigner_grid_values`) use the position
  representation (Hillery, O'Connell, Scully & Wigner, Phys. Rep. 106,
  121 (1984))

      W(x, p) = (2/pi) * integral psi*(x+y) psi(x-y) exp(4ipy) dy.

  psi is evaluated once, by the normalised Hermite-function recurrence,
  on a uniform lattice that holds every x_i +- y_k of the grid, so the
  integrand is built by indexing.  The integrand at -y is the conjugate
  of that at y, and cos is even and sin odd in p, so the y integral is
  two real sums over y >= 0, a cosine and a sine sum, each taken once
  per distinct |p| in numpy's own loop (no BLAS, so no thread count
  enters the values).  The lattice step and the y range follow from the
  state's Fock support: with n_s levels kept, psi and its Fourier
  transform both vanish beyond the turning point sqrt(n_s + 1/2) plus
  :data:`SUPPORT_MARGIN`.

* Scattered points (:func:`wigner_point`, :func:`wigner_values`) use
  the displaced-parity identity (Royer, Phys. Rev. A 15, 449 (1977))

      W(z) = (2/pi) * sum_n (-1)^n |<n| D(-z) |psi>|^2,

  evaluated with the exact truncated displacement after zero-padding
  the state (an exact embedding) to a dimension large enough that the
  displaced state clears the truncation tail check.  This is the
  reference the grid route is tested against.

A 2D quadrature of the characteristic function <D(lambda)> is kept as
a third, independent spot-check of the parity route.  It sums <D(lambda)>
from the Laguerre matrix elements of D (Cahill & Glauber, Phys. Rev.
177, 1857 (1969)) over the state's Fock support, with no padding and no
code shared with the displacement in :mod:`spacsim.fock`.
"""

from __future__ import annotations

import math

import numpy as np

from ._parallel import run_ordered
from .errors import TruncationTooSmall
from .fock import TAIL_LEVELS, TAIL_THRESHOLD, FockVector, _displaced_core, pad

#: Points per batch of the parity and characteristic-function routes; bounds memory.
CHUNK = 4096

#: Fock levels above the last one whose tail mass reaches this are dropped
#: by the grid route; their amplitudes are below representable precision.
SUPPORT_CUTOFF = 1e-32

#: Distance in x (and p) beyond the turning point sqrt(n_s + 1/2) of n_s
#: kept levels over which psi and its Fourier transform decay; |psi|^2
#: ends below 1e-45 for the vacuum and lower for higher levels.
SUPPORT_MARGIN = 6.0

#: Largest |psi|^2 tolerated at the ends of the grid route's y range; the
#: dropped part of the integral is of this order.
PSI_TAIL_THRESHOLD = 1e-24

#: Most elements in any one array of a grid evaluation: the psi lattice,
#: the integrand, the kernel, the output, or a complex grid of points.
#: Checked before allocating; the default 201 x 201 panel needs about 4e4.
MAX_GRID_ELEMENTS = 2**24

#: Ceiling of the Hermite recurrence's scaled frame; h_n above it is divided by it.
_RESCALE = 1e150

#: Largest |lambda| at which the characteristic-function route runs the
#: Laguerre recurrence.  Beyond it the frame's products could overflow,
#: and every <m|D(lambda)|n> with m, n below 2^60 is below
#: exp(-|lambda|^2/4), so 0.
_FAR_LAMBDA = 1e50


def required_dim(state: FockVector, beta_max: float) -> int:
    """Truncation dimension safe for displacing ``state`` by up to ``beta_max``.

    The displaced occupation is concentrated below (|beta| + sqrt(n_s))^2
    for a state supported up to level n_s; eight standard deviations of
    Poisson-like spread are added on top, then rounded up to a multiple
    of 32 so the cached generator factorisations are reused.
    """
    m = beta_max + math.sqrt(state.support()) + 1.0
    need = max(int(math.ceil(m * m + 8.0 * m + 12.0)), state.dim)
    return ((need + 31) // 32) * 32 if need > state.dim else state.dim


def _parity_values(state: FockVector, betas: np.ndarray) -> np.ndarray:
    """(2/pi) <parity> of D(beta)|state> for a flat array of betas.

    A point's value depends in the last bits on the batch it is evaluated
    in, so ``wigner_values(state, zs)[i]`` and ``wigner_point(state, zs[i])``
    agree to about 1e-15, not bit for bit.  The state is padded to the
    dimension that the batch's largest |beta| needs, and even at one
    dimension the batched matrix product over a chunk of columns
    accumulates in another order than the product with a single column.
    """
    if not np.all(np.isfinite(betas)):
        raise ValueError("phase-space points must be finite")
    work = pad(state, required_dim(state, float(np.max(np.abs(betas))) if betas.size else 0.0))
    signs = np.where(np.arange(work.dim) % 2 == 0, 1.0, -1.0)

    def eval_chunk(sl: slice) -> np.ndarray:
        # parity only needs magnitudes, so the outer phase rotation is skipped
        _, cols = _displaced_core(work, betas[sl])
        abs2 = cols.real**2 + cols.imag**2
        tail = float(np.max(np.sum(abs2[-TAIL_LEVELS:, :], axis=0)))
        if tail > TAIL_THRESHOLD:
            raise TruncationTooSmall(
                f"displaced state leaks {tail:.3e} into the top {TAIL_LEVELS} "
                f"of {work.dim} levels; phase-space point too far out"
            )
        return (2.0 / math.pi) * (signs @ abs2)

    parts = run_ordered(eval_chunk, betas.size, CHUNK)
    return np.concatenate(parts) if parts else np.empty(0)


def wigner_point(state: FockVector, z: complex) -> float:
    """Wigner function at one phase-space point via displaced parity."""
    return float(_parity_values(state, np.array([-complex(z)]))[0])


def wigner_values(state: FockVector, zs: np.ndarray, workers: int = 1) -> np.ndarray:
    """Wigner function at every point of ``zs`` (any shape); ``workers`` is ignored."""
    zs = np.asarray(zs, dtype=np.complex128)
    flat = _parity_values(state, -zs.ravel())
    return flat.reshape(zs.shape)


def check_grid_elements(*counts: float) -> None:
    """Raise ValueError, naming the size, if any count exceeds :data:`MAX_GRID_ELEMENTS`."""
    largest = max(counts)
    if not largest <= MAX_GRID_ELEMENTS:
        raise ValueError(
            f"the Wigner grid needs an array of at least {float(largest):.3g} elements, more than "
            f"{MAX_GRID_ELEMENTS}; use a coarser grid step or a smaller range"
        )


def _position_amplitudes(amps: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """psi(x) = <x|psi> for X = (a + a^dagger)/2 at every point of ``xs``.

    Sums amps[n] * 2^(1/4) h_n(sqrt(2) x) with the normalised Hermite
    functions h_n from their three-term recurrence.  The recurrence runs
    in a per-point scaled frame: h_0 = pi^(-1/4) exp(-u^2/2) underflows
    for |u| > ~38.6 although h_n is O(1) near the turning point of
    high levels, so the frame starts at exp(-u^2/2) = 1 and is divided
    by _RESCALE, with a running log-scale, wherever h_n exceeds it.
    In this frame h_(n-1) and h_n are never both far below 1, so it
    never needs scaling up.
    """
    u = math.sqrt(2.0) * np.asarray(xs, dtype=float)
    log_scale = -0.5 * u * u - 0.25 * math.log(math.pi)
    prev = np.zeros_like(u)
    cur = np.ones_like(u)
    acc = amps[0] * cur
    for n in range(1, amps.size):
        prev, cur = cur, math.sqrt(2.0 / n) * u * cur - math.sqrt((n - 1) / n) * prev
        acc += amps[n] * cur
        big = np.abs(cur) > _RESCALE
        if big.any():
            prev[big] /= _RESCALE
            cur[big] /= _RESCALE
            acc[big] /= _RESCALE
            log_scale[big] += math.log(_RESCALE)
    return 2.0**0.25 * acc * np.exp(log_scale)


def wigner_grid_values(
    state: FockVector, xs: np.ndarray, ps: np.ndarray, workers: int = 1
) -> np.ndarray:
    """Wigner function on a rectangular grid; entry (i, j) is W(xs[i] + i*ps[j]).

    ``xs`` must be an increasing uniform grid (any ``linspace``); ``ps``
    may be any finite points, in any order and with repeats.
    Position-representation route, see the module docstring; ``workers``
    is accepted for call compatibility and ignored.

    Raises TruncationTooSmall when psi is not negligible at the ends
    of the y range, which would cut off part of the integral.
    """
    xs = np.asarray(xs, dtype=float)
    ps = np.asarray(ps, dtype=float)
    if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ps))):
        raise ValueError("grid coordinates must be finite")
    if xs.size == 0 or ps.size == 0:
        return np.zeros((xs.size, ps.size))

    levels = state.support(SUPPORT_CUTOFF)
    y_max = math.sqrt(levels + 0.5) + SUPPORT_MARGIN
    # the integrand's angular frequencies in y stay below 4 * y_max (two
    # factors of psi) plus 4 |p| (the kernel); sampling below the Nyquist
    # step makes the lattice sum equal the integral
    freq = 4.0 * y_max + 4.0 * float(np.max(np.abs(ps)))
    dy_max = 2.0 * math.pi / freq
    # the lattice step is at most dy_max and at most h / 2, which bounds the
    # lattice and the kernel from below; checking those bounds first keeps
    # every integer count below finite
    samples = freq / (2.0 * math.pi)  # 1 / dy_max, possibly inf
    check_grid_elements(max(float(xs[-1] - xs[0]), 2.0 * y_max) * samples, 2.0 * y_max * samples * ps.size)
    if xs.size > 1:
        h = (xs[-1] - xs[0]) / (xs.size - 1)
        if not h > 0 or np.max(np.abs(xs - (xs[0] + h * np.arange(xs.size)))) > 1e-6 * h:
            raise ValueError("xs must be an increasing uniform grid")
        check_grid_elements(4.0 * y_max / float(h))  # a Python float overflows to inf silently
        sub = math.ceil(h / (2.0 * dy_max))  # lattice steps per half x spacing
        step = h / (2 * sub)
    else:
        sub, step = 1, dy_max
    # y_k = k * stride * step, so x_i +- y_k is lattice point
    # 2*sub*i + stride*(half_k +- k)
    stride = max(1, int(dy_max // step))
    dy = stride * step
    half_k = math.ceil(y_max / dy)
    count = 2 * sub * (xs.size - 1) + 2 * stride * half_k + 1
    check_grid_elements(count + 2, xs.size * (2 * half_k + 1), (2 * half_k + 1) * ps.size, xs.size * ps.size)
    lattice = xs[0] + step * (np.arange(count) - stride * half_k)
    psi = _position_amplitudes(state.amps[:levels], np.append(lattice, (-y_max, y_max)))
    edge = float(np.max(np.abs(psi[-2:]) ** 2))
    if edge > PSI_TAIL_THRESHOLD:
        raise TruncationTooSmall(
            f"|psi|^2 is {edge:.3e} at the y-range ends +-{y_max:.3g}; "
            f"the position-representation integral would be cut off"
        )
    # I_k = psi*(x+y_k) psi(x-y_k) has I_(-k) = conj(I_k), so the sum over
    # -half_k..half_k of I_k exp(4ip y_k) is Re I_0 + 2 sum_(k>0) of
    # Re I_k cos(4p y_k) - Im I_k sin(4p y_k); cos is even and sin odd in p,
    # so both sums run at the distinct |p| and sign(p) sets the sine term.
    # einsum without optimize is numpy's own loop: no BLAS, no threads.
    ks = np.arange(half_k + 1)
    centre = stride * half_k + 2 * sub * np.arange(xs.size)
    integrand = psi[centre[:, None] + stride * ks].conj() * psi[centre[:, None] - stride * ks]
    qs, back = np.unique(np.abs(ps), return_inverse=True)
    angle = 4.0 * dy * np.outer(ks, qs)
    weight = np.where(ks > 0, 2.0, 1.0)[:, None]
    even = np.einsum("xk,kq->xq", integrand.real, weight * np.cos(angle))[:, back]
    odd = np.einsum("xk,kq->xq", integrand.imag, weight * np.sin(angle))[:, back]
    return (2.0 / math.pi) * dy * (even - np.sign(ps) * odd)


def _midpoint_axis(half_width: float, step: float) -> np.ndarray:
    """Midpoint-rule cell centres over [-half_width, half_width].

    Raises ValueError, before allocating, for a non-finite or non-positive
    input, an axis with no cell, or a square grid over the axis above
    :data:`MAX_GRID_ELEMENTS`.
    """
    if not (0 < half_width < math.inf and 0 < step < math.inf):
        raise ValueError(f"the half width and the step must be finite and positive, got {half_width!r} and {step!r}")
    count = round(min(2.0 * half_width / step, MAX_GRID_ELEMENTS))  # bounded, so round() never meets inf
    if count == 0:
        raise ValueError(f"a step of {step!r} leaves no cell in [-{half_width!r}, {half_width!r}]")
    check_grid_elements(count**2)
    return -half_width + (np.arange(count) + 0.5) * step


def wigner_normalization(
    state: FockVector, half_width: float = 6.0, step: float = 0.05, workers: int = 1
) -> tuple[float, np.ndarray]:
    """Midpoint-rule integral of the Wigner function over a centred box.

    Returns the integral (1 for any state whose phase-space support fits
    the box) together with the sampled cell values; ``workers`` is ignored.
    """
    centers = _midpoint_axis(half_width, step)
    values = wigner_grid_values(state, centers, centers)
    return float(values.sum() * step * step), values


def _radial_sum(coef: np.ndarray, k: int, r: np.ndarray) -> np.ndarray:
    """sum_n coef[n] <n+k|D(lambda)|n> / exp(ik arg lambda) for |lambda| = r.

    The matrix element is sqrt(n!/(n+k)!) r^k exp(-r^2/2) L_n^(k)(r^2);
    the three-term recurrence of L_n^(k) in n is run on these scaled
    elements, which never exceed 1 (L_n^(k)(0) = C(n+k, n) itself
    overflows a double above about 1030 levels).  Row 0,
    r^k exp(-r^2/2) / sqrt(k!), underflows for r above about 38.6
    although rows near n = r^2/4 are O(1), so, as in
    :func:`_position_amplitudes`, the recurrence runs in a per-point
    frame that starts at 1 with row 0 as its log-scale and is divided
    by _RESCALE wherever it exceeds it.  r must not exceed _FAR_LAMBDA.
    """
    x = r * r
    log_scale = k * np.log(np.where(r > 0, r, 1.0)) - x / 2 - math.lgamma(k + 1.0) / 2
    prev = np.zeros_like(r)
    cur = np.ones_like(r)
    acc = coef[0] * cur
    for n in range(coef.size - 1):
        prev, cur = cur, ((2 * n + 1 + k - x) * cur - math.sqrt(n * (n + k)) * prev) / math.sqrt((n + 1) * (n + k + 1))
        acc += coef[n + 1] * cur
        if cur.max() > _RESCALE or cur.min() < -_RESCALE:
            big = np.abs(cur) > _RESCALE
            prev[big] /= _RESCALE
            cur[big] /= _RESCALE
            acc[big] /= _RESCALE
            log_scale[big] += math.log(_RESCALE)
    return acc * np.exp(log_scale)


def _characteristic_values(amps: np.ndarray, lams: np.ndarray) -> np.ndarray:
    """<psi|D(lambda)|psi> at a flat array of lambdas, one diagonal k = m - n of <m|D|n> at a time.

    With u = lambda/|lambda| and R_n the element of :func:`_radial_sum`, <n+k|D|n> = u^k R_n
    and <n|D|n+k> = (-u*)^k R_n, so diagonal k adds b = u^k sum_n psi_(n+k)* psi_n R_n
    and, for k > 0, (-1)^k b*.  Points with |lambda| above _FAR_LAMBDA get 0.
    """
    chi = np.zeros(lams.size, dtype=np.complex128)
    r = np.abs(lams)
    near = r <= _FAR_LAMBDA
    if not near.any():
        return chi
    r, lams = r[near], lams[near]
    unit = lams / np.where(r > 0, r, 1.0)  # 0 at lambda = 0, where only k = 0 contributes
    power = np.ones(lams.size, dtype=np.complex128)
    total = np.zeros(lams.size, dtype=np.complex128)
    for k in range(amps.size):
        coef = amps[k:].conj() * amps[: amps.size - k]
        used = np.flatnonzero(coef)
        if used.size:  # rows past the last nonzero coefficient add nothing
            b = power * _radial_sum(coef[: used[-1] + 1], k, r)
            total += b if k == 0 else b + (-1) ** k * b.conj()
        power *= unit
    chi[near] = total
    return chi


class CharacteristicFunctionGrid:
    """Sampled symmetric-order characteristic function of one state.

    Precomputes <D(lambda)> on a midpoint grid over
    [-cutoff, cutoff]^2 once; each Wigner evaluation is then a cheap
    Fourier sum over the stored samples.  Useful when several
    phase-space points are checked against the same state.  ``workers``
    is ignored.
    """

    def __init__(self, state: FockVector, cutoff: float = 6.0, res: float = 0.04, workers: int = 1):
        self.centers = _midpoint_axis(cutoff, res)
        self.cutoff = float(cutoff)
        self.res = float(res)
        flat = (self.centers[:, None] + 1j * self.centers[None, :]).ravel()
        amps = state.amps[: state.support(SUPPORT_CUTOFF)]
        # the grid is symmetric under lambda -> -lambda (flat index
        # m -> M-1-m) and <D(-lambda)> = <D(lambda)>*, so only the
        # first half is evaluated
        half = (flat.size + 1) // 2
        first = np.concatenate(run_ordered(lambda sl: _characteristic_values(amps, flat[sl]), half, CHUNK))
        values = np.concatenate([first, first[: flat.size - half][::-1].conj()])
        self.values = values.reshape(self.centers.size, self.centers.size)

    def wigner_at(self, z: complex) -> float:
        """Fourier-sum the stored characteristic samples at one point."""
        z = complex(z)
        along_re = np.exp(2j * z.imag * self.centers)
        along_im = np.exp(-2j * z.real * self.centers)
        total = along_re @ self.values @ along_im
        return float(total.real) * self.res**2 / math.pi**2


def wigner_point_quadrature(
    state: FockVector, z: complex, cutoff: float = 6.0, res: float = 0.04
) -> float:
    """Wigner function at one point by characteristic-function quadrature.

    Independent cross-check of :func:`wigner_point`; accuracy is set by
    the integration cutoff (truncated Gaussian tail) and improves
    rapidly as the cutoff grows.  For several points against one state,
    build a :class:`CharacteristicFunctionGrid` once instead.
    """
    return CharacteristicFunctionGrid(state, cutoff=cutoff, res=res).wigner_at(z)
