"""Ground-truth numerics in a truncated Fock space.

Everything downstream (squeezing witnesses, fidelity curves, Wigner
grids, the closed-form audit) is checked against the states and
expectation values produced here.  States are plain complex amplitude
arrays over the photon-number basis; annihilation acts as a banded
shift, so all five field moments cost O(N) per state.

The pointer state is built exactly, in O(N) per state, from the
operator identity

    D(beta) adag |alpha> = exp(i Im(beta alpha*)) (adag - beta*) |alpha + beta>,

so each displaced branch of the photon-added coherent state (Agarwal &
Tara, Phys. Rev. A 43, 492 (1991)) needs only coherent amplitudes and
a shift.  :func:`pointer_columns` does this for a whole batch of
parameter points at once, one column per point.  Coherent amplitudes
are built in log space, so no intermediate overflows at any amplitude.

A batch need not be built on the whole truncation.
:func:`reached_levels` gives the levels a point's states reach: up to
the last level at which the coherent amplitude of |alpha| + s/2, the
largest among the photon-added state and both branches, is within
e^-40 of its peak, with a margin, and all of them for a point near the
top.  The oracle's walk (:func:`spacsim.sweeps.pointer_blocks`) builds
each block on the most levels its points reach.  No output bit moves:
every Fock-axis sum adds level by level, and the levels left out would
add squared amplitudes below e^-80 of the peak, less than the last bit
of any sum.  A point that fails the tail check at the truncation has
its mass near the top, so its block is built on every level and its
error names them all.  This is measured, not proved, so it is tested.

:func:`displaced_columns` applies the truncated displacement unitary,
obtained by diagonalising its generator once per dimension (the
factors kept within :data:`BASIS_CACHE_BYTES`), for a batch of
amplitudes, and :func:`displace` for one.  It is the generic reference
the exact construction is tested against, and the displaced-parity
Wigner route uses it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, wraps
from typing import Callable, NamedTuple

import numpy as np

from .errors import DimensionMismatch, TruncationTooSmall
from .params import MAX_GRID_ELEMENTS, TAIL_LEVELS, ExperimentParams, point_columns

#: Maximum tolerated tail share: the fraction of a constructed state's
#: squared norm in its top TAIL_LEVELS levels.
TAIL_THRESHOLD = 1e-10

#: Most bytes of eigenvector matrices that :func:`_displacement_basis` keeps:
#: 16 of dimension 1024, or one of dimension 4096, the largest it builds.
BASIS_CACHE_BYTES = 2**28


@dataclass(frozen=True)
class FockVector:
    """A normalised pure state over the photon-number basis.

    ``amps[n]`` is the amplitude of the n-photon level; the array is
    read-only, so instances can be shared freely across threads.
    """

    dim: int
    amps: np.ndarray

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def support(self, cutoff: float = 1e-13) -> int:
        """Smallest level above which the remaining mass is below ``cutoff``."""
        mass = np.cumsum(np.abs(self.amps[::-1]) ** 2)[::-1]
        above = np.nonzero(mass >= cutoff)[0]
        return int(above[-1]) + 1 if above.size else 0


@dataclass(frozen=True)
class MomentSet:
    """The five field moments entering the squeezing witnesses.

    Scalars for one state; :func:`column_moments` fills each field with
    one value per column instead.
    """

    m_a: complex
    m_a2: complex
    m_a4: complex
    n_mean: float
    m_a2d2: float


def column_sum(x: np.ndarray) -> np.ndarray:
    """Row-by-row sums over the Fock axis of a C-ordered (levels, k) array, for any k.

    numpy sums a lone column pairwise, so it is accumulated instead: a
    column's sum has the same bits alone and inside a wider block.
    """
    return np.cumsum(x, axis=0)[-1] if x.shape[1] == 1 else x.sum(axis=0)


def _normalised(cols: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unit-norm columns, each column's tail share and its norm.

    The tail share is the fraction of a column's squared norm in its top
    :data:`TAIL_LEVELS` levels.  Columns are divided by their largest
    modulus first, so neither the share nor the norm underflows for
    tiny amplitudes; a column with no finite nonzero amplitude comes out
    NaN throughout.  A subnormal largest modulus overflows the complex
    division to inf, which gives a NaN share and fails the column, so
    numpy's overflow warning is silenced too.
    """
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        scale = np.max(np.abs(cols), axis=0)
        scaled = cols / scale
        prob = scaled.real**2 + scaled.imag**2
        total = column_sum(prob)
        share = column_sum(prob[-TAIL_LEVELS:]) / total
        root = np.sqrt(total)
        return scaled / root, share, scale * root


def _tail_failure(what: str, share: float, dim: int) -> str:
    """Why a state with this tail share fails the truncation check, or ''."""
    if share <= TAIL_THRESHOLD:
        return ""
    if math.isnan(share):
        return f"{what}: no finite nonzero amplitude in {dim} levels; increase the truncation dimension"
    return (
        f"{what}: tail share {share:.3e} of the norm in the top {TAIL_LEVELS} of {dim} "
        f"levels exceeds {TAIL_THRESHOLD:.0e}; increase the truncation dimension"
    )


def _as_state(amps: np.ndarray, what: str) -> FockVector:
    """Normalise, tail-check and freeze an amplitude array."""
    cols, share, _ = _normalised(np.asarray(amps, dtype=np.complex128)[:, None])
    reason = _tail_failure(what, float(share[0]), amps.size)
    if reason:
        raise TruncationTooSmall(reason)
    return column_state(cols[:, 0])


def basis_state(n: int, dim: int) -> FockVector:
    """The n-photon number state."""
    if not 0 <= n < dim:
        raise ValueError(f"level {n} outside dimension {dim}")
    amps = np.zeros(dim, dtype=np.complex128)
    amps[n] = 1.0
    return _as_state(amps, f"basis_state({n})")


@lru_cache(maxsize=8)
def _half_log_factorials(dim: int) -> np.ndarray:
    """log(n!)/2 for n = 0 .. dim - 1 as a read-only (dim, 1) column, built once per dimension."""
    column = np.array([math.lgamma(k + 1.0) / 2 for k in range(dim)])[:, None]
    column.setflags(write=False)
    return column


def _half_log_factorials_to(dim: int) -> np.ndarray:
    """The first ``dim`` rows of the cached column of the next power of two, so blocks of many row counts share few columns."""
    return _half_log_factorials(1 << (dim - 1).bit_length())[:dim]


def _coherent_columns(alphas: np.ndarray, dim: int) -> np.ndarray:
    """Coherent amplitudes exp(-|a|^2/2) a^n / sqrt(n!), one column per amplitude.

    Built in log space, as exp(n log a - |a|^2/2 - log(n!)/2), so the
    magnitudes (all at most 1) never overflow; far from level |a|^2
    they underflow to zero.  When |a|^2 itself overflows every amplitude
    is zero, and the tail check reports it, so numpy's overflow warning
    is silenced.
    """
    r = np.abs(alphas)
    n = np.arange(dim)[:, None]
    half_log_fact = _half_log_factorials_to(dim)
    log_alpha = np.log(np.where(r > 0, r, 1.0)) + 1j * np.angle(alphas)
    with np.errstate(over="ignore"):
        amps = np.exp(n * log_alpha - r**2 / 2 - half_log_fact)
    amps[1:, r == 0] = 0.0
    return amps


def _level_roots(amps: np.ndarray) -> np.ndarray:
    """sqrt(1), ..., sqrt(len - 1), shaped to broadcast along axis 0 of ``amps``."""
    return np.sqrt(np.arange(1, amps.shape[0])).reshape((-1,) + (1,) * (amps.ndim - 1))


def _raised(amps: np.ndarray) -> np.ndarray:
    """Apply the creation operator along axis 0, dropping the top level."""
    out = np.zeros_like(amps)
    out[1:] = _level_roots(amps) * amps[:-1]
    return out


def coherent(alpha: complex, dim: int) -> FockVector:
    """Coherent state with amplitude ``alpha``; finite for any finite amplitude and dimension, ValueError otherwise."""
    if dim < 2:
        raise ValueError(f"coherent state needs dim >= 2, got {dim}")
    alpha = complex(alpha)
    if not np.isfinite(alpha):
        raise ValueError(f"coherent amplitude must be finite, got {alpha}")
    return _as_state(_coherent_columns(np.array([alpha]), dim)[:, 0], f"coherent({alpha})")


def spacs(alpha: complex, dim: int) -> FockVector:
    """Single-photon-added coherent state: normalised a^dagger |alpha>.

    Interpolates between the one-photon state (alpha = 0) and a nearly
    coherent state at large |alpha|; the normalisation constant is
    1 / sqrt(1 + |alpha|^2).
    """
    if dim < 3:
        raise ValueError(f"photon-added state needs dim >= 3, got {dim}")
    return _as_state(_raised(coherent(alpha, dim).amps), f"spacs({alpha})")


def pad(state: FockVector, dim: int) -> FockVector:
    """Embed a state in a larger truncated space (exact operation)."""
    if dim < state.dim:
        raise ValueError(f"cannot pad dim {state.dim} down to {dim}")
    if dim == state.dim:
        return state
    amps = np.zeros(dim, dtype=np.complex128)
    amps[: state.dim] = state.amps
    return column_state(amps)


class _CacheInfo(NamedTuple):
    hits: int
    misses: int
    currsize: int
    nbytes: int  # of the eigenvector matrices kept


def _byte_bounded(build: Callable[[int], tuple[np.ndarray, np.ndarray]]) -> Callable:
    """``build`` memoised by dimension, least recently used first out while the kept eigenvector matrices exceed :data:`BASIS_CACHE_BYTES`.

    The budget is read on every miss; a result larger than it is
    returned but not kept.  ``cache_info()`` reports hits and misses as
    :func:`functools.lru_cache` does, plus the bytes kept.
    """
    kept: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    counts = {"hits": 0, "misses": 0}

    def nbytes() -> int:
        return sum(evecs.nbytes for _, evecs in kept.values())

    @wraps(build)
    def cached(dim: int) -> tuple[np.ndarray, np.ndarray]:
        if dim in kept:
            counts["hits"] += 1
            kept[dim] = kept.pop(dim)  # now the most recently used
            return kept[dim]
        counts["misses"] += 1
        kept[dim] = result = build(dim)
        while nbytes() > BASIS_CACHE_BYTES:
            del kept[next(iter(kept))]
        return result

    cached.cache_info = lambda: _CacheInfo(counts["hits"], counts["misses"], len(kept), nbytes())
    return cached


@_byte_bounded
def _displacement_basis(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition V, L of the Hermitian generator i(adag - a).

    Every displacement amplitude factorises through this one
    decomposition (see :func:`displaced_columns`), so one eigh call
    serves them all.  Raises ValueError, before allocating, when the
    dim x dim generator exceeds :data:`MAX_GRID_ELEMENTS`.
    """
    if dim * dim > MAX_GRID_ELEMENTS:
        raise ValueError(f"displacing at dimension {dim} needs a {dim} x {dim} generator, more than {MAX_GRID_ELEMENTS} elements")
    off = np.sqrt(np.arange(1, dim))
    gen = np.zeros((dim, dim), dtype=np.complex128)
    rows = np.arange(1, dim)
    gen[rows, rows - 1] = 1j * off        # i * adag
    gen[rows - 1, rows] = -1j * off       # -i * a
    evals, evecs = np.linalg.eigh(gen)
    evals.setflags(write=False)
    evecs.setflags(write=False)
    return evals, evecs


def displaced_columns(state: FockVector, betas: np.ndarray) -> np.ndarray:
    """Apply D(beta) to one state for a whole batch of amplitudes.

    Returns a (dim, len(betas)) array whose column j is D(betas[j])
    applied to ``state``.  For beta = t * exp(i*phase), D(beta)
    factorises into R(phase) V exp(-i t L) V^H R(-phase), with R(phase)
    the diagonal number-phase rotation exp(i n phase) and V, L the
    eigendecomposition of :func:`_displacement_basis`.  The
    integer-power phases are built by a cumulative product (one exp per
    column instead of one per entry); the accumulated rounding is below
    1e-13 for dimensions in the hundreds.  Exactly unitary per column up
    to the eigendecomposition error; no tail check is performed here.
    """
    betas = np.asarray(betas, dtype=np.complex128).ravel()
    evals, evecs = _displacement_basis(state.dim)
    steps = np.broadcast_to(np.exp(-1j * np.angle(betas)), (state.dim, betas.size)).copy()
    steps[0, :] = 1.0
    phases = np.cumprod(steps, axis=0)  # exp(-i n phase_j), that is R(-phase)
    u = evecs.conj().T @ (phases * state.amps[:, None])
    u *= np.exp(-1j * np.outer(evals, np.abs(betas)))
    out = evecs @ u
    out *= phases.conj()
    return out


def displace(beta: complex, state: FockVector) -> FockVector:
    """Displace a state by ``beta`` with the exact truncated unitary.

    beta = 0 returns the input unchanged.  The output is renormalised,
    which absorbs the eigendecomposition's small unitarity drift.
    Raises ValueError for a non-finite ``beta``, and TruncationTooSmall
    if the displaced state reaches the truncation boundary.
    """
    beta = complex(beta)
    if not np.isfinite(beta):
        raise ValueError(f"displacement must be finite, got {beta}")
    if beta == 0:
        return state
    return _as_state(displaced_columns(state, np.array([beta]))[:, 0], f"displace({beta})")


def row_keys(*columns: np.ndarray) -> np.ndarray:
    """One raw-bytes scalar per row of float64 columns: np.unique over these is several times cheaper than axis=0."""
    key = np.stack(columns, axis=1)
    return key.view(np.dtype((np.void, key.itemsize * key.shape[1]))).reshape(-1)


@dataclass(frozen=True)
class PointerColumns:
    """Initial and postselected pointer states of a batch of points, one column each.

    ``initial`` and ``final`` are (dim, k) arrays of unit-norm columns;
    ``norm_sq[j]`` is the squared norm of column j's branch superposition
    before normalising.  ``errors[j]`` is empty, or says why column j
    failed the truncation tail check, naming an overflowing amplitude
    where no truncation could pass it; its columns are then NaN.
    """

    initial: np.ndarray
    final: np.ndarray
    norm_sq: np.ndarray
    errors: tuple[str, ...]


def pointer_columns(alphas, s, w, dim: int) -> PointerColumns:
    """Initial and final pointer states for arrays (or scalars) of alpha, s and w.

    ``initial[:, j]`` is the photon-added coherent state |phi> ~ adag|alpha>
    and ``final[:, j]`` is (1 + w) D(s/2)|phi> + (1 - w) D(-s/2)|phi>,
    both normalised.  Each branch is built exactly, with no
    diagonalisation, as

        D(beta)|phi> ~ exp(i Im(beta alpha*)) (adag - beta*) |alpha + beta>

    and normalised, once per distinct (alpha, s) pair: the angles of one
    sweep value differ only in w.  A column's bits do not depend on its
    neighbours or on how many there are.  The photon-added state, both
    branches and the superposition are tail-checked in that order, and
    the first failure names the column's error.
    """
    alphas, s, w = np.broadcast_arrays(
        np.atleast_1d(np.asarray(alphas, dtype=np.complex128)),
        np.atleast_1d(np.asarray(s, dtype=np.float64)),
        np.atleast_1d(np.asarray(w, dtype=np.complex128)),
    )
    if dim < 3:
        raise ValueError(f"photon-added state needs dim >= 3, got {dim}")
    # A sweep block repeats points: one alpha across a coupling sweep, one
    # (alpha, s) pair per angle.  Build the photon-added column once per
    # distinct alpha and both branches once per distinct pair, on the bits (so
    # -0.0 stays apart from 0.0), and gather them back in C order.
    (_, first, inverse), (_, pair, pair_inverse) = (
        np.unique(rows, return_index=True, return_inverse=True)
        for rows in (row_keys(alphas.real, alphas.imag), row_keys(alphas.real, alphas.imag, s))
    )
    initial, initial_share, _ = _normalised(_raised(_coherent_columns(alphas[first], dim)))
    initial, initial_share = initial.take(inverse, axis=1), initial_share[inverse]
    branches = []
    for beta in (s[pair] / 2, -s[pair] / 2):  # real, so beta* = beta
        shifted = _coherent_columns(alphas[pair] + beta, dim)
        with np.errstate(over="ignore", invalid="ignore"):  # an overflowing phase's column fails its tail check
            phase = np.exp(1j * (beta * alphas[pair].conj()).imag)
        branch, share, _ = _normalised(phase * (_raised(shifted) - beta * shifted))
        branches.append((branch.take(pair_inverse, axis=1), share[pair_inverse]))
    (plus, plus_share), (minus, minus_share) = branches
    final, final_share, norm = _normalised((1 + w) * plus + (1 - w) * minus)
    final[:, s == 0] = initial[:, s == 0]  # both branches are the initial state there

    shares = np.stack([initial_share, plus_share, minus_share, final_share])
    failed = ~(shares <= TAIL_THRESHOLD)  # a NaN share fails too
    errors = [""] * alphas.size
    for j in np.flatnonzero(failed.any(axis=0)):
        step = int(np.argmax(failed[:, j]))
        half = float(s[j]) / 2
        what = (f"spacs({alphas[j]})", f"displace({half})", f"displace({-half})", f"final_pointer_state(s={float(s[j])})")
        modulus = abs(complex((alphas[j], alphas[j] + half, alphas[j] - half, 0)[step]))
        if math.isinf(modulus * modulus):  # a Python float overflows to inf without a warning
            errors[j] = f"{what[step]}: the squared coherent amplitude overflows a double, so no truncation can represent the state"
        else:
            errors[j] = _tail_failure(what[step], float(shares[step, j]), dim)
    bad = failed.any(axis=0)
    initial[:, bad] = np.nan
    final[:, bad] = np.nan
    return PointerColumns(initial=initial, final=final, norm_sq=norm**2, errors=tuple(errors))


def reached_levels(alphas, s, trunc: int) -> np.ndarray:
    """How many of ``trunc`` Fock levels the states of each point reach, one count per point.

    With a = |alpha| + |s|/2, the largest coherent amplitude among the
    photon-added state and both branches, L(a) is the last level
    n < ``trunc`` at which n log a - log(n!)/2 lies within 40 of its
    largest value, that is, where the coherent amplitude is within e^-40
    of its peak; L(0) = 0.  A point reaches the smallest multiple of 16
    that is at least L(a) + 5 and at least 32, capped at ``trunc``, and
    all ``trunc`` levels where a is not finite or L(a) >= trunc - 8.  The
    bound is evaluated once per distinct a, over ``trunc`` levels each.
    """
    a = np.atleast_1d(np.abs(np.asarray(alphas, dtype=np.complex128)) + np.abs(np.asarray(s, dtype=np.float64)) / 2)
    if trunc <= 32:  # every count is capped at trunc
        return np.full(a.shape, trunc)
    values, inverse = np.unique(a, return_inverse=True)
    last = np.where(values == 0, 0, trunc - 1)  # a non-finite a reaches every level
    live = np.isfinite(values) & (values > 0)
    log_amp = np.arange(trunc)[:, None] * np.log(values[live]) - _half_log_factorials_to(trunc)
    near = log_amp >= log_amp.max(axis=0) - 40.0
    last[live] = trunc - 1 - np.argmax(near[::-1], axis=0)
    rows = np.where(last >= trunc - 8, trunc, np.clip(-(-(last + 5) // 16) * 16, 32, trunc))
    return rows[inverse].reshape(a.shape)


def pointer_column(params: ExperimentParams) -> PointerColumns:
    """:func:`pointer_columns` for one point, validated first; raises TruncationTooSmall if it fails."""
    cols = pointer_columns(*point_columns(params), params.trunc)
    if cols.errors[0]:
        raise TruncationTooSmall(cols.errors[0])
    return cols


def pointer_norm_sq(params: ExperimentParams) -> float:
    """Squared norm of (1+w) D(s/2)|phi> + (1-w) D(-s/2)|phi>.

    This is the quantity the printed normalisation coefficient must
    reproduce: kappa^2 equals 2 divided by this norm.
    """
    return float(pointer_column(params).norm_sq[0])


def oracle_kappa_sq(params: ExperimentParams) -> float:
    """Normalisation coefficient kappa^2 computed from the state itself."""
    return 2.0 / pointer_norm_sq(params)


def final_pointer_state(params: ExperimentParams) -> FockVector:
    """Pointer state conditioned on successful postselection.

    The superposition (1+w) D(s/2)|phi> + (1-w) D(-s/2)|phi> of the two
    displaced branches, normalised numerically.  At s = 0 both branches
    coincide and the initial photon-added state is returned exactly.
    """
    return column_state(pointer_column(params).final[:, 0])


def column_state(column: np.ndarray) -> FockVector:
    """A read-only :class:`FockVector` over a copy of one normalised amplitude column."""
    amps = np.ascontiguousarray(column)
    amps.setflags(write=False)
    return FockVector(dim=amps.size, amps=amps)


def lowered(amps: np.ndarray) -> np.ndarray:
    """Apply the annihilation operator along axis 0 (one state, or each column).

    Pure down-shift, so repeated application stays exact in the
    truncated space.
    """
    out = np.zeros_like(amps)
    out[:-1] = _level_roots(amps) * amps[1:]
    return out


def column_moments(psi: np.ndarray) -> MomentSet:
    """All five field moments of every column of a (dim, k) amplitude array."""
    n = np.arange(psi.shape[0])[:, None]
    bra = psi.conj()
    prob = psi.real**2 + psi.imag**2
    a1 = lowered(psi)
    a2 = lowered(a1)
    a4 = lowered(lowered(a2))
    return MomentSet(
        m_a=column_sum(bra * a1),
        m_a2=column_sum(bra * a2),
        m_a4=column_sum(bra * a4),
        n_mean=column_sum(n * prob),
        m_a2d2=column_sum(n * (n - 1) * prob),
    )


def moments(state: FockVector) -> MomentSet:
    """All five field moments of a state by banded ladder action."""
    columns = column_moments(state.amps[:, None])
    return MomentSet(*(field.item() for field in vars(columns).values()))


def fidelity(a: FockVector, b: FockVector) -> float:
    """Squared overlap |<a|b>|^2 of two states of equal dimension."""
    if a.dim != b.dim:
        raise DimensionMismatch(f"dim {a.dim} vs {b.dim}")
    return float(abs(np.vdot(a.amps, b.amps)) ** 2)
