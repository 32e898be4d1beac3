"""Shortest round-trip decimal text of float64 arrays, byte for byte ``repr``.

:func:`segments`, the one entry point, formats a whole array at once,
with no Python code per value.  The digits come from Dragonbox's
``to_decimal``, round to nearest with ties to even (Jeon, "Dragonbox:
A New Floating-Point Binary-to-Decimal Conversion Algorithm", 2020),
ported to numpy ``uint64`` lanes.  It gives the same shortest,
correctly rounded digits as Ryu (Adams, "Ryu: fast float-to-string
conversion", PLDI 2018), which it replaced here, from one product per
value where Ryu takes three:

* the 128-bit multipliers phi_k are built once, on first use, as four
  32-bit limbs each;
* every lane takes one 64 x 128-bit product, summed from 32-bit partial
  products, divides its top 64 bits by 1000 and, where that leaves the
  interval, by 100;
* the rarer steps (the parity of a second product, trailing zeros, the
  shorter interval of a power of two) run only on the lanes that need
  them.

The layout follows CPython's ``repr`` (``'r'`` format, shortest mode):
exponent form when the decimal point position ``decpt`` is at most -4
or above 16, with a signed exponent of at least two digits, otherwise
``0.000ddd``, ``ddd.ddd`` or ``ddd000.0``.  Each text is laid out in
fixed-width segments, NUL where a value has no glyph: the sign, ``0.``
and its zero fill, the digits with a possible ``.`` after each, the
zero fill and ``.0`` of an integral value, and the exponent.  A
segment no value of the array uses is left out.  Zeros, NaNs (any sign
or payload) and infinities are constant texts.

The digits and the segments are held as planes, (byte position, value):
plane k holds byte k of every text, so each numpy pass runs along one
contiguous row of values.  Multiplying a (40000, 16) glyph block by its
kept mask into a strided slice of a row-per-value matrix took 0.30 ms,
the same block as (16, 40000) planes 0.07 ms (2-vCPU Xeon, numpy 2.4).
"""

from __future__ import annotations

from functools import cache
import numpy as np

_U = np.uint64
_MASK32 = _U(0xFFFFFFFF)
_MANTISSA_MASK = _U((1 << 52) - 1)
_HIDDEN = _U(1 << 52)
_SIGN = _U(1 << 63)
_EXPONENT_ALL_ONES = _U(0x7FF << 52)
_ONE = _U(0x3FF << 52)  # the bits of 1.0, a stand-in for the constant texts
_KAPPA = 2  # z is divided by 10^(kappa + 1) = 1000, then by 10^kappa = 100
_K_MIN, _K_MAX = -292, 326  # the powers of ten phi_k is needed for
_POW10 = np.array([10**k for k in range(18)], dtype=np.uint64)
_CONSTANT_TEXTS = np.array([list(t.ljust(4, b"\0")) for t in (b"0.0", b"-0.0", b"inf", b"-inf", b"nan")], dtype=np.uint8)
_MINUS, _DOT, _ZERO, _PLUS, _E = (np.uint8(ord(c)) for c in "-.0+e")


def _floor_log2_pow10(k):
    """floor(k log2 10), exact for |k| <= 1700, for an int or an integer array."""
    return (k * 1741647) >> 19


@cache
def _multipliers() -> np.ndarray:
    """phi_k = ceil(10^k * 2^(127 - floor(k log2 10))) for k = -292 .. 326, as (4, 619) 32-bit limbs, low limb first."""
    phi = []
    for k in range(_K_MIN, _K_MAX + 1):
        shift = 127 - _floor_log2_pow10(k)
        num, den = 10 ** max(k, 0) << max(shift, 0), 10 ** max(-k, 0) << max(-shift, 0)
        phi.append(-(-num // den))
    return np.array([[(v >> (32 * i)) & 0xFFFFFFFF for v in phi] for i in range(4)], dtype=np.uint64)


def _product(a: np.ndarray, phi: np.ndarray) -> tuple[np.ndarray, ...]:
    """a * phi for 63-bit ``a`` and 128-bit ``phi`` (its four 32-bit limbs, low first), as 32-bit columns.

    Returns c1, c2, c3 and c4: the low 32 bits of c_i are bits 32i .. 32i + 31
    of the product, and c4 is the product's bits 128 .. 191 whole.
    """
    a0, a1 = a & _MASK32, a >> _U(32)
    p = a0 * phi
    c1 = (p[1] & _MASK32) + (p[0] >> _U(32)) + a1 * phi[0]
    c2 = (p[2] & _MASK32) + (p[1] >> _U(32)) + a1 * phi[1] + (c1 >> _U(32))
    c3 = (p[3] & _MASK32) + (p[2] >> _U(32)) + a1 * phi[2] + (c2 >> _U(32))
    return c1, c2, c3, (p[3] >> _U(32)) + a1 * phi[3] + (c3 >> _U(32))


def _parity(two_f: np.ndarray, phi: np.ndarray, beta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dragonbox's ``compute_mul_parity``: bit 128 - beta of two_f * phi, and whether bits 64 - beta .. 127 - beta are 0."""
    c1, c2, c3, _ = _product(two_f, phi)
    high = (c3 << _U(32)) | (c2 & _MASK32)
    fraction = (high << beta) | ((c1 & _MASK32) >> (_U(32) - beta))
    return ((high >> (_U(64) - beta)) & _U(1)) == 1, fraction == 0


def _strip_zeros(digits: np.ndarray, exponent: np.ndarray) -> None:
    """Remove the trailing decimal zeros of ``digits`` in place, adding their count to ``exponent``."""
    for p in (16, 8, 4, 2, 1):
        head = digits // _POW10[p]
        zeros = head * _POW10[p] == digits
        np.copyto(digits, head, where=zeros)
        exponent += p * zeros


def _decimal(magnitude: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dragonbox's ``to_decimal`` of positive finite bits, to nearest, ties to even: value = digits * 10^exponent.

    Every lane takes both divisor steps on one 64 x 128-bit product; the
    parity products, the trailing zeros and the shorter interval of a
    power of two run on the lanes that need them.
    """
    fraction = magnitude & _MANTISSA_MASK
    field = (magnitude >> _U(52)).astype(np.int32)  # the exponent arithmetic below fits in 31 bits
    e = np.maximum(field, 1) - 1075
    two_fc = np.where(field == 0, fraction, fraction | _HIDDEN) << _U(1)
    odd = (two_fc & _U(2)) != 0  # an odd significand excludes both endpoints of its interval
    minus_k = ((e * 315653) >> 20) - _KAPPA  # floor(e log10 2) - kappa
    beta = (e + _floor_log2_pow10(-minus_k)).astype(np.uint64)  # 6 .. 9
    phi = _multipliers().take(-minus_k - _K_MIN, axis=1)
    _, c2, c3, z = _product((two_fc | _U(1)) << beta, phi)
    delta = phi[3] >> (_U(31) - beta)  # the top 64 bits of phi >> (63 - beta)
    digits = z // _U(1000)
    r = z - digits * _U(1000)

    # Big divisor: the interval holds the multiple 1000 * digits unless r > delta.  An odd significand
    # excludes its right endpoint, so where that is z itself (r = 0, z an integer) the lane moves below it.
    excluded = (r == 0) & odd & (((c2 | c3) & _MASK32) == 0)
    digits -= excluded
    r[excluded] = 1000
    big = r < delta
    lanes = np.flatnonzero(r == delta)  # the left endpoint decides, from the parity of a second product
    if lanes.size:
        x_parity, x_integer = _parity(two_fc[lanes] - _U(1), phi.take(lanes, axis=1), beta[lanes])
        big[lanes] = x_parity | (x_integer & ~odd[lanes])

    # Small divisor, where big fails: y = 10 * digits + dist // 100 is the nearest, except where 100 divides
    # dist; there the parity of a second product says whether y is one less, or a tie to break to even.
    dist = r - (delta >> _U(1)) + _U(50)
    step = dist // _U(100)
    small = digits * _U(10) + step
    lanes = np.flatnonzero(~big & (step * _U(100) == dist))
    if lanes.size:
        y_parity, y_integer = _parity(two_fc[lanes], phi.take(lanes, axis=1), beta[lanes])
        small[lanes] -= (y_parity != ((dist[lanes] & _U(1)) == 1)) | (y_integer & ((small[lanes] & _U(1)) == 1))
    digits = np.where(big, digits, small)
    exponent = minus_k + _KAPPA + big

    # A power of two above the least normal: its interval is shorter below, and its own phi_k is used.
    lanes = np.flatnonzero((fraction == 0) & (field > 1))
    if lanes.size:
        e = e[lanes]
        minus_k = (e * 631305 - 261663) >> 21  # floor(e log10 2 - log10(4 / 3))
        beta = (e + _floor_log2_pow10(-minus_k)).astype(np.uint64)  # 0 .. 3
        phi = _multipliers().take(-minus_k - _K_MIN, axis=1)
        high = (phi[3] << _U(32)) | phi[2]
        left = ((high - (high >> _U(54))) >> (_U(11) - beta)) + ((e < 2) | (e > 3))  # integral only at e = 2, 3
        right = (high + (high >> _U(53))) >> (_U(11) - beta)
        shorter = right // _U(10)
        found = shorter * _U(10) >= left
        up = ((high >> (_U(10) - beta)) + _U(1)) >> _U(1)  # y rounded up
        tie = (e == -77) & ((up & _U(1)) == 1)  # a tie only at e = -77, broken to even
        digits[lanes] = np.where(found, shorter, np.where(tie, up - _U(1), up + (up < left)))
        exponent[lanes] = minus_k + found
        big[lanes] = found
    lanes = np.flatnonzero(big)  # a multiple of 1000, or of 10 in a shorter interval, may end in zeros
    if lanes.size:
        kept, shift = digits[lanes], exponent[lanes]
        _strip_zeros(kept, shift)
        digits[lanes], exponent[lanes] = kept, shift
    return digits, exponent


def _digit_chars(digits: np.ndarray, olen: np.ndarray) -> np.ndarray:
    """The 17 decimal digits of each value, left-aligned, as ASCII planes (17, n): plane k holds every value's digit k."""
    left = digits * _POW10[17 - olen]
    high = left // _POW10[9]
    halves = np.stack([high, left - high * _POW10[9]]).astype(np.uint32)  # 8 and 9 digits
    out = np.empty((17, digits.size), dtype=np.uint8)
    for t in range(9):
        tenth = halves // np.uint32(10)
        digit = halves - tenth * np.uint32(10) + np.uint32(ord("0"))
        out[16 - t] = digit[1]
        if t < 8:
            out[7 - t] = digit[0]
        halves = tenth
    return out


def segments(values) -> np.ndarray:
    """The ``repr`` text of every float64 of ``values`` (flattened) as uint8 planes of segments, (bytes, n).

    The non-NUL bytes of column i, in order, are the text of value i.
    Each plane holds one byte position of every value, so each glyph and
    kept block is filled along contiguous rows.  Segments and ``.``
    positions that no value uses are left out.
    """
    bits = np.ascontiguousarray(values, dtype=np.float64).reshape(-1).view(np.uint64)
    magnitude = bits & ~_SIGN
    negative = bits >= _SIGN
    special = (magnitude == 0) | (magnitude >= _EXPONENT_ALL_ONES)
    digits, exponent = _decimal(np.where(special, _ONE, magnitude))
    olen = np.searchsorted(_POW10[1:], digits, side="right") + 1
    chars = _digit_chars(digits, olen)
    decpt = (exponent + olen).astype(np.int16)  # value = 0.d1d2... * 10^decpt
    olen = olen.astype(np.int8)

    n = olen.size
    sci = (decpt <= -4) | (decpt > 16)
    lead = ~sci & (decpt <= 0)
    whole = ~sci & (decpt >= olen)
    point = np.where(sci, 0, np.where(lead | whole, 17, decpt - 1))  # the digit a '.' follows
    width = int(olen.max()) if n else 1
    planes = lambda a, b: np.arange(a, b)[:, None]  # noqa: E731
    glyphs = lambda text: np.frombuffer(text.encode("ascii"), dtype=np.uint8)[:, None]  # noqa: E731

    blocks = [(_MINUS, negative[None])]  # (glyphs, kept), kept of shape (segment width, n)
    if lead.any():  # 0.000ddd
        fill = int(-decpt[lead].min())
        blocks.append((glyphs("0.000")[: 2 + fill], lead & (planes(0, 2 + fill) < 2 - decpt)))
    pointed = point + 1 < olen
    start = 0
    for slot in np.flatnonzero(np.bincount(point[pointed], minlength=width)).tolist() + [width - 1]:
        blocks.append((chars[start : slot + 1], planes(start, slot + 1) < olen))
        if slot < width - 1:
            blocks.append((_DOT, (pointed & (point == slot))[None]))
        start = slot + 1
    if whole.any():  # ddd000.0
        fill = int((decpt - olen)[whole].max())
        blocks.append((glyphs("0" * fill + ".0"), whole & ((planes(0, fill + 2) < decpt - olen) | (planes(0, fill + 2) >= fill))))
    if sci.any():  # d.ddde-XX
        e = decpt - 1
        ae = np.abs(e).astype(np.uint16)
        hundreds, tens = ae // 100, ae // 10
        suffix = np.empty((5, n), dtype=np.uint8)
        suffix[0] = _E
        suffix[1] = np.where(e < 0, _MINUS, _PLUS)
        suffix[2] = hundreds + ord("0")
        suffix[3] = tens - hundreds * 10 + ord("0")
        suffix[4] = ae - tens * 10 + ord("0")
        kept = np.repeat(sci[None], 5, axis=0)
        kept[2] &= ae >= 100  # NUL throughout if no exponent has three digits
        blocks.append((suffix, kept))

    out = np.empty((sum(kept.shape[0] for _, kept in blocks), n), dtype=np.uint8)
    at = 0
    for glyph, kept in blocks:
        np.multiply(glyph, kept, out=out[at : at + kept.shape[0]])
        at += kept.shape[0]
    lanes = np.flatnonzero(special)
    if lanes.size:  # the constant texts 0.0, -0.0, inf, -inf and nan
        m = magnitude[lanes]
        out[:, lanes] = 0
        out[:4, lanes] = _CONSTANT_TEXTS[np.where(m > _EXPONENT_ALL_ONES, 4, 2 * (m != 0) + negative[lanes])].T
    return out
