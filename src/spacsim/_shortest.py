"""Shortest round-trip decimal text of float64 arrays, byte for byte ``repr``.

:func:`decimals` and :func:`segments` format a whole array at once,
with no Python code per value.  The digits come from Ryu's ``d2d``
(Adams, "Ryu: fast float-to-string conversion", PLDI 2018), ported to
numpy ``uint64`` lanes:

* the 125-bit multipliers 5^i and 2^k / 5^q are built once, on first
  use, as four 32-bit limbs each;
* the 64 x 128-bit products are summed from 32-bit partial products,
  a few thousand lanes at a time;
* every lane runs Ryu's general digit-removal loop.  Where both
  trailing-zero flags are false it is exactly Ryu's common case, so all
  lanes take one code path.

The layout follows CPython's ``repr`` (``'r'`` format, shortest mode):
exponent form when the decimal point position ``decpt`` is at most -4
or above 16, with a signed exponent of at least two digits, otherwise
``0.000ddd``, ``ddd.ddd`` or ``ddd000.0``.  Each text is laid out in
fixed-width segments, NUL where a value has no glyph: the sign, ``0.``
and its zero fill, the digits with a possible ``.`` after each, the
zero fill and ``.0`` of an integral value, and the exponent.  A
segment no value of the array uses is left out.  Zeros, NaNs (any sign
or payload) and infinities are constant texts.
"""

from __future__ import annotations

from functools import cache
from typing import NamedTuple

import numpy as np

_U = np.uint64
_MASK32 = _U(0xFFFFFFFF)
_MANTISSA_MASK = _U((1 << 52) - 1)
_SIGN = _U(1 << 63)
_EXPONENT_ALL_ONES = _U(0x7FF << 52)
_ONE = _U(0x3FF << 52)  # the bits of 1.0, a stand-in for the constant texts
_BITCOUNT = 125  # bits of every multiplier, as in Ryu's d2s
_INV_ROWS = 342  # 2^k / 5^q for q = 0 .. 341, then 5^i for i = 0 .. 325
_POW10 = np.array([10**k for k in range(18)], dtype=np.uint64)
_POW5 = np.array([5**k for k in range(23)], dtype=np.uint64)
#: Lanes per step of the 64 x 128-bit products: their partial products then
#: stay in cache, which made the whole kernel about 15 % faster than one
#: step over 16k lanes (2-vCPU Xeon, numpy 2.4).
_PRODUCT_LANES = 2048
_CONSTANT_TEXTS = np.array([list(t.ljust(4, b"\0")) for t in (b"0.0", b"-0.0", b"inf", b"-inf", b"nan")], dtype=np.uint8)
_MINUS, _DOT, _ZERO, _PLUS, _E = (np.uint8(ord(c)) for c in "-.0+e")


@cache
def _multipliers() -> tuple[np.ndarray, ...]:
    """Ryu's multipliers as four arrays of 32-bit limbs, low limb first.

    Entries 0 .. 341 are floor(2^(bits(5^q) - 1 + 125) / 5^q) + 1 and
    entries 342 .. 667 are 5^i scaled to 125 bits, where bits(x) is the
    bit length of x.
    """
    inverse = [(1 << ((5**q).bit_length() - 1 + _BITCOUNT)) // 5**q + 1 for q in range(_INV_ROWS)]
    powers = []
    for i in range(326):
        shift = (5**i).bit_length() - _BITCOUNT
        powers.append(5**i >> shift if shift >= 0 else 5**i << -shift)
    return tuple(np.array([(v >> (32 * k)) & 0xFFFFFFFF for v in inverse + powers], dtype=np.uint64) for k in range(4))


def _mul_shift_lanes(m: np.ndarray, mul: tuple[np.ndarray, ...], j: np.ndarray) -> np.ndarray:
    """floor(m * mul / 2^j) for 55-bit ``m`` (any leading axes), 126-bit ``mul`` and 118 <= j <= 125.

    The product is summed in 32-bit columns: a0 * mul in two halves per
    limb, a1 * mul whole (a1 has at most 23 bits).  Column 0 never
    carries, so it is left out.
    """
    a0, a1 = m & _MASK32, m >> _U(32)
    b0, b1, b2, b3 = mul
    p0 = [a0 * b for b in mul]
    c1 = (p0[1] & _MASK32) + (p0[0] >> _U(32)) + a1 * b0
    c2 = (p0[2] & _MASK32) + (p0[1] >> _U(32)) + a1 * b1 + (c1 >> _U(32))
    c3 = (p0[3] & _MASK32) + (p0[2] >> _U(32)) + a1 * b2 + (c2 >> _U(32))
    c4 = (p0[3] >> _U(32)) + a1 * b3 + (c3 >> _U(32))
    t = (j - 96).astype(np.uint64)  # 22 .. 29
    return ((c3 & _MASK32) >> t) | (c4 << (_U(32) - t))


def _mul_shift(m: np.ndarray, mul: tuple[np.ndarray, ...], j: np.ndarray) -> np.ndarray:
    """:func:`_mul_shift_lanes` over :data:`_PRODUCT_LANES` lanes at a time."""
    out = np.empty(m.shape, dtype=np.uint64)
    for start in range(0, m.shape[-1], _PRODUCT_LANES):
        lanes = slice(start, start + _PRODUCT_LANES)
        out[..., lanes] = _mul_shift_lanes(m[..., lanes], tuple(b[lanes] for b in mul), j[lanes])
    return out


def _remove_digits(vr, vp, vm, vm_tz, vr_tz, last, removed, vm_zeros_only: bool) -> None:
    """One of Ryu's two digit-removal loops, on every lane at once, updating the arrays in place.

    The first loop removes a digit while vp / 10 > vm / 10, the second
    while vm's trailing-zero flag is set and vm ends in 0.  Lanes drop
    out as they stop; ``vp`` is left as it was.
    """
    ten = _U(10)
    out = (vr, vm, vm_tz, vr_tz, last, removed)
    live = np.arange(vr.size)
    state = [vr, vp, vm, vm_tz, vr_tz, last]
    count = 0
    while live.size:
        vr, vp, vm, vm_tz, vr_tz, last = state
        vm10 = vm // ten
        more = (vm_tz & (vm == vm10 * ten)) if vm_zeros_only else (vp // ten > vm10)
        if not more.all():
            stop = np.flatnonzero(~more)
            for target, source in zip(out, (vr, vm, vm_tz, vr_tz, last)):
                target[live[stop]] = source[stop]
            removed[live[stop]] += count
            keep = np.flatnonzero(more)
            live, vm10 = live[keep], vm10[keep]
            state = [a[keep] for a in state]
            vr, vp, vm, vm_tz, vr_tz, last = state
        vr10 = vr // ten
        state = [vr10, vp // ten, vm10, vm_tz & (vm == vm10 * ten), vr_tz & (last == 0), vr - vr10 * ten]
        count += 1


def _decimal(magnitude: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ryu's ``d2d`` of positive finite bits: digits and exponent, value = digits * 10^exponent."""
    ieee_m = magnitude & _MANTISSA_MASK
    ieee_e = (magnitude >> _U(52)).astype(np.int32)  # the exponent arithmetic below fits in 31 bits
    e2 = np.maximum(ieee_e, 1) - (1023 + 52 + 2)
    m2 = np.where(ieee_e == 0, ieee_m, ieee_m | _U(1 << 52))
    accept = (m2 & _U(1)) == 0
    mm_shift = ((ieee_m != 0) | (ieee_e <= 1)).astype(np.uint64)
    mv = m2 << _U(2)

    pos = e2 >= 0
    ae = np.abs(e2)
    q = np.where(pos, ((ae * 78913) >> 18) - (ae > 3), ((ae * 732923) >> 20) - (ae > 1))
    i = ae - q  # the power of five for e2 < 0
    e10 = np.where(pos, q, q + e2)
    j = np.where(pos, q + _BITCOUNT - 1 + ((q * 1217359) >> 19) + 1 - e2, q - ((i * 1217359) >> 19) - 1 + _BITCOUNT)
    row = np.where(pos, q, _INV_ROWS + i).astype(np.intp)
    mul = tuple(limb[row] for limb in _multipliers())
    numerators = np.empty((3, mv.size), dtype=np.uint64)  # of vr, vp and vm
    numerators[0] = mv
    np.add(mv, _U(2), out=numerators[1])
    np.subtract(mv, mm_shift + _U(1), out=numerators[2])
    vr, vp, vm = _mul_shift(numerators, mul, j)

    # Trailing zeros of the exact quotients, which only small |e2| can have.
    vm_tz = np.zeros(mv.size, dtype=bool)
    low_bits = (_U(1) << np.minimum(q, 63).astype(np.uint64)) - _U(1)
    vr_tz = ~pos & (q > 1) & ((mv & low_bits) == 0)  # Ryu asks q < 63; mv has 55 bits
    lanes = np.flatnonzero(pos & (q <= 21))
    if lanes.size:
        m, acc, p5 = mv[lanes], accept[lanes], _POW5[q[lanes]]
        mod5 = m == (m // _U(5)) * _U(5)
        vr_tz[lanes] = mod5 & (m == m // p5 * p5)
        below = m - _U(1) - mm_shift[lanes]
        vm_tz[lanes] = ~mod5 & acc & (below == below // p5 * p5)
        above = m + _U(2)
        vp[lanes] -= ~mod5 & ~acc & (above == above // p5 * p5)
    lanes = np.flatnonzero(~pos & (q <= 1))
    if lanes.size:
        vr_tz[lanes] = True
        vm_tz[lanes] = accept[lanes] & (mm_shift[lanes] == 1)
        vp[lanes] -= ~accept[lanes]

    last = np.zeros_like(vr)
    removed = np.zeros(vr.size, dtype=np.int64)
    _remove_digits(vr, vp, vm, vm_tz, vr_tz, last, removed, vm_zeros_only=False)
    lanes = np.flatnonzero(vm_tz)
    if lanes.size:
        parts = [a[lanes] for a in (vr, vp, vm, vm_tz, vr_tz, last, removed)]
        _remove_digits(*parts, vm_zeros_only=True)
        for target, part in zip((vr, vm, vm_tz, vr_tz, last, removed), parts[:1] + parts[2:]):
            target[lanes] = part
    half_even = vr_tz & (last == 5) & ((vr & _U(1)) == 0)  # exactly ...50..0: round to even
    up = ((vr == vm) & ~(accept & vm_tz)) | ((last >= 5) & ~half_even)
    return vr + up, e10 + removed


def _digit_chars(digits: np.ndarray, olen: np.ndarray) -> np.ndarray:
    """The 17 decimal digits of each value, left-aligned, as ASCII (n, 17)."""
    left = digits * _POW10[17 - olen]
    high = left // _POW10[9]
    halves = np.stack([high, left - high * _POW10[9]]).astype(np.uint32)  # 8 and 9 digits
    out = np.empty((digits.size, 17), dtype=np.uint8)
    for t in range(9):
        tenth = halves // np.uint32(10)
        digit = halves - tenth * np.uint32(10) + np.uint32(ord("0"))
        out[:, 16 - t] = digit[1]
        if t < 8:
            out[:, 7 - t] = digit[0]
        halves = tenth
    return out


class Decimals(NamedTuple):
    """The shortest round-trip decimal of each value, ready to lay out."""

    negative: np.ndarray  #: sign bit set
    chars: np.ndarray  #: (n, 17) ASCII digits, left-aligned; those past ``olen`` are not part of the text
    olen: np.ndarray  #: number of digits
    decpt: np.ndarray  #: value = 0.d1d2... * 10^decpt
    constant: np.ndarray  #: index into the constant texts 0.0, -0.0, inf, -inf, nan, or -1


def decimals(values) -> Decimals:
    """Ryu's shortest digits of every float64 of ``values`` (flattened)."""
    bits = np.ascontiguousarray(values, dtype=np.float64).reshape(-1).view(np.uint64)
    magnitude = bits & ~_SIGN
    negative = bits >= _SIGN
    special = (magnitude == 0) | (magnitude >= _EXPONENT_ALL_ONES)
    digits, exponent = _decimal(np.where(special, _ONE, magnitude))
    olen = np.searchsorted(_POW10[1:], digits, side="right") + 1
    constant = np.full(bits.size, -1)
    lanes = np.flatnonzero(special)
    if lanes.size:
        m = magnitude[lanes]
        constant[lanes] = np.where(m > _EXPONENT_ALL_ONES, 4, 2 * (m != 0) + negative[lanes])
    decpt = (exponent + olen).astype(np.int16)
    return Decimals(negative, _digit_chars(digits, olen), olen.astype(np.int8), decpt, constant)


def segments(d: Decimals) -> np.ndarray:
    """Lay out decimals as uint8 rows of segments: the non-NUL bytes of row i, in order, are its text.

    Segments and ``.`` positions that no value uses are left out.
    """
    n = d.olen.size
    sci = (d.decpt <= -4) | (d.decpt > 16)
    lead = ~sci & (d.decpt <= 0)
    whole = ~sci & (d.decpt >= d.olen)
    point = np.where(sci, 0, np.where(lead | whole, 17, d.decpt - 1))  # the digit a '.' follows
    width = int(d.olen.max()) if n else 1
    column = lambda a: a[:, None]  # noqa: E731
    row = lambda text: np.frombuffer(text.encode("ascii"), dtype=np.uint8)  # noqa: E731

    blocks = [(_MINUS, column(d.negative))]  # (glyphs, kept), kept of shape (n, segment width)
    if lead.any():  # 0.000ddd
        fill = int(-d.decpt[lead].min())
        blocks.append((row("0.000")[: 2 + fill], column(lead) & (np.arange(2 + fill) < column(2 - d.decpt))))
    pointed = point + 1 < d.olen
    start = 0
    for slot in np.flatnonzero(np.bincount(point[pointed], minlength=width)).tolist() + [width - 1]:
        blocks.append((d.chars[:, start : slot + 1], np.arange(start, slot + 1) < column(d.olen)))
        if slot < width - 1:
            blocks.append((_DOT, column(pointed & (point == slot))))
        start = slot + 1
    if whole.any():  # ddd000.0
        fill = int((d.decpt - d.olen)[whole].max())
        blocks.append((row("0" * fill + ".0"), column(whole) & ((np.arange(fill + 2) < column(d.decpt - d.olen)) | (np.arange(fill + 2) >= fill))))
    if sci.any():  # d.ddde-XX
        e = d.decpt - 1
        ae = np.abs(e).astype(np.uint16)
        hundreds, tens = ae // 100, ae // 10
        exponent = np.empty((n, 5), dtype=np.uint8)
        exponent[:, 0] = _E
        exponent[:, 1] = np.where(e < 0, _MINUS, _PLUS)
        exponent[:, 2] = hundreds + ord("0")
        exponent[:, 3] = tens - hundreds * 10 + ord("0")
        exponent[:, 4] = ae - tens * 10 + ord("0")
        kept = np.repeat(column(sci), 5, axis=1)
        kept[:, 2] &= ae >= 100  # NUL throughout if no exponent has three digits
        blocks.append((exponent, kept))

    out = np.empty((n, sum(kept.shape[1] for _, kept in blocks)), dtype=np.uint8)
    at = 0
    for glyphs, kept in blocks:
        np.multiply(glyphs, kept, out=out[:, at : at + kept.shape[1]])
        at += kept.shape[1]
    lanes = np.flatnonzero(d.constant >= 0)
    if lanes.size:
        out[lanes] = 0
        out[lanes, :4] = _CONSTANT_TEXTS[d.constant[lanes]]
    return out

