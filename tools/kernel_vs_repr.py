"""Check the CSV kernel against ``repr`` on millions of float64 bit patterns.

    python3 tools/kernel_vs_repr.py

Formats, through :func:`spacsim.io.fmt_column`, in blocks of
:data:`BLOCK` values:

* :data:`VALUES` bit patterns with a uniformly drawn sign, exponent
  field (every field 0 .. 2047, so zeros, subnormals, infinities and
  NaNs too) and fraction;
* every power of two, 2^-1074 .. 2^1023, with both neighbours and both
  signs;
* ``VALUES // 8`` subnormals: the 2^16 smallest, then uniformly drawn
  fractions.

It compares each text with ``repr`` of the same double, prints how many
values it checked and the first mismatches, and exits 1 on any
mismatch.  The seed is :data:`SEED`, so every run checks the same
4,512,588 values.  It is the scaled-up twin of the random-pattern and
powers-of-two tests of ``tests/test_io.py::TestKernelAgainstRepr``.
Standard library and numpy; ``spacsim`` is imported from ``src`` beside
this directory.
"""

from __future__ import annotations

import sys
from collections.abc import Iterator
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from spacsim.io import fmt_column  # noqa: E402

#: Values formatted per call, which bounds the memory of a run.
BLOCK = 1 << 18
#: Random bit patterns drawn over every exponent field.
VALUES = 4_000_000
SEED = 2020
_U = np.uint64


def bit_patterns() -> Iterator[np.ndarray]:
    """The values to check, as blocks of uint64 bit patterns."""
    rng = np.random.default_rng(SEED)
    for start in range(0, VALUES, BLOCK):
        size = min(BLOCK, VALUES - start)
        sign = rng.integers(0, 2, size, dtype=_U) << _U(63)
        field = rng.integers(0, 2048, size, dtype=_U) << _U(52)
        yield sign | field | rng.integers(0, 1 << 52, size, dtype=_U)
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    around = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)])
    yield np.concatenate([around, -around]).view(_U)
    subnormals = VALUES // 8
    yield np.arange(1, min(subnormals, 1 << 16) + 1, dtype=_U)
    for start in range(1 << 16, subnormals, BLOCK):
        yield rng.integers(1, 1 << 52, min(BLOCK, subnormals - start), dtype=_U)


def mismatches(bits: np.ndarray) -> list[tuple[int, str, str]]:
    """(bit pattern, kernel text, ``repr``) wherever the two differ."""
    values = bits.view(np.float64)
    return [(int(b), text, repr(v)) for b, v, text in zip(bits.tolist(), values.tolist(), fmt_column(values)) if text != repr(v)]


def main() -> int:
    checked, bad = 0, []
    for bits in bit_patterns():
        bad += mismatches(bits)
        checked += bits.size
    print(f"checked {checked} values against repr: {len(bad)} mismatches")
    for b, text, expected in bad[:10]:
        print(f"  {b:#018x}: kernel {text!r}, repr {expected!r}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
