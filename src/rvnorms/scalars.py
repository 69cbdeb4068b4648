"""Small helpers for mixed exact/floating scalar arithmetic.

Exact values are ``int`` and ``fractions.Fraction``; everything else
(float, complex) goes through ordinary floating point.  Python's numeric
tower handles the mixed products, so the care left is telling exact from
float values and extracting real parts from complex values that carry
roundoff residue.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

EXACT_TYPES = (int, Fraction)


def is_exact(value) -> bool:
    return isinstance(value, EXACT_TYPES)


def real_part_checked(value):
    """Return the real part of ``value``, requiring a negligible imaginary residue.

    The allowance is 1e-10 relative to the magnitude of the value (with a
    floor of 1), which is what a numerically-Hermitian computation leaves
    behind.  Exact and real inputs pass through untouched.
    """
    if isinstance(value, complex):
        scale = max(1.0, abs(value))
        if abs(value.imag) > 1e-10 * scale:
            raise ArithmeticError(
                f"imaginary residue {value.imag!r} exceeds 1e-10 of scale {scale!r}"
            )
        return value.real
    return value


def real_parts_checked(values: np.ndarray) -> np.ndarray:
    """:func:`real_part_checked` elementwise on a complex array: the real
    parts, or the ArithmeticError of the first value whose imaginary
    residue exceeds 1e-10 of max(1, |value|)."""
    bad = np.abs(values.imag) > 1e-10 * np.maximum(1.0, np.abs(values))
    if bad.any():
        real_part_checked(complex(values[bad][0]))
    return values.real
