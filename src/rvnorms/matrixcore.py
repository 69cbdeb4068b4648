"""Dense square matrices with the Hermitian test and tolerance, Hermitian
eigenvalues, majorization of float rows, the power-of-two scale of a float
matrix, and the JSON matrix file format.  The norm routes' trace kernels
work on numpy stacks (:mod:`rvnorms.normengine`), not on Matrix.

A Matrix is immutable and holds one numpy array, validated once in its
constructor.  Entries that are all exact (int, Fraction) are stored with
``dtype=object``, so exact arithmetic stays in Python ints and Fractions
and never overflows; any other entries (an inexact value among them, or a
numeric ndarray) are stored as complex128.
The analytic norm paths never touch the eigensolver (LAPACK ``eigvalsh``
through numpy); it exists for the Monte Carlo oracle and the
Schur-convexity tests.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from itertools import chain
from typing import Iterable

import numpy as np

from .errors import NonHermitianError, ParseError
from .scalars import EXACT_TYPES

_INEXACT_TYPES = (float, complex)


class Matrix:
    """Immutable dense n-by-n matrix over one numpy array ``array``.

    Built from rows of int, Fraction, float or complex entries, or from a
    square ndarray.  Non-finite and unsupported entries raise ValueError;
    an exact entry too large for a float, among inexact ones, raises
    OverflowError.
    """

    __slots__ = ("array", "n")

    def __init__(self, rows: Iterable[Iterable] | np.ndarray):
        if isinstance(rows, np.ndarray) and rows.dtype != object:
            if rows.dtype.kind not in "biufc":
                raise ValueError(f"unsupported array dtype {rows.dtype}")
            a = rows.astype(complex)
        else:
            if not isinstance(rows, np.ndarray):
                rows = [list(r) for r in rows]
            a = np.array(rows, dtype=object)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.size == 0:
            raise ValueError("matrix must be square and nonempty")
        if a.dtype == object:
            kinds = {type(v) for v in a.flat}
            for t in kinds:
                if not issubclass(t, EXACT_TYPES + _INEXACT_TYPES):
                    raise ValueError(f"unsupported entry type {t.__name__}")
            if not all(issubclass(t, EXACT_TYPES) for t in kinds):
                a = a.astype(complex)
        if a.dtype != object and not np.isfinite(a).all():
            raise ValueError("non-finite entry")
        a.flags.writeable = False
        self.array = a
        self.n = a.shape[0]

    def max_abs(self) -> float:
        return float(np.abs(self.array).max())

    def is_exact(self) -> bool:
        """True iff every entry is an int or a Fraction."""
        return self.array.dtype == object

    def to_numpy(self) -> np.ndarray:
        return self.array.astype(complex)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return np.array_equal(self.array, other.array)

    def __repr__(self) -> str:
        return f"Matrix({self.array.tolist()!r})"


def scale_exponents(max_abs):
    """The binary exponent e for which a matrix whose largest entry
    magnitude is ``max_abs`` has its largest entry of Z * 2**-e in
    [1/2, 1), so that scaling by 2**-e is exact; 0 for the zero matrix.
    Elementwise on an array of magnitudes, one per matrix of a stack.

    e is at least -1022, so 2**-e stays a finite float: a matrix of
    subnormal entries is scaled up by 2**1022 and ends below 1/2.
    """
    return np.maximum(np.frexp(max_abs)[1], -1022)


def scale_exponent(Z: Matrix) -> int:
    """:func:`scale_exponents` for one matrix."""
    return int(scale_exponents(Z.max_abs()))


def hermitian_tolerance(max_abs):
    """The default Hermitian tolerance of a matrix whose largest entry
    magnitude is ``max_abs`` (elementwise on an array): 1e-12 * max_abs,
    relative to the matrix's own scale, so that a matrix and its multiples
    by any power of two are classified alike."""
    return 1e-12 * max_abs


def hermitian_mask(Z: np.ndarray, tol) -> np.ndarray:
    """For a stack of inexact matrices (..., n, n): True where the
    largest entrywise |Z - Z*| is at most ``tol``, one per matrix: its
    :func:`hermitian_tolerance`."""
    with np.errstate(over="ignore"):  # an inf difference is simply > tol
        diff = np.abs(Z - np.conjugate(Z).swapaxes(-2, -1)).max(axis=(-2, -1))
    return diff <= tol


def is_hermitian(Z: Matrix) -> bool:
    """True iff Z equals its adjoint: exactly for an exact matrix, and
    within :func:`hermitian_tolerance` of its largest entry otherwise."""
    if Z.is_exact():
        return Z.array.tolist() == Z.array.T.tolist()  # exact entries are real
    return bool(hermitian_mask(Z.array, hermitian_tolerance(Z.max_abs())))


# Largest matrix size n whose complex stacks stack_product multiplies by
# einsum's own loop, in one summation order, rather than by BLAS, whose
# order follows the CPU kernel OpenBLAS picks at run time.  Per batched
# product of N complex n x n matrices (N = 6, 40, 200), einsum took 0.6-1.0x
# the time of matmul at n = 2-3, 1.0-1.4x at 4, 1.5-2.7x at 5-6, 3.4-4.7x at
# 8, 3.6-5.9x at 10 and 10-11x at 16, on a 2-vCPU AVX-512 host
# (OpenBLAS 0.3.31, SkylakeX kernel).  With half the powers formed, the
# trace kernel took 0.3-0.4x the parent's time on 180 4x4 matrices to power
# 4, and 1.0-1.3x on 40 8x8 matrices to power 8; a whole 8x8 norm by trace
# words at d=8 took 2-3% longer.  Above n = 8 the halving no longer makes up
# for einsum, so BLAS takes over, and float bits are not pinned there.
EINSUM_MAX_N = 8


def stack_product(A: np.ndarray, B: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The batched product A @ B of two stacks (N, n, n), row-major like
    ``np.matmul``'s, or into ``out``: by ``np.einsum`` for a complex stack
    of n <= :data:`EINSUM_MAX_N`, whose bits then depend on neither the
    BLAS kernel nor the other matrices of the stack, and by ``np.matmul``
    above it and for exact (``dtype=object``) stacks."""
    if A.dtype == object or A.shape[-1] > EINSUM_MAX_N:
        return np.matmul(A, B, out=out)
    return np.einsum("nij,njk->nik", A, B, out=out, order="C")


def hermitian_eigenvalues(A: Matrix) -> list[float]:
    """Eigenvalues of a Hermitian matrix, nonincreasing, by LAPACK's
    ``eigvalsh`` (which reads the lower triangle and scales internally, so
    entries near the float limits give finite eigenvalues)."""
    if not is_hermitian(A):
        raise NonHermitianError("hermitian_eigenvalues requires a Hermitian matrix")
    return np.linalg.eigvalsh(A.to_numpy())[::-1].tolist()


def majorized_rows(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row by row, whether y majorizes x, for float arrays (N, n): equal
    totals and the partial sums of each nonincreasing rearrangement of x
    never above those of y, within 1e-12 * max(1, sum |y|).  The partial
    sums and the sum |y| are taken in order, largest entry first."""
    xs = np.cumsum(np.sort(x, axis=-1)[:, ::-1], axis=-1)
    ys = np.sort(y, axis=-1)[:, ::-1]
    tol = 1e-12 * np.maximum(1.0, np.cumsum(np.abs(ys), axis=-1)[:, -1])
    ys = np.cumsum(ys, axis=-1)
    return (xs <= ys + tol[:, None]).all(axis=-1) & (np.abs(xs[:, -1] - ys[:, -1]) <= tol)


# -- JSON matrix file format ------------------------------------------------
#
# {"n": 2, "re": [[0, 1], [1, 0]], "im": [[0, 0], [0, 0]]}
#
# "im" may be omitted for real matrices.  Integer entries and strings "p/q"
# are exact; an entry whose "im" is not 0 is the complex of the two as
# floats.  A document with any float or complex entry reads as complex128.


def _entry_from_json(v):
    if isinstance(v, bool):
        raise ParseError(f"bad matrix entry {v!r}")
    if isinstance(v, int):
        return v
    if isinstance(v, float):
        if not math.isfinite(v):
            raise ParseError(f"non-finite matrix entry {v!r}")
        return v
    if isinstance(v, str):
        try:
            return Fraction(v)
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"bad rational matrix entry {v!r}") from None
    raise ParseError(f"bad matrix entry {v!r}")


def _complex_array(re, im) -> np.ndarray | None:
    """re + i im in one pass when every entry of both is a finite float (im
    may be None), else None.  An imaginary -0.0 becomes +0.0, as per entry."""
    parts = (re,) if im is None else (re, im)
    if set(map(type, chain.from_iterable(chain.from_iterable(parts)))) != {float}:
        return None
    z = np.array(re, dtype=complex)
    if im is not None:
        z.imag = np.array(im, dtype=float) + 0.0  # -0.0 + 0.0 is +0.0
    return z if np.isfinite(z).all() else None


def matrix_from_json(obj) -> Matrix:
    """The Matrix of a matrix document.  An all-float document is read in
    one pass (:func:`_complex_array`); any other entry by entry, where the
    first bad entry in row order, ``re`` before ``im``, raises ParseError."""
    if not isinstance(obj, dict):
        raise ParseError("matrix document must be a JSON object")
    try:
        n = obj["n"]
        re = obj["re"]
    except KeyError as exc:
        raise ParseError(f"matrix document missing key {exc}") from None
    im = obj.get("im")
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ParseError(f"bad dimension {n!r}")
    try:
        if len(re) != n or any(len(r) != n for r in re):
            raise ParseError("re array is not n-by-n")
        if im is not None and (len(im) != n or any(len(r) != n for r in im)):
            raise ParseError("im array is not n-by-n")
    except TypeError:
        raise ParseError("re/im must be n-by-n arrays") from None
    # a JSON object passes the size checks by its keys, but has no rows by position
    if any(isinstance(v, dict) for a in ((re,) if im is None else (re, im)) for v in (a, *a)):
        raise ParseError("re/im must be n-by-n arrays")
    z = _complex_array(re, im)
    if z is not None:
        return Matrix(z)
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            a = _entry_from_json(re[i][j])
            b = _entry_from_json(im[i][j]) if im is not None else 0
            row.append(complex(float(a), float(b)) if b != 0 else a)
        rows.append(row)
    return Matrix(rows)


def load_matrix(path) -> Matrix:
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read matrix file {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"matrix file {path} is not valid JSON: {exc}") from None
    return matrix_from_json(obj)
