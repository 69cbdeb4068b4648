"""Dense square matrices with the Hermitian test and tolerance, Hermitian
eigenvalues, majorization, the power-of-two scale of a float matrix, and
the JSON matrix file format.  The norm routes' trace kernels work on numpy
stacks (:mod:`rvnorms.normengine`), not on Matrix.

A Matrix is immutable and holds one numpy array, validated once in its
constructor.  Entries that are all exact (int, Fraction) or a mix of exact
and inexact values are stored with ``dtype=object``, so exact arithmetic
stays in Python ints and Fractions and never overflows; all-inexact entries
(float, complex, or a numeric ndarray) are stored as complex128.  Entries
and traces come out as Python int, Fraction or complex.
The analytic norm paths never touch the eigensolver (LAPACK ``eigvalsh``
through numpy); it exists for the Monte Carlo oracle and the
Schur-convexity tests.
"""

from __future__ import annotations

import cmath
import json
import math
from fractions import Fraction
from itertools import chain
from typing import Iterable

import numpy as np

from .errors import NonHermitianError, ParseError
from .scalars import EXACT_TYPES, is_exact

_INEXACT_TYPES = (float, complex)


def _scalar(v):
    """A Python int, Fraction or complex for one entry or sum of entries."""
    return v if is_exact(v) else complex(v)


class Matrix:
    """Immutable dense n-by-n matrix over one numpy array ``array``.

    Built from rows of int, Fraction, float or complex entries, or from a
    square ndarray.  Non-finite and unsupported entries raise ValueError.
    """

    __slots__ = ("array", "n", "_exact")

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
        exact = False
        if a.dtype == object:
            kinds = {type(v) for v in a.flat}
            for t in kinds:
                if not issubclass(t, EXACT_TYPES + _INEXACT_TYPES):
                    raise ValueError(f"unsupported entry type {t.__name__}")
            exact = all(issubclass(t, EXACT_TYPES) for t in kinds)
            if not any(issubclass(t, EXACT_TYPES) for t in kinds):
                a = a.astype(complex)
            elif not exact:
                for v in a.flat:
                    if isinstance(v, _INEXACT_TYPES) and not cmath.isfinite(v):
                        raise ValueError(f"non-finite entry {v!r}")
        if a.dtype != object and not np.isfinite(a).all():
            raise ValueError("non-finite entry")
        a.flags.writeable = False
        self.array = a
        self.n = a.shape[0]
        self._exact = exact

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def diagonal(cls, values) -> "Matrix":
        values = list(values)
        n = len(values)
        return cls([[values[i] if i == j else 0 for j in range(n)] for i in range(n)])

    def __getitem__(self, ij):
        return _scalar(self.array[ij])

    def _same_size(self, other: "Matrix") -> None:
        if self.n != other.n:
            raise ValueError("dimension mismatch")

    def __add__(self, other: "Matrix") -> "Matrix":
        self._same_size(other)
        return Matrix(self.array + other.array)

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._same_size(other)
        return Matrix(self.array - other.array)

    def __neg__(self) -> "Matrix":
        return Matrix(-self.array)

    def __mul__(self, scalar) -> "Matrix":
        return Matrix(self.array * scalar)

    __rmul__ = __mul__

    def __matmul__(self, other: "Matrix") -> "Matrix":
        self._same_size(other)
        return Matrix(self.array @ other.array)

    def adjoint(self) -> "Matrix":
        return Matrix(np.conjugate(self.array).T)

    def trace(self):
        return _scalar(np.trace(self.array))

    def max_abs(self) -> float:
        return float(np.abs(self.array).max())

    def is_exact(self) -> bool:
        """True iff every entry is an int or a Fraction."""
        return self._exact

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


def is_majorized(x, y) -> bool:
    """True iff y majorizes x: equal totals and the partial sums of the
    nonincreasing rearrangement of x never exceed those of y.

    Exact comparison on all-rational input; otherwise the floats of x and
    y go to :func:`majorized_rows` as one row.
    """
    x = list(x)
    y = list(y)
    if len(x) != len(y):
        raise ValueError(f"length mismatch: {len(x)} vs {len(y)}")
    if not all(isinstance(v, (int, Fraction)) for v in x + y):
        return bool(majorized_rows(np.array([x], dtype=float), np.array([y], dtype=float))[0])
    xs = sorted(x, reverse=True)
    ys = sorted(y, reverse=True)
    run_x = run_y = Fraction(0)
    for k in range(len(xs)):
        run_x += xs[k]
        run_y += ys[k]
        if run_x > run_y:
            return False
    return run_x == run_y


# -- JSON matrix file format ------------------------------------------------
#
# {"n": 2, "re": [[0, 1], [1, 0]], "im": [[0, 0], [0, 0]]}
#
# "im" may be omitted for real matrices.  Integer entries stay exact and
# strings "p/q" are parsed as exact rationals; an entry whose "im" is not 0
# becomes the complex of the two as floats.


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
