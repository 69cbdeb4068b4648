"""Dense square matrices with the few linear-algebra pieces the norm engine
needs: trace powers, traces of products, Hermitian eigenvalues,
majorization, and the JSON matrix file format.

A Matrix is immutable and holds one numpy array, validated once in its
constructor.  Entries that are all exact (int, Fraction) or a mix of exact
and inexact values are stored with ``dtype=object``, so exact arithmetic
stays in Python ints and Fractions and never overflows; all-inexact entries
(float, complex, or a numeric ndarray) are stored as complex128.  Entries,
traces and traces of products come out as Python int, Fraction or complex.
The analytic norm paths never touch the eigensolver (LAPACK ``eigvalsh``
through numpy); it exists for the Monte Carlo oracle and the
Schur-convexity tests.
"""

from __future__ import annotations

import cmath
import json
import math
from fractions import Fraction
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
    def zeros(cls, n: int) -> "Matrix":
        return cls([[0] * n for _ in range(n)])

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


def default_hermitian_tol(Z: Matrix) -> float:
    return 1e-12 * (1.0 + Z.max_abs())


def is_hermitian(Z: Matrix, tol: float | None = None) -> bool:
    """True iff max entrywise |Z - Z*| <= tol.

    Without ``tol``, an exact matrix must equal its adjoint exactly and any
    other gets the tolerance 1e-12 * (1 + max|entry|).
    """
    if tol is None:
        if Z.is_exact():
            return Z == Z.adjoint()
        tol = default_hermitian_tol(Z)
    with np.errstate(over="ignore"):  # an inf difference is simply > tol
        diff = np.abs(Z.array - np.conjugate(Z.array).T).max()
    return float(diff) <= tol


def frobenius_norm(Z: Matrix) -> float:
    return float(np.linalg.norm(Z.to_numpy()))


def trace_powers(A: Matrix, d: int) -> list:
    """(tr A, tr A^2, ..., tr A^d) by iterated multiplication."""
    if d < 1:
        raise ValueError("d must be >= 1")
    out = [A.trace()]
    P = A
    for _ in range(d - 1):
        P = P @ A
        out.append(P.trace())
    return out


def trace_of_product(A: Matrix, B: Matrix):
    """tr(AB) = sum_ij A_ij B_ji in O(n^2), without forming AB."""
    A._same_size(B)
    return _scalar((A.array * B.array.T).sum())


def hermitian_eigenvalues(A: Matrix, tol: float | None = None) -> list[float]:
    """Eigenvalues of a Hermitian matrix, nonincreasing, by LAPACK's
    ``eigvalsh`` (which reads the lower triangle and scales internally, so
    entries near the float limits give finite eigenvalues)."""
    if not is_hermitian(A, tol):
        raise NonHermitianError("hermitian_eigenvalues requires a Hermitian matrix")
    return np.linalg.eigvalsh(A.to_numpy())[::-1].tolist()


def is_majorized(x, y) -> bool:
    """True iff y majorizes x: equal totals and the partial sums of the
    nonincreasing rearrangement of x never exceed those of y.

    Exact comparison on all-rational input; scaled 1e-12 tolerance otherwise.
    """
    x = list(x)
    y = list(y)
    if len(x) != len(y):
        raise ValueError(f"length mismatch: {len(x)} vs {len(y)}")
    exact = all(isinstance(v, (int, Fraction)) for v in x + y)
    xs = sorted(x, reverse=True)
    ys = sorted(y, reverse=True)
    if exact:
        run_x = run_y = Fraction(0)
        for k in range(len(xs)):
            run_x += xs[k]
            run_y += ys[k]
            if run_x > run_y:
                return False
        return run_x == run_y
    tol = 1e-12 * max(1.0, sum(abs(float(v)) for v in ys))
    run_x = run_y = 0.0
    for k in range(len(xs)):
        run_x += float(xs[k])
        run_y += float(ys[k])
        if run_x > run_y + tol:
            return False
    return abs(run_x - run_y) <= tol


# -- JSON matrix file format ------------------------------------------------
#
# {"n": 2, "re": [[0, 1], [1, 0]], "im": [[0, 0], [0, 0]]}
#
# "im" may be omitted for real matrices.  Integer entries stay exact;
# strings "p/q" are parsed as exact rationals.


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


def _entry_to_json(v):
    if isinstance(v, int):
        return v
    if isinstance(v, Fraction):
        return v.numerator if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
    return float(v)


def matrix_from_json(obj) -> Matrix:
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
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            a = _entry_from_json(re[i][j])
            b = _entry_from_json(im[i][j]) if im is not None else 0
            row.append(complex(float(a), float(b)) if b != 0 else a)
        rows.append(row)
    return Matrix(rows)


def matrix_to_json(Z: Matrix) -> dict:
    rows = Z.array.tolist()
    re = [[_entry_to_json(v.real if isinstance(v, complex) else v) for v in r] for r in rows]
    im = [[float(v.imag) if isinstance(v, complex) else 0 for v in r] for r in rows]
    return {"n": Z.n, "re": re, "im": im}


def load_matrix(path) -> Matrix:
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read matrix file {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"matrix file {path} is not valid JSON: {exc}") from None
    return matrix_from_json(obj)
