"""Dense square matrices over Python scalars, with the few linear-algebra
pieces the norm engine needs: trace powers, traces of products, a Hermitian
Jacobi eigensolver, majorization, and the JSON matrix file format.

Matrices are immutable and entries may be int, Fraction, float, or complex;
arithmetic follows Python's numeric tower, so exact inputs stay exact.
Dimensions are desk scale (n up to a few dozen), so products are plain
O(n^3) loops.  The analytic norm paths never touch the eigensolver; it
exists for the Monte Carlo oracle and the Schur-convexity tests.
"""

from __future__ import annotations

import cmath
import json
import math
from fractions import Fraction
from typing import Iterable

import numpy as np

from .errors import NonHermitianError, ParseError


def _check_finite(v):
    if isinstance(v, float):
        if not math.isfinite(v):
            raise ValueError(f"non-finite entry {v!r}")
    elif isinstance(v, complex):
        if not cmath.isfinite(v):
            raise ValueError(f"non-finite entry {v!r}")
    elif not isinstance(v, (int, Fraction)):
        raise ValueError(f"unsupported entry type {type(v).__name__}")
    return v


class Matrix:
    """Immutable dense n-by-n matrix."""

    __slots__ = ("rows", "n")

    def __init__(self, rows: Iterable[Iterable]):
        rows = tuple(tuple(_check_finite(v) for v in r) for r in rows)
        n = len(rows)
        if n == 0 or any(len(r) != n for r in rows):
            raise ValueError("matrix must be square and nonempty")
        self.rows = rows
        self.n = n

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
        i, j = ij
        return self.rows[i][j]

    def __add__(self, other: "Matrix") -> "Matrix":
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        return Matrix(
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)]
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        return Matrix(
            [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)]
        )

    def __neg__(self) -> "Matrix":
        return Matrix([[-v for v in r] for r in self.rows])

    def __mul__(self, scalar) -> "Matrix":
        return Matrix([[v * scalar for v in r] for r in self.rows])

    __rmul__ = __mul__

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        cols = tuple(zip(*other.rows))
        return Matrix(
            [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in self.rows]
        )

    def adjoint(self) -> "Matrix":
        return Matrix(
            [[self.rows[j][i].conjugate() for j in range(self.n)] for i in range(self.n)]
        )

    def trace(self):
        return sum(self.rows[i][i] for i in range(self.n))

    def max_abs(self) -> float:
        return max(float(abs(v)) for r in self.rows for v in r)

    def is_exact(self) -> bool:
        return all(isinstance(v, (int, Fraction)) for r in self.rows for v in r)

    def to_numpy(self) -> np.ndarray:
        return np.array([[complex(v) for v in r] for r in self.rows], dtype=complex)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.rows == other.rows

    def __repr__(self) -> str:
        return f"Matrix({[list(r) for r in self.rows]!r})"


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
    for i in range(Z.n):
        for j in range(Z.n):
            diff = Z.rows[i][j] - Z.rows[j][i].conjugate()
            if float(abs(diff)) > tol:
                return False
    return True


def frobenius_norm(Z: Matrix) -> float:
    return math.sqrt(sum(float(abs(v)) ** 2 for r in Z.rows for v in r))


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
    if A.n != B.n:
        raise ValueError("dimension mismatch")
    return sum(a * b for row, col in zip(A.rows, zip(*B.rows)) for a, b in zip(row, col))


def _jacobi_real_symmetric(S: np.ndarray, tol: float, max_sweeps: int = 60) -> np.ndarray:
    """Cyclic Jacobi sweeps on a real symmetric matrix, in place."""
    n = S.shape[0]
    for _ in range(max_sweeps):
        off = math.sqrt(max(0.0, float(np.sum(S * S) - np.sum(np.diag(S) ** 2))))
        if off <= tol:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = S[p, q]
                if apq == 0.0:
                    continue
                diff = S[q, q] - S[p, p]
                if abs(apq) < 1e-36 * abs(diff):
                    t = apq / diff
                else:
                    theta = diff / (2.0 * apq)
                    t = 1.0 / (abs(theta) + math.sqrt(theta * theta + 1.0))
                    if theta < 0.0:
                        t = -t
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                colp = S[:, p].copy()
                colq = S[:, q].copy()
                S[:, p] = c * colp - s * colq
                S[:, q] = s * colp + c * colq
                rowp = S[p, :].copy()
                rowq = S[q, :].copy()
                S[p, :] = c * rowp - s * rowq
                S[q, :] = s * rowp + c * rowq
                S[p, q] = 0.0
                S[q, p] = 0.0
    return S


def hermitian_eigenvalues(A: Matrix, tol: float | None = None) -> list[float]:
    """Eigenvalues of a Hermitian matrix, nonincreasing, by cyclic Jacobi.

    Complex input is embedded in the 2n-by-2n real symmetric matrix
    [[Re A, -Im A], [Im A, Re A]], whose spectrum is that of A doubled.
    Rotations continue until the off-diagonal Frobenius mass is below
    1e-12 * ||A||_F.
    """
    if not is_hermitian(A, tol):
        raise NonHermitianError("hermitian_eigenvalues requires a Hermitian matrix")
    arr = A.to_numpy()
    frob = float(np.linalg.norm(arr))
    conv = 1e-12 * frob
    if A.n == 1:
        return [float(arr[0, 0].real)]
    re = arr.real.copy()
    im = arr.imag.copy()
    # Symmetrize exactly so Jacobi sees S = S^T even after float roundoff.
    re = (re + re.T) / 2.0
    im = (im - im.T) / 2.0
    if np.any(im != 0.0):
        S = np.block([[re, -im], [im, re]])
        S = _jacobi_real_symmetric(S, conv)
        lams = np.sort(np.diag(S))[::-1]
        lams = lams[0::2]
    else:
        S = _jacobi_real_symmetric(re, conv)
        lams = np.sort(np.diag(S))[::-1]
    return [float(v) for v in lams]


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
    re = [[_entry_to_json(v.real if isinstance(v, complex) else v) for v in r] for r in Z.rows]
    im = [[float(v.imag) if isinstance(v, complex) else 0 for v in r] for r in Z.rows]
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
