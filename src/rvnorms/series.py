"""Truncated power series with exact or floating coefficients.

A series holds coefficients c_0..c_degree of t^0..t^degree; addition,
multiplication, and exponentiation are exact modulo t^(degree+1) whenever
the coefficients are exact (int or Fraction).
"""

from __future__ import annotations

from .scalars import exact_div


class TruncatedSeries:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = tuple(coeffs)
        if not coeffs:
            raise ValueError("series needs at least the constant coefficient")
        self.coeffs = coeffs

    @classmethod
    def one(cls, degree: int) -> "TruncatedSeries":
        return cls((1,) + (0,) * degree)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, k: int):
        if not 0 <= k <= self.degree:
            raise IndexError(f"coefficient {k} outside degree {self.degree}")
        return self.coeffs[k]

    def _check(self, other: "TruncatedSeries") -> None:
        if self.degree != other.degree:
            raise ValueError("degree mismatch")

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check(other)
        return TruncatedSeries(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check(other)
        return TruncatedSeries(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check(other)
        d = self.degree
        out = [0] * (d + 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j in range(d + 1 - i):
                b = other.coeffs[j]
                if b != 0:
                    out[i + j] = out[i + j] + a * b
        return TruncatedSeries(tuple(out))

    def exp(self) -> "TruncatedSeries":
        """exp of a series with zero constant term.

        Uses the derivative recurrence g' = f' g, i.e.
        k*g_k = sum_{j=1}^{k} j * f_j * g_{k-j}, which stays exact on
        rational coefficients.
        """
        if self.coeffs[0] != 0:
            raise ValueError("exp requires a zero constant term")
        d = self.degree
        g = [1] + [0] * d
        for k in range(1, d + 1):
            acc = 0
            for j in range(1, k + 1):
                fj = self.coeffs[j]
                if fj != 0:
                    acc = acc + j * fj * g[k - j]
            g[k] = exact_div(acc, k)
        return TruncatedSeries(tuple(g))

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __repr__(self) -> str:
        return f"TruncatedSeries({list(self.coeffs)!r})"
