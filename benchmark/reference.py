"""Independent reference values for the benchmark's output checks.

Nothing here imports rvnorms.  Distributions are held as ``(family, params)``
with exact ``Fraction`` parameters; their cumulants come from closed forms
or from raw moments through this module's own moment-to-cumulant
recursion.  Norm powers are evaluated in floating point:

* Hermitian ``A``: eigenvalues from ``numpy.linalg.eigvalsh``, power sums
  ``p_k``, then the complete Bell recurrence on ``x_k = kappa_k p_k``,
  divided by ``d!``.
* General ``Z``: the average of the Hermitian value of
  ``e^{it} Z + e^{-it} Z*`` over ``2d + 2`` equally spaced points, divided
  by ``C(d, d/2)``.  The integrand is a trigonometric polynomial of degree
  ``d``, so the trapezoid rule is exact up to roundoff.
* A symbolic formula: each emitted trace word multiplied out with numpy.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from math import comb, factorial

import numpy as np


def _moments(family: str, params: dict, d: int) -> list:
    """Raw moments mu_1..mu_d for the moments-first families."""
    if family == "bernoulli":
        return [params["q"]] * d
    if family == "rademacher":
        return [Fraction(1 - k % 2) for k in range(1, d + 1)]
    if family == "finite_discrete":
        pairs = list(zip(params["atoms"], params["probs"]))
        return [sum(q * a**k for a, q in pairs) for k in range(1, d + 1)]
    if family == "pareto":
        a = params["alpha"]
        if not a > d:
            raise ValueError(f"pareto(alpha={a}) has no moment of order {d}")
        return [a / (a - k) for k in range(1, d + 1)]
    raise ValueError(f"no moment form for {family!r}")


def moments_to_cumulants(mu: list) -> list:
    """kappa_r = mu_r - sum_{j=1}^{r-1} C(r-1, j-1) kappa_j mu_{r-j}."""
    kappas: list = []
    for r in range(1, len(mu) + 1):
        acc = mu[r - 1]
        for j in range(1, r):
            acc -= comb(r - 1, j - 1) * kappas[j - 1] * mu[r - j - 1]
        kappas.append(acc)
    return kappas


def cumulants(family: str, params: dict, d: int) -> list:
    """kappa_1..kappa_d, exact for Fraction parameters."""
    if family == "gamma":
        a, b = params["alpha"], params["beta"]
        return [a * b**r * factorial(r - 1) for r in range(1, d + 1)]
    if family == "exponential":
        b = params["beta"]
        return [b**r * factorial(r - 1) for r in range(1, d + 1)]
    if family == "poisson":
        return [params["alpha"]] * d
    if family == "normal":
        return ([params["mu"], params["sigma"] ** 2] + [Fraction(0)] * d)[:d]
    if family == "laplace":
        b = params["beta"]
        return [params["mu"]] + [
            2 * b**r * factorial(r - 1) if r % 2 == 0 else Fraction(0) for r in range(2, d + 1)
        ]
    return moments_to_cumulants(_moments(family, params, d))


def bell_norm_pow(power_sums, kappas, d: int) -> float:
    """(1/d!) B_d(kappa_1 p_1, ..., kappa_d p_d) by the complete Bell recurrence
    B_{m+1} = sum_{i=0}^{m} C(m, i) x_{i+1} B_{m-i}."""
    x = [float(kappas[k]) * power_sums[k] for k in range(d)]
    bell = [1.0]
    for m in range(d):
        bell.append(sum(comb(m, i) * x[i] * bell[m - i] for i in range(m + 1)))
    return bell[d] / factorial(d)


def hermitian_value(A: np.ndarray, kappas, d: int) -> float:
    """Norm power of a Hermitian matrix from its eigenvalues."""
    lam = np.linalg.eigvalsh(A)
    power_sums = [float(np.sum(lam**k)) for k in range(1, d + 1)]
    return bell_norm_pow(power_sums, kappas, d)


def general_value(Z: np.ndarray, kappas, d: int) -> float:
    """Norm power of an arbitrary square matrix by the circle average."""
    q = 2 * d + 2
    Zadj = Z.conj().T
    total = 0.0
    for j in range(q):
        e = cmath.exp(2j * math.pi * j / q)
        total += hermitian_value(e * Z + e.conjugate() * Zadj, kappas, d)
    return total / q / comb(d, d // 2)


def degree_two_closed_form(Z: np.ndarray, kappas) -> float:
    """|||Z|||^2 = (kappa_2 ||Z||_F^2 + kappa_1^2 |tr Z|^2) / 2."""
    k1, k2 = float(kappas[0]), float(kappas[1])
    return (k2 * float(np.sum(np.abs(Z) ** 2)) + k1 * k1 * abs(np.trace(Z)) ** 2) / 2.0


def formula_value(terms, Z: np.ndarray) -> complex:
    """Evaluate emitted ``{"coeff": [p, q], "factors": [word, ...]}`` terms at
    Z, a word letter ``Z`` standing for Z and ``s`` for its adjoint."""
    letters = {"Z": Z, "s": Z.conj().T}
    traces: dict = {}

    def word_trace(word: str) -> complex:
        if word not in traces:
            M = np.eye(Z.shape[0], dtype=complex)
            for ch in word:
                M = M @ letters[ch]
            traces[word] = complex(np.trace(M))
        return traces[word]

    total = 0j
    for term in terms:
        p, q = term["coeff"]
        value = float(Fraction(p, q))
        for word in term["factors"]:
            value *= word_trace(word)
        total += value
    return total


def relative_error(value: float, reference: float) -> float:
    return abs(value - reference) / max(abs(reference), 1e-300)
