"""Independent routes and helpers that only the tests use.

The closed normal form and the Pareto multinomial expansion are oracles
for the cumulant routes; ``random_unitary`` and ``zeros`` build test
inputs.
"""

from fractions import Fraction
from math import factorial

import numpy as np

from rvnorms.errors import MomentExistenceError, NonHermitianError
from rvnorms.matrixcore import Matrix, is_hermitian, trace_powers
from rvnorms.normengine import _require_even_degree
from rvnorms.scalars import exact_div, real_part_checked


def zeros(n: int) -> Matrix:
    return Matrix([[0] * n for _ in range(n)])


def random_unitary(rng: np.random.Generator, n: int) -> Matrix:
    """A unitary built as a product of n Householder reflections."""
    U = np.eye(n, dtype=complex)
    for _ in range(n):
        v = rng.normal(size=n) + 1j * rng.normal(size=n)
        v /= np.linalg.norm(v)
        U = U - 2.0 * np.outer(U @ v, v.conj())
    return Matrix(U)


def normal_norm_pow_closed(A: Matrix, mu, sigma, d: int):
    """Closed form of the norm power for normal(mu, sigma) entries:

        sum_{k=0}^{d/2} mu^{2k} (tr A)^{2k} / (2k)!
                        * sigma^{d-2k} (tr A^2)^{d/2-k} / (2^{d/2-k} (d/2-k)!)

    using tr(A^2) = ||A||_F^2 on Hermitian input.
    """
    _require_even_degree(d)
    if not is_hermitian(A):
        raise NonHermitianError("closed normal form requires a Hermitian matrix")
    tp = trace_powers(A, 2)
    tr1 = real_part_checked(tp[0])
    tr2 = real_part_checked(tp[1])
    half = d // 2
    total = 0
    for k in range(half + 1):
        num = mu ** (2 * k) * tr1 ** (2 * k) * sigma ** (d - 2 * k) * tr2 ** (half - k)
        total = total + exact_div(num, factorial(2 * k) * 2 ** (half - k) * factorial(half - k))
    return total


def _compositions(total: int, slots: int):
    if slots == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, slots - 1):
            yield (first,) + rest


def pareto_norm_pow_multinomial(lambdas, alpha, d: int):
    """Norm power for Pareto(alpha) entries on diag(lambdas) by the raw
    multinomial expansion of E<X, lambda>^d / d!, using mu_k = alpha/(alpha-k).

    Exists only for d < alpha.  It avoids the cumulant recursion entirely.
    """
    _require_even_degree(d)
    if not d < alpha:
        raise MomentExistenceError(
            f"pareto(alpha={alpha}) has moments only below alpha; degree {d} requested"
        )
    lambdas = list(lambdas)
    exact = isinstance(alpha, (int, Fraction))
    mu = [1] + [
        (Fraction(alpha) / (alpha - k)) if exact else alpha / (alpha - k)
        for k in range(1, d + 1)
    ]
    total = 0
    for ks in _compositions(d, len(lambdas)):
        weight = factorial(d)
        for k in ks:
            weight //= factorial(k)
        term = weight
        for lam, k in zip(lambdas, ks):
            if k:
                term = term * lam**k * mu[k]
        total = total + term
    return exact_div(total, factorial(d))
