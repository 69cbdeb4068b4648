"""Symmetric-polynomial calculus: complete homogeneous sums, power sums,
monomial symmetric polynomials, and the positive-definite combinations
H_{d,alpha} of CHS products.

Everything here is plain evaluation at a point; exact inputs give exact
outputs.  ``chs_prefix`` computes h_0..h_d by one prefix dynamic program
(n*d work) and ``chs`` reads h_d from it; the raw monomial sum is kept as a
brute-force oracle for tests.

Both forms of H_{d,alpha} run in Python ints on an exact point: the point
is scaled by the lcm L of its denominators (:func:`_scaled_point`), and
since h_k(Lx) = L^k h_k(x) and H_{d,alpha} is homogeneous of degree d, one
Fraction(total, L**d) at the end gives the value (:func:`_rescaled`).  A
point with a float coordinate is evaluated as it is.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import factorial, lcm, prod

from .errors import PreconditionError
from .partitions import Partition, enumerate_partitions, hunter_coefficient, z_of
from .scalars import exact_div, is_exact


def chs(d: int, x) -> object:
    """Complete homogeneous symmetric polynomial h_d(x), all degree-d monomials."""
    if d < 0:
        raise ValueError("d must be nonnegative")
    return chs_prefix(d, x)[d]


def chs_prefix(d: int, x) -> list:
    """h_0(x)..h_d(x) in one pass.

    Dynamic program over prefixes: after absorbing x_i,
    h_new[j] = h_old[j] + x_i * h_new[j-1].
    """
    x = list(x)
    h = [1] + [0] * d
    for xi in x:
        for j in range(1, d + 1):
            h[j] = h[j] + xi * h[j - 1]
    return h


def chs_monomial_sum(d: int, x) -> object:
    """Brute-force h_d via combinations with repetition; test oracle only."""
    x = list(x)
    total = 0
    for combo in itertools.combinations_with_replacement(range(len(x)), d):
        total = total + prod((x[i] for i in combo), start=1)
    return total


def power_sum_product(p: Partition, x) -> object:
    """p_pi(x) = product over parts of sum_i x_i^part."""
    x = list(x)
    return prod((sum(xi**part for xi in x) for part in p.parts), start=1)


def monomial_sym(p: Partition, x) -> object:
    """Monomial symmetric polynomial m_pi(x): one term per distinct way of
    assigning the parts as exponents to distinct variables.

    Zero when the partition has more parts than there are variables.
    """
    x = list(x)
    n = len(x)
    if p.num_parts > n:
        return 0
    values = sorted(p.multiplicities.items())  # (part value, multiplicity)
    total = 0

    def assign(vi: int, free: tuple[int, ...], acc) -> None:
        nonlocal total
        if vi == len(values):
            total = total + acc
            return
        value, mult = values[vi]
        for chosen in itertools.combinations(free, mult):
            rest = tuple(i for i in free if i not in chosen)
            term = acc
            for i in chosen:
                term = term * x[i] ** value
            assign(vi + 1, rest, term)

    assign(0, tuple(range(n)), 1)
    return total


def chs_powersum_identity_check(d: int, x) -> tuple:
    """Return (h_d(x), sum over partitions of p_pi(x)/z_pi); they agree."""
    if d % 2:
        raise PreconditionError("identity check is stated for even d")
    x = list(x)
    total = 0
    for p in enumerate_partitions(d):
        total = total + exact_div(power_sum_product(p, x), z_of(p))
    return chs(d, x), total


def hunter_terms(d: int, alpha: int) -> list[tuple[Partition, int]]:
    """The (partition, coefficient) expansion of H_{d,alpha}, coefficients
    alpha!/((alpha-r)! prod m_i!), partitions with more than alpha parts dropped."""
    out = []
    for p in enumerate_partitions(d):
        c = hunter_coefficient(p, alpha)
        if c:
            out.append((p, c))
    return out


def _scaled_point(x) -> tuple[list, int | None]:
    """(xs, L): an exact point (ints and Fractions) as the ints xs = L x, L
    the lcm of its denominators; a point with any other coordinate comes
    back as it is, with L = None."""
    if not all(is_exact(v) for v in x):
        return x, None
    L = lcm(*(v.denominator for v in x))
    return [v.numerator * (L // v.denominator) for v in x], L


def _rescaled(total, x, L: int | None, d: int):
    """H(x) from total = H(L x), degree-d homogeneous: Fraction(total, L**d)
    when x has a Fraction coordinate and d >= 1, else total itself, so an
    int point gives an int and a float point its float."""
    if L is None or not d or not any(isinstance(v, Fraction) for v in x):
        return total
    return Fraction(total, L**d)


def hunter_poly(d: int, alpha: int, x, terms=None) -> object:
    """H_{d,alpha}(x) = sum over partitions of d with at most alpha parts of
    the coefficient times the product of CHS factors h_{part}(x).

    ``terms`` is ``hunter_terms(d, alpha)`` when the caller already holds
    it, so that the partitions of d are walked once.  Strictly positive for
    even d and x != 0; alpha = 1 reduces to h_d(x).
    """
    if d < 0:
        raise ValueError("d must be nonnegative")
    x = list(x)
    xs, L = _scaled_point(x)
    h = chs_prefix(d, xs)
    total = 0
    for p, c in hunter_terms(d, alpha) if terms is None else terms:
        total = total + c * prod([h[part] for part in p.parts])
    return _rescaled(total, x, L, d)


def hunter_poly_recursive(d: int, alpha: int, x) -> object:
    """H_{d,alpha} = [t^d] G(t) for G = (sum_k h_k t^k)^alpha, by the power
    recurrence k g_k = sum_{j=1..k} ((alpha+1) j - k) h_j g_{k-j}, g_0 = 1,
    which follows from H G' = alpha H' G.  O(d^2) for every alpha, and
    independent of the partition expansion in :func:`hunter_poly`.

    On an exact point every g_k is an int (the power of an integer series
    with constant term 1), so the division by k must leave no remainder.
    """
    if d < 0:
        raise ValueError("d must be nonnegative")
    if alpha < 1:
        raise ValueError("alpha must be >= 1")
    x = list(x)
    xs, L = _scaled_point(x)
    h = chs_prefix(d, xs)
    g = [1] + [0] * d
    for k in range(1, d + 1):
        s = sum(((alpha + 1) * j - k) * h[j] * g[k - j] for j in range(1, k + 1))
        if L is None:
            g[k] = s / k
        else:
            g[k], r = divmod(s, k)
            if r:
                raise ArithmeticError(f"power recurrence left remainder {r} at k={k}")
    return _rescaled(g[d], x, L, d)


def bernoulli_norm_hermitian(lambdas, q, d: int) -> object:
    """Degree-d norm power for Bernoulli(q) entries on a diagonal matrix,
    via monomial symmetric polynomials:

        sum over partitions pi of d of  q^{|pi|} / prod_j (pi_j!) * m_pi(lambda).

    The coefficient comes from grouping the multinomial expansion of
    E<X, lambda>^d by exponent pattern: each pattern pi carries
    d!/prod(pi_j!) monomial weight and a factor q per occupied slot, and
    the overall 1/d! cancels the d!.  (Collapsing the coefficient to
    |pi|!/d! instead would undercount patterns with repeated parts, e.g.
    (2,2) at d=4 gives 1/4, not 1/12.)
    """
    if d % 2 or d < 2:
        raise PreconditionError("even d >= 2 required")
    if not 0 < q < 1:
        raise PreconditionError(f"q must lie in (0, 1), got {q!r}")
    lambdas = list(lambdas)
    total = 0
    for p in enumerate_partitions(d):
        m = monomial_sym(p, lambdas)
        if m == 0:
            continue
        coeff = exact_div(q ** p.num_parts, prod(factorial(part) for part in p.parts))
        total = total + coeff * m
    return total
